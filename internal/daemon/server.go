package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"activedr/internal/retention"
	"activedr/internal/timeutil"
)

// maxIngestBody bounds an ingest request: 8 MiB of TSV is ~100k
// events, far past any sane batch.
const maxIngestBody = 8 << 20

var errIngestTooLarge = fmt.Errorf("ingest body exceeds %d bytes", maxIngestBody)

// Handler returns the daemon's HTTP API:
//
//	GET  /healthz     liveness (process up, even when degraded)
//	GET  /readyz      readiness (503 + reason when not ingesting)
//	GET  /metrics     live internal/obs metrics snapshot, JSON
//	GET  /v1/status   daemon + replay-state summary
//	GET  /v1/ranks    current per-user activeness rank table
//	GET  /v1/plan     dry-run purge plan (?user=NAME filters victims)
//	GET  /v1/victims  dry-run victim list (?limit=N truncates)
//	POST /v1/ingest   TSV event feed; 429 on backpressure, 503 degraded
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /v1/status", d.handleStatus)
	mux.HandleFunc("GET /v1/ranks", d.handleRanks)
	mux.HandleFunc("GET /v1/plan", d.handlePlan)
	mux.HandleFunc("GET /v1/victims", d.handleVictims)
	mux.HandleFunc("POST /v1/ingest", d.handleIngest)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (d *Daemon) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st, reason := d.state()
	if st != stateRunning {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": st.String(), "reason": reason,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "running"})
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, d.cfg.Obs.Registry().Snapshot())
}

// statusResponse is /v1/status's body.
type statusResponse struct {
	State         string        `json:"state"`
	Reason        string        `json:"reason,omitempty"`
	Policy        string        `json:"policy"`
	Applied       int           `json:"applied_events"`
	Recovered     int           `json:"recovered_events"`
	Triggers      int           `json:"triggers"`
	NextTrigger   timeutil.Time `json:"next_trigger"`
	LastEventTS   timeutil.Time `json:"last_event_ts"`
	Files         int           `json:"files"`
	Bytes         int64         `json:"bytes"`
	QueueLen      int           `json:"queue_len"`
	QueueCap      int           `json:"queue_cap"`
	WALSegments   int           `json:"wal_segments_recovered"`
	WALRecords    uint64        `json:"wal_records_recovered"`
	WALTornBytes  int64         `json:"wal_torn_bytes_truncated"`
	LastCkptEvent int           `json:"last_checkpoint_event"`
}

// WriteStatus renders the status document to w — the same body
// GET /v1/status serves (activedrd -oneshot prints it at exit).
func (d *Daemon) WriteStatus(w io.Writer) error {
	st := d.status()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

func (d *Daemon) status() statusResponse {
	d.settled()
	d.mu.Lock()
	defer d.mu.Unlock()
	st, reason := d.state()
	return statusResponse{
		State:         st.String(),
		Reason:        reason,
		Policy:        d.stream.Policy().Name(),
		Applied:       d.stream.Applied(),
		Recovered:     d.recovered,
		Triggers:      d.stream.Triggers(),
		NextTrigger:   d.stream.NextTrigger(),
		LastEventTS:   d.lastTS,
		Files:         d.stream.FS().Count(),
		Bytes:         d.stream.FS().TotalBytes(),
		QueueLen:      len(d.queue),
		QueueCap:      cap(d.queue),
		WALSegments:   d.walInfo.Segments,
		WALRecords:    d.walInfo.Records,
		WALTornBytes:  d.walInfo.TornBytes,
		LastCkptEvent: d.lastCkpt,
	}
}

func (d *Daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, d.status())
}

// rankEntry is one user's row in /v1/ranks.
type rankEntry struct {
	User   string  `json:"user"`
	Op     float64 `json:"op"`
	Oc     float64 `json:"oc"`
	Active bool    `json:"active"`
	Files  int64   `json:"files"`
	Bytes  int64   `json:"bytes"`
}

func (d *Daemon) handleRanks(w http.ResponseWriter, _ *http.Request) {
	d.settled()
	d.mu.Lock()
	ranks, at := d.stream.Ranks()
	entries := make([]rankEntry, 0, len(ranks))
	for uid, r := range ranks {
		u := d.users[uid]
		entries = append(entries, rankEntry{
			User:   u.Name,
			Op:     r.Op,
			Oc:     r.Oc,
			Active: r.OpActive() || r.OcActive(),
			Files:  d.stream.FS().UserFiles(u.ID),
			Bytes:  d.stream.FS().UserBytes(u.ID),
		})
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"evaluated_at": at, "ranks": entries})
}

// dryRunPlan runs the policy's purge against a dry-run view of the
// live file system (retention.Plan) at the next trigger time, using the current rank table
// (evaluated at the reference snapshot until the first trigger). The
// plan uses a FRESH policy instance with no fault injector attached:
// the live policy's faults handle must not see extra draws, or the
// daemon's future purges would diverge from a batch replay (the
// bit-identical guarantee).
func (d *Daemon) dryRunPlan() (*retention.Report, error) {
	ranks, _ := d.stream.Ranks()
	p, err := d.em.NewPolicy(d.cfg.Policy)
	if err != nil {
		return nil, err
	}
	return retention.Plan(p, d.stream.FS(), ranks, d.stream.NextTrigger()), nil
}

// planResponse is /v1/plan's body: the report, with victims filtered
// to the requested user when ?user= is given.
type planResponse struct {
	At            timeutil.Time `json:"at"`
	Policy        string        `json:"policy"`
	User          string        `json:"user,omitempty"`
	PurgedFiles   int64         `json:"purged_files"`
	PurgedBytes   int64         `json:"purged_bytes"`
	TargetBytes   int64         `json:"target_bytes,omitempty"`
	TargetReached bool          `json:"target_reached"`
	UserFiles     int64         `json:"user_purged_files,omitempty"`
	UserBytes     int64         `json:"user_purged_bytes,omitempty"`
	Victims       []string      `json:"victims,omitempty"`
}

func (d *Daemon) handlePlan(w http.ResponseWriter, r *http.Request) {
	userName := r.URL.Query().Get("user")
	// Compute the whole response under the lock, release, then write:
	// a slow client must not stall the apply stage (or every other
	// handler) on d.mu for the duration of the network write.
	resp, status, err := d.planLocked(userName)
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// planLocked builds /v1/plan's response body under d.mu, once the
// events durable at the call are applied. On error the returned status
// is the HTTP code to send.
func (d *Daemon) planLocked(userName string) (planResponse, int, error) {
	d.settled()
	d.mu.Lock()
	defer d.mu.Unlock()
	var uid int = -1
	if userName != "" {
		id, ok := d.byName[userName]
		if !ok {
			return planResponse{}, http.StatusNotFound, fmt.Errorf("unknown user %q", userName)
		}
		uid = int(id)
	}
	rep, err := d.dryRunPlan()
	if err != nil {
		return planResponse{}, http.StatusConflict, err
	}
	resp := planResponse{
		At:            rep.At,
		Policy:        rep.Policy,
		User:          userName,
		PurgedFiles:   rep.PurgedFiles,
		PurgedBytes:   rep.PurgedBytes,
		TargetBytes:   rep.TargetBytes,
		TargetReached: rep.TargetReached,
	}
	if uid >= 0 {
		// Victims were only hidden from the plan's view, so ownership
		// still resolves against the live namespace.
		for _, path := range rep.Victims {
			meta, ok := d.stream.FS().Lookup(path)
			if !ok || int(meta.User) != uid {
				continue
			}
			resp.UserFiles++
			resp.UserBytes += meta.Size
			resp.Victims = append(resp.Victims, path)
		}
	}
	return resp, http.StatusOK, nil
}

func (d *Daemon) handleVictims(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", s))
			return
		}
		limit = n
	}
	d.settled()
	d.mu.Lock()
	rep, err := d.dryRunPlan()
	d.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	victims := rep.Victims
	truncated := false
	if limit > 0 && len(victims) > limit {
		victims, truncated = victims[:limit], true
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"at":        rep.At,
		"total":     len(rep.Victims),
		"truncated": truncated,
		"victims":   victims,
	})
}

func (d *Daemon) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := readIngestBody(r)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errIngestTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	events, err := ParseFeed(body, d.byName)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := d.Ingest(events); err != nil {
		switch {
		case errors.Is(err, ErrBackpressure):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDegraded), errors.Is(err, ErrKilled), errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ingested": len(events)})
}

// readIngestBody reads an ingest request's body into one buffer. A
// body that declares its length is read into a buffer of that size
// (plus the bytes.MinRead a final read needs), one of unknown length
// grows as io.ReadAll's does; either is refused past maxIngestBody.
// Nothing keeps the buffer past the request: ParseEvent copies each
// path out of it.
func readIngestBody(r *http.Request) ([]byte, error) {
	if r.ContentLength > maxIngestBody {
		return nil, errIngestTooLarge
	}
	buf := bytes.NewBuffer(make([]byte, 0, max(r.ContentLength, 0)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, maxIngestBody+1)); err != nil {
		return nil, err
	}
	if buf.Len() > maxIngestBody {
		return nil, errIngestTooLarge
	}
	return buf.Bytes(), nil
}
