package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync"
	"time"

	"activedr/internal/daemon"
	"activedr/internal/obs"
	"activedr/internal/randx"
	"activedr/internal/trace"
)

const (
	// ingestBatch is activedrd's default -feed-batch.
	ingestBatch = 256
	// queryInterval spaces the open-loop reads at 25 per second.
	queryInterval = 40 * time.Millisecond
	// maxQueries bounds the pre-drawn query schedule (two minutes).
	maxQueries = 3000
	// idleQueries is how many reads the floors child sends an idle
	// daemon: two cycles of the mix.
	idleQueries = 20
)

// The read mix, in a fixed cycle of ten: 40% status, 30% rank table,
// 20% one user's purge plan, 10% the first 100 victims. A fixed cycle
// keeps the mix, and so which kind of query the p50 and p90 fall on,
// the same for every seed.
var (
	queryKinds = []string{"status", "ranks", "plan", "victims"}
	queryCycle = []int{0, 1, 2, 0, 1, 3, 0, 1, 2, 0}
)

// plannedQuery is one read in the seeded query sequence.
type plannedQuery struct {
	Kind string
	User string // plan queries only
}

// queryResult is one read as measured. Ms runs from when the read was
// due to its response; LagMs is how late it was sent.
type queryResult struct {
	Kind  string  `json:"kind"`
	Ms    float64 `json:"ms"`
	LagMs float64 `json:"lag_ms"`
}

// planQueries returns n queries in the queryCycle mix, with the plan
// queries' users drawn uniformly from the user table by the seed.
func planQueries(seed uint64, users []trace.User, n int) []plannedQuery {
	src := randx.New(seed ^ 0x71e7_9a5e_d00d)
	out := make([]plannedQuery, n)
	for i := range out {
		out[i].Kind = queryKinds[queryCycle[i%len(queryCycle)]]
		if out[i].Kind == "plan" {
			out[i].User = users[src.Intn(len(users))].Name
		}
	}
	return out
}

// daemonConfig is activedrd's default configuration for the
// ActiveDR-90d daemon, with its state under dir.
func daemonConfig(dir string, o *obs.Observer) daemon.Config {
	return daemon.Config{
		WALDir:        dir + "/wal",
		CheckpointDir: dir + "/ckpt",
		Sim:           simConfig(90),
		Obs:           o,
	}
}

// runDaemonFeed is the daemon-feed journey: activedrd's set-up (load
// the dataset, recover an empty state, serve the API), then one
// closed-loop connection POSTs the whole access log to /v1/ingest
// while a second, open-loop connection sends the read mix at 25/s.
func runDaemonFeed(c *child) error {
	rec := c.rec
	dir, err := os.MkdirTemp(c.stateDir, "pass-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	root := rec.begin("sample", "")
	setup := rec.begin("setup", "")
	var (
		ds *trace.Dataset
		d  *daemon.Daemon
	)
	if err := c.layer("trace.load", "trace.load_s", func() (err error) {
		ds, _, err = trace.LoadDatasetWith(c.in.dataDir(), trace.ReadOptions{})
		return err
	}); err != nil {
		return err
	}
	o := c.observer()
	if err := c.layer("daemon.new", "daemon.new_s", func() (err error) {
		d, err = daemon.New(ds, daemonConfig(dir, o))
		return err
	}); err != nil {
		return err
	}
	srv := httptest.NewServer(d.Handler())
	ingest := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	reads := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer func() {
		srv.Close()
		if err := d.Close(); err != nil {
			c.fail("daemon close: %v", err)
		}
	}()
	if err := c.layer("http.ready", "", func() error { return waitReady(ingest, srv.URL) }); err != nil {
		return err
	}
	c.s.SetupS = rec.end(setup).Seconds()
	var before status
	if err := getJSON(reads, srv.URL+"/v1/status", &before); err != nil {
		return err
	}
	c.noteLoad(ds, before.Files)

	replay := rec.begin("replay", "")
	ctx, stop := context.WithCancel(context.Background())
	start := time.Now()
	var wg sync.WaitGroup
	var (
		queries    []queryResult
		qAttempted int64
		qErrs      []string
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		queries, qAttempted, qErrs = openLoop(ctx, reads, srv.URL, planQueries(c.seed, ds.Users, maxQueries), start)
	}()
	rtts, ierr := c.closedLoopIngest(ingest, srv.URL, ds)
	c.s.ReplayS = time.Since(start).Seconds()
	stop()
	wg.Wait()
	rec.end(replay)
	c.s.Queries = queries
	c.s.Attempted += qAttempted
	for _, e := range qErrs {
		c.fail("%s", e)
	}
	if ierr != nil {
		return ierr
	}
	c.s.Layer["daemon.ingest_rtt_p50_ms"] = percentile(rtts, 50)

	if err := c.checkFinal(reads, srv.URL, len(ds.Accesses)); err != nil {
		return err
	}
	rec.end(root)

	c.noteObserved()
	reg := o.Registry()
	c.s.Layer["wal.records"] = float64(reg.Counter("daemon_wal_records_total").Value())
	c.s.Layer["wal.syncs"] = float64(reg.Counter("daemon_wal_syncs_total").Value())
	c.s.Layer["wal.retries"] = float64(reg.Counter("daemon_wal_retries_total").Value())
	c.s.Layer["daemon.rejected"] = float64(reg.Counter("daemon_events_rejected_total").Value())
	return nil
}

// idleReads starts a daemon with activedrd's defaults on ds's initial
// state and sends it idleQueries reads of the mix, open loop, with no
// ingest running: the uncontended floor under daemon-feed's reads,
// which the batch workloads report in their place.
func (c *child) idleReads(ds *trace.Dataset) error {
	dir, err := os.MkdirTemp(c.stateDir, "reads-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := daemon.New(ds, daemonConfig(dir, c.observer()))
	if err != nil {
		return err
	}
	srv := httptest.NewServer(d.Handler())
	defer func() {
		srv.Close()
		if err := d.Close(); err != nil {
			c.fail("daemon close: %v", err)
		}
	}()
	cl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	if err := waitReady(cl, srv.URL); err != nil {
		return err
	}
	queries, attempted, errs := openLoop(context.Background(), cl, srv.URL,
		planQueries(c.seed, ds.Users, idleQueries), time.Now())
	c.s.Queries = queries
	c.s.Attempted += attempted
	for _, e := range errs {
		c.fail("%s", e)
	}
	return nil
}

// closedLoopIngest POSTs the access log in ingestBatch-event batches,
// each after the previous one was acknowledged (durable and applied),
// and returns every batch's round trip in ms. A refused batch (429 or
// any non-2xx) counts as failed and is not retried: the events after
// it would then land out of order.
func (c *child) closedLoopIngest(cl *http.Client, base string, ds *trace.Dataset) ([]float64, error) {
	var body bytes.Buffer
	rtts := make([]float64, 0, len(ds.Accesses)/ingestBatch+1)
	for i := 0; i < len(ds.Accesses); i += ingestBatch {
		body.Reset()
		for j := i; j < min(i+ingestBatch, len(ds.Accesses)); j++ {
			ev := daemon.AccessEvent(&ds.Accesses[j])
			line, err := ev.Encode(ds.Users)
			if err != nil {
				return nil, err
			}
			body.Write(line)
			body.WriteByte('\n')
		}
		t := time.Now()
		resp, err := cl.Post(base+"/v1/ingest", "text/tab-separated-values", &body)
		c.s.Attempted++
		if err != nil {
			c.fail("ingest batch %d: %v", i/ingestBatch, err)
			return nil, err
		}
		drain(resp)
		rtts = append(rtts, msSince(t))
		if resp.StatusCode/100 != 2 {
			c.fail("ingest batch %d: HTTP %d", i/ingestBatch, resp.StatusCode)
			return nil, fmt.Errorf("ingest refused with HTTP %d", resp.StatusCode)
		}
	}
	return rtts, nil
}

// openLoop sends plan[i] when it falls due, start + i*queryInterval,
// until ctx ends. Each query is timed from its due time, so a stalled
// response also delays, and is charged to, the queries behind it.
func openLoop(ctx context.Context, cl *http.Client, base string, plan []plannedQuery, start time.Time) (out []queryResult, attempted int64, errs []string) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i, q := range plan {
		due := start.Add(time.Duration(i) * queryInterval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return
		}
		sent := time.Now()
		attempted++
		resp, err := cl.Get(base + queryPath(q))
		if err == nil {
			drain(resp)
			if resp.StatusCode/100 != 2 {
				err = fmt.Errorf("HTTP %d", resp.StatusCode)
			}
		}
		if err != nil {
			errs = append(errs, fmt.Sprintf("query %s: %v", q.Kind, err))
			continue
		}
		out = append(out, queryResult{Kind: q.Kind, Ms: msSince(due), LagMs: float64(sent.Sub(due)) / 1e6})
	}
	return
}

func queryPath(q plannedQuery) string {
	switch q.Kind {
	case "plan":
		return "/v1/plan?user=" + url.QueryEscape(q.User)
	case "victims":
		return "/v1/victims?limit=100"
	}
	return "/v1/" + q.Kind
}

// status is the part of /v1/status the journey checks.
type status struct {
	State    string `json:"state"`
	Applied  int    `json:"applied_events"`
	Triggers int    `json:"triggers"`
	Files    int    `json:"files"`
	Bytes    int64  `json:"bytes"`
}

// checkFinal reads the daemon's final status and metrics and reports
// them as the activedr-90d lane, which the parent checks against the
// batch reference like any other replay.
func (c *child) checkFinal(cl *http.Client, base string, accesses int) error {
	var st status
	if err := getJSON(cl, base+"/v1/status", &st); err != nil {
		return err
	}
	var m obs.MetricsSnapshot
	if err := getJSON(cl, base+"/metrics", &m); err != nil {
		return err
	}
	if st.State != "running" || st.Applied != accesses {
		c.fail("daemon ended %s with %d of %d events applied", st.State, st.Applied, accesses)
	}
	fp := Fingerprint{Triggers: st.Triggers, FinalFiles: st.Files, FinalBytes: st.Bytes}
	for _, v := range m.Counters {
		switch v.Name {
		case obs.MetricMisses:
			fp.Misses = v.Value
		case obs.MetricPurgedBytes:
			fp.PurgedBytes = v.Value
		}
	}
	c.s.Lanes["activedr-90d"] = fp
	return nil
}

func waitReady(cl *http.Client, base string) error {
	for i := 0; ; i++ {
		resp, err := cl.Get(base + "/readyz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if i == 100 {
			return fmt.Errorf("daemon not ready after %d polls: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(cl *http.Client, u string, v any) error {
	resp, err := cl.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// drain reads and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
