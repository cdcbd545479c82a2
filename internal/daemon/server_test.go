package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/timeutil"
)

func getJSON(t *testing.T, srv *httptest.Server, path string, status int, out any) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d, want %d; body: %.200s", path, resp.StatusCode, status, body)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
}

func postFeed(t *testing.T, srv *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/ingest", "text/tab-separated-values",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func feedLines(t *testing.T, d *Daemon, evs []Event) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# test feed\n")
	for i := range evs {
		line, err := evs[i].Encode(d.users)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestHTTPAPI(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)

	o, err := obs.NewObserver(obs.NewRegistry(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Obs = o
	d := newDaemon(t, ds, cfg)
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	getJSON(t, srv, "/healthz", http.StatusOK, nil)
	getJSON(t, srv, "/readyz", http.StatusOK, nil)

	// Before any trigger, ranks come from the reference-snapshot
	// evaluation the replay state starts with.
	var ranks0 struct {
		Ranks []rankEntry
	}
	getJSON(t, srv, "/v1/ranks", http.StatusOK, &ranks0)
	if len(ranks0.Ranks) != 2 {
		t.Fatalf("initial ranks = %+v", ranks0)
	}

	// Ingest the first event (before the first trigger) over HTTP.
	resp := postFeed(t, srv, feedLines(t, d, evs[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	resp.Body.Close()
	var st statusResponse
	getJSON(t, srv, "/v1/status", http.StatusOK, &st)
	if st.State != "running" || st.Applied != 1 || !strings.HasPrefix(st.Policy, "ActiveDR") {
		t.Fatalf("status = %+v", st)
	}

	// Malformed feeds are a 400 with a line number, not a wedge.
	resp = postFeed(t, srv, "not\ta\tvalid\tline\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad feed = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Cross the first purge triggers; ranks and plans come alive.
	resp = postFeed(t, srv, feedLines(t, d, evs[1:6]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	resp.Body.Close()

	var ranks struct {
		EvaluatedAt int64 `json:"evaluated_at"`
		Ranks       []rankEntry
	}
	getJSON(t, srv, "/v1/ranks", http.StatusOK, &ranks)
	if len(ranks.Ranks) != 2 {
		t.Fatalf("ranks = %+v", ranks)
	}
	for _, r := range ranks.Ranks {
		if r.User != "busy" && r.User != "gone" {
			t.Fatalf("unknown user in ranks: %+v", r)
		}
	}

	var plan planResponse
	getJSON(t, srv, "/v1/plan", http.StatusOK, &plan)
	if plan.Policy == "" || plan.At == 0 {
		t.Fatalf("plan = %+v", plan)
	}
	getJSON(t, srv, "/v1/plan?user=nobody", http.StatusNotFound, nil)

	// Per-user plans list only that user's victims, owned by them.
	var userPlan planResponse
	getJSON(t, srv, "/v1/plan?user=busy", http.StatusOK, &userPlan)
	if int64(len(userPlan.Victims)) != userPlan.UserFiles {
		t.Fatalf("user plan victims/files mismatch: %+v", userPlan)
	}
	for _, v := range userPlan.Victims {
		meta, ok := d.stream.FS().Lookup(v)
		if !ok || d.users[meta.User].Name != "busy" {
			t.Fatalf("victim %q not owned by busy", v)
		}
	}

	var victims struct {
		Total     int      `json:"total"`
		Truncated bool     `json:"truncated"`
		Victims   []string `json:"victims"`
	}
	getJSON(t, srv, "/v1/victims", http.StatusOK, &victims)
	if len(victims.Victims) != victims.Total || victims.Truncated {
		t.Fatalf("victims = %+v", victims)
	}
	if victims.Total > 1 {
		var lim struct {
			Total     int      `json:"total"`
			Truncated bool     `json:"truncated"`
			Victims   []string `json:"victims"`
		}
		getJSON(t, srv, "/v1/victims?limit=1", http.StatusOK, &lim)
		if !lim.Truncated || len(lim.Victims) != 1 || lim.Total != victims.Total {
			t.Fatalf("limited victims = %+v", lim)
		}
	}
	getJSON(t, srv, "/v1/victims?limit=-1", http.StatusBadRequest, nil)

	// The metrics endpoint serves the live registry.
	var metrics obs.MetricsSnapshot
	getJSON(t, srv, "/metrics", http.StatusOK, &metrics)
	found := false
	for _, c := range metrics.Counters {
		if c.Name == "daemon_events_ingested_total" && c.Value == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested counter missing or wrong: %+v", metrics.Counters)
	}
}

// TestReadyzReportsDegraded checks readiness flips with the daemon's
// ingest state while liveness stays green.
func TestReadyzReportsDegraded(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	cfg := baseConfig(t)
	cfg.WALFaults = faults.New(faults.Config{Seed: 1, DiskFullAfterBytes: 1})
	d := newDaemon(t, ds, cfg)
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp := postFeed(t, srv, feedLines(t, d, evs[:1]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest on full disk = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	getJSON(t, srv, "/healthz", http.StatusOK, nil)
	var ready map[string]string
	getJSON(t, srv, "/readyz", http.StatusServiceUnavailable, &ready)
	if ready["status"] != "degraded" || ready["reason"] == "" {
		t.Fatalf("readyz = %+v", ready)
	}
}

// TestPlanDoesNotPerturbReplay guards the dry-run isolation: serving
// plans mid-stream must not consume fault-injector draws or mutate
// state, or the daemon's later purges would diverge from batch
// replay. Runs with purge faults enabled so any stolen draw shows. A
// twin daemon fed the same batches and no reads must end with the
// same value in every registry counter: plans carry no probe.
func TestPlanDoesNotPerturbReplay(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	fc := faults.Config{Seed: 42, UnlinkFailProb: 0.3}
	ref := batchReference(t, ds, &fc)

	newObserved := func() (*Daemon, *obs.Observer) {
		t.Helper()
		o, err := obs.NewObserver(obs.NewRegistry(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(t)
		cfg.Faults = faults.New(fc)
		cfg.Obs = o
		return newDaemon(t, tinyDataset(), cfg), o
	}
	d, dObs := newObserved()
	defer d.Close()
	twin, twinObs := newObserved()
	defer twin.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Hammer the dry-run endpoints before every batch and after the
	// last, starting while the parked files still put usage over the
	// target, so the plans do purge work.
	planned := 0
	hammer := func() {
		t.Helper()
		getJSON(t, srv, "/v1/plan?user=gone", http.StatusOK, nil)
		var victims struct{ Total int }
		getJSON(t, srv, "/v1/victims", http.StatusOK, &victims)
		planned += victims.Total
	}
	for i := 0; i < len(evs); i += 5 {
		end := min(i+5, len(evs))
		hammer()
		if err := d.Ingest(evs[i:end]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if err := twin.Ingest(evs[i:end]); err != nil {
			t.Fatalf("twin Ingest: %v", err)
		}
	}
	hammer()
	twin.settled() // the twin serves no read that would wait for its last batch
	if planned == 0 {
		t.Fatal("no plan named a victim; the isolation check ran on empty plans")
	}
	requireSameReports(t, "plan isolation", d.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "plan isolation", d, ref)
	got, want := dObs.Registry().Snapshot().Counters, twinObs.Registry().Snapshot().Counters
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("counters of the daemon serving plans diverge from its twin's:\n got %+v\nwant %+v", got, want)
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestIngestAllocations bounds what one 256-event ingest allocates,
// through the HTTP handler and both ingest stages: the body lands in
// one buffer sized from its Content-Length, and the WAL stage encodes
// every WAL record into one reused buffer and hands the apply stage
// one copy of the group. The one allocation left per event
// is the path string ParseEvent copies out of the body, and the bytes
// stay under six times the body's size (5.0 here, 0.7 of it the apply
// stage's copy of the group; reading the body with io.ReadAll and
// encoding each event into a fresh row took 9.7).
func TestIngestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds hold without the race detector")
	}
	const events, runs = 256, 20
	d := newDaemon(t, tinyDataset(), baseConfig(t))
	defer d.Close()
	h := d.Handler()
	// Every run ingests accesses to one snapshot file, each a second
	// after the last: no trigger fires, so no purge or checkpoint runs.
	reqs := make([]*http.Request, runs+1) // AllocsPerRun warms up once
	ts := snapAt.Add(timeutil.Hour)
	bodyLen := 0
	for r := range reqs {
		evs := make([]Event, events)
		for i := range evs {
			evs[i] = Event{TS: ts, User: 0, Op: OpAccess, Size: 1 << 30, Path: "/lustre/atlas/busy/old/data.dat"}
			ts++
		}
		body := feedLines(t, d, evs)
		bodyLen = len(body)
		reqs[r] = httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body))
	}
	next := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, reqs[next])
		next++
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
		}
		d.settled() // the apply stage's work is the ingest's too
	})
	runtime.ReadMemStats(&after)
	allocBytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("one %d-event ingest (%d-byte body): %.0f allocations, %.0f bytes", events, bodyLen, allocs, allocBytes)
	if allocs > events+64 {
		t.Errorf("one %d-event ingest allocates %.0f times, want at most %d: one path per event and a fixed overhead",
			events, allocs, events+64)
	}
	if allocBytes > 6*float64(bodyLen) {
		t.Errorf("one %d-event ingest allocates %.0f bytes, want at most 6× its %d-byte body", events, allocBytes, bodyLen)
	}
}

// TestIngestRefusesOversizedBody pins the ingest body cap on both read
// paths: a body whose Content-Length passes maxIngestBody is refused
// unread, and one sent without a length is refused once the read
// passes the cap. Both get 413.
func TestIngestRefusesOversizedBody(t *testing.T) {
	d := newDaemon(t, tinyDataset(), baseConfig(t))
	defer d.Close()
	h := d.Handler()
	body := strings.Repeat("#\n", maxIngestBody/2+1) // comments only
	for _, declared := range []bool{true, false} {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body))
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "exceeds") {
			t.Errorf("declared length %t: ingest = %d %s, want 413", declared, rec.Code, rec.Body)
		}
	}
}
