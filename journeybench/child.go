package main

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"activedr/internal/obs"
	"activedr/internal/sim"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// sample is what one child process reports to the parent. ReplayS runs
// from ready until the whole access log is applied: the batch replay,
// or the daemon's acknowledged ingest.
type sample struct {
	SetupS    float64                `json:"setup_s"`
	ReplayS   float64                `json:"replay_s"`
	WallS     float64                `json:"wall_s"`
	Queries   []queryResult          `json:"queries,omitempty"`
	Lanes     map[string]Fingerprint `json:"lanes,omitempty"`
	Layer     map[string]float64     `json:"layer"`
	Spans     []Span                 `json:"spans,omitempty"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	// RSSMB is the child's peak resident set. Dataset is the index of
	// the dataset it ran on and Events its access-log length, filled in
	// by the parent.
	RSSMB   float64 `json:"rss_mb"`
	Dataset int     `json:"dataset"`
	Events  int     `json:"events"`
}

// child is one sample's process-wide state.
type child struct {
	workload string
	in       *inputs
	seed     uint64
	traced   bool
	stateDir string // parent of the daemon's per-pass WAL and checkpoint dirs
	rec      *recorder
	s        *sample
	// observers are the registry-only Observers attached to the
	// sample's replays (traced batch samples and every daemon pass).
	observers []*obs.Observer
}

// journeys maps each workload to the function one sample runs.
var journeys = map[string]func(*child) error{
	wlSweep4:  runSweep4,
	wlCompare: runCompareSnap,
	wlDaemon:  runDaemonFeed,
}

// childMain runs one sample (or, with -floors, the standalone layer
// floors) and writes the sample as JSON to stdout.
func childMain(args []string) error {
	fs := flag.NewFlagSet("journeybench child", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	dir := fs.String("dir", "", "generated inputs directory")
	seed := fs.Uint64("seed", 0, "workload seed")
	id := fs.Int("sample", 0, "sample number")
	traced := fs.Bool("traced", false, "record fine-grained spans and attach an obs.Observer")
	floors := fs.Bool("floors", false, "measure the standalone layer floors instead of a journey")
	state := fs.String("state", "", "directory for the daemon's WAL and checkpoints")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := &child{workload: *workload, in: &inputs{Dir: *dir}, seed: *seed, traced: *traced,
		stateDir: *state, rec: newRecorder(*id), s: &sample{Lanes: map[string]Fingerprint{}, Layer: map[string]float64{}}}
	journey, ok := journeys[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	var err error
	if *floors {
		err = c.measureFloors()
	} else {
		err = journey(c)
		c.s.WallS = c.rec.total("sample").Seconds()
	}
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.s.Layer["go.alloc_mb"] = float64(ms.TotalAlloc) / 1e6
	c.s.Layer["go.mallocs"] = float64(ms.Mallocs)
	c.s.Layer["go.gc_cycles"] = float64(ms.NumGC)
	c.s.Layer["io.write_mb"] = float64(writtenBytes()) / 1e6
	c.s.RSSMB = peakRSSMB()
	if c.traced {
		c.s.Spans = c.rec.spans
	}
	return json.NewEncoder(os.Stdout).Encode(c.s)
}

// layer times fn as a span and, when metric is set, records the span's
// duration in seconds as that per-layer metric.
func (c *child) layer(span, metric string, fn func() error) error {
	d, err := c.rec.time(span, "", fn)
	if metric != "" {
		c.s.Layer[metric] += d.Seconds()
	}
	return err
}

// noteLoad records what set-up loaded.
func (c *child) noteLoad(ds *trace.Dataset, files int) {
	c.s.Layer["trace.rows"] = float64(len(ds.Users) + len(ds.Jobs) + len(ds.Accesses) +
		len(ds.Publications) + len(ds.Snapshot.Entries))
	c.s.Layer["vfs.files"] = float64(files)
}

// fail records one failed operation.
func (c *child) fail(format string, args ...any) {
	c.s.Failed++
	if len(c.s.Errors) < 20 {
		c.s.Errors = append(c.s.Errors, fmt.Sprintf(format, args...))
	}
}

// observer returns a registry-only Observer (no event stream), the
// instrumentation activedrd always runs with.
func (c *child) observer() *obs.Observer {
	o, err := obs.NewObserver(obs.NewRegistry(), nil, 0)
	if err != nil {
		panic(err) // audit sample 0 is always valid
	}
	c.observers = append(c.observers, o)
	return o
}

// phase returns the accumulated time of one obs phase.
func phase(o *obs.Observer, name string) time.Duration {
	for _, p := range o.Phases() {
		if p.Name == name {
			return time.Duration(p.Seconds * float64(time.Second))
		}
	}
	return 0
}

func phaseSum(obsv []*obs.Observer, name string) time.Duration {
	var d time.Duration
	for _, o := range obsv {
		d += phase(o, name)
	}
	return d
}

// counter reads one registry counter summed over observers.
func counter(obsv []*obs.Observer, name string) float64 {
	var n int64
	for _, o := range obsv {
		n += o.Registry().Counter(name).Value()
	}
	return float64(n)
}

// noteObserved records the per-layer counts and phase totals the
// observers collected.
func (c *child) noteObserved() {
	ob, l := c.observers, c.s.Layer
	l["vfs.touches"] = counter(ob, obs.MetricVFSTouches)
	l["vfs.inserts"] = counter(ob, obs.MetricVFSInserts)
	l["vfs.stale_queries"] = counter(ob, obs.MetricVFSStaleQueries)
	l["sim.triggers"] = counter(ob, obs.MetricTriggers)
	l["sim.accesses"] = counter(ob, obs.MetricAccesses)
	l["sim.misses"] = counter(ob, obs.MetricMisses)
	l["sim.checkpoints"] = counter(ob, obs.MetricCheckpoints)
	if n := l["sim.checkpoints"]; n > 0 {
		l["sim.checkpoint_s"] = phaseSum(ob, "checkpoint").Seconds() / n
	}
	l["retention.purge_s"] = phaseSum(ob, "purge").Seconds()
	l["retention.examined"] = counter(ob, obs.MetricPurgeExamined)
	l["retention.purged_files"] = counter(ob, obs.MetricPurgedFiles)
	if ex := l["retention.examined"]; ex > 0 {
		l["retention.select_yield"] = l["retention.purged_files"] / ex
	}
}

// measureFloors times, standalone on the workload's inputs, the layer
// calls a sample cannot time on their own: inflating the gzip inputs
// into io.Discard (the floor under TSV decode), ranking every user at
// each trigger of the replay's grid with one Cursors walk (which every
// replay driver does inside its loop), building the initial namespace
// and the emulator (which daemon.New does inside), and, for the batch
// journeys, which run no daemon, writing one full checkpoint and
// sending the read mix to an idle daemon. Where a journey times the
// same call itself, its own figure is reported instead.
func (c *child) measureFloors() error {
	files := []string{trace.UsersFile, trace.JobsFile, trace.AccessesFile, trace.PubsFile}
	if c.workload != wlCompare {
		files = append(files, trace.SnapshotFile)
	}
	var raw int64
	t := time.Now()
	for _, name := range files {
		n, err := inflate(filepath.Join(c.in.dataDir(), name))
		if err != nil {
			return err
		}
		raw += n
	}
	c.s.Layer["trace.inflate_floor_s"] = time.Since(t).Seconds()
	c.s.Layer["trace.raw_mb"] = float64(raw) / 1e6

	ds, _, err := trace.LoadDatasetWith(c.in.dataDir(), trace.ReadOptions{SkipSnapshot: c.workload == wlCompare})
	if err != nil {
		return err
	}
	var base *vfs.FS
	t = time.Now()
	if c.workload == wlCompare {
		sf, err := vfs.OpenSnapfile(c.in.snapfile())
		if err != nil {
			return err
		}
		base, err = vfs.LoadSnapfileFS(sf)
		if cerr := sf.Close(); err == nil {
			err = cerr
		}
		ds.Snapshot.Taken = sf.Taken()
	} else {
		base, err = vfs.FromSnapshot(&ds.Snapshot)
	}
	if err != nil {
		return err
	}
	c.s.Layer["vfs.base_s"] = time.Since(t).Seconds()
	t = time.Now()
	em, err := sim.NewWithBase(ds, base, simConfig(90))
	if err != nil {
		return err
	}
	c.s.Layer["sim.new_s"] = time.Since(t).Seconds()

	adr, err := em.NewActiveDR()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.stateDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	stream := em.NewStream(adr, sim.RunOptions{CheckpointDir: dir})
	t = time.Now()
	if err := stream.Checkpoint(ds.Snapshot.Taken); err != nil {
		return err
	}
	c.s.Layer["sim.checkpoint_s"] = time.Since(t).Seconds()

	cur := em.Evaluator().NewCursors()
	end := ds.Accesses[len(ds.Accesses)-1].TS
	calls := 0
	t = time.Now()
	for at := ds.Snapshot.Taken; at <= end; at = at.Add(em.Config().TriggerInterval) {
		cur.EvaluateAll(len(ds.Users), at)
		calls++
	}
	c.s.Layer["activeness.rank_s"] = time.Since(t).Seconds()
	c.s.Layer["activeness.rank_calls"] = float64(calls)

	if c.workload == wlDaemon {
		return nil
	}
	if c.workload == wlCompare { // the daemon builds its namespace from the snapshot TSV
		if ds, _, err = trace.LoadDatasetWith(c.in.dataDir(), trace.ReadOptions{}); err != nil {
			return err
		}
	}
	return c.idleReads(ds)
}

// inflate reads path through gzip (plain files as they are) into
// io.Discard and returns the decoded byte count.
func inflate(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	n, err := io.Copy(io.Discard, r)
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
