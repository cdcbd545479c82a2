package daemon

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/wal"
)

var (
	snapAt = timeutil.Date(2015, time.December, 26)
	repEnd = timeutil.Date(2017, time.January, 1)
)

// tinyDataset mirrors the sim package's deterministic fixture: a busy
// user with weekly jobs and outputs, and a gone user holding parked
// bytes that cover the purge target.
func tinyDataset() *trace.Dataset {
	users := []trace.User{
		{ID: 0, Name: "busy", Created: timeutil.Date(2015, time.June, 1)},
		{ID: 1, Name: "gone", Created: timeutil.Date(2015, time.January, 1)},
	}
	var jobs []trace.Job
	for w, t := 0, timeutil.Date(2015, time.June, 1); t < repEnd; w, t = w+1, t.Add(timeutil.Week) {
		jobs = append(jobs, trace.Job{
			User: 0, Submit: t, Duration: 2 * timeutil.Hour, Cores: 16 + w,
		})
	}
	var accs []trace.Access
	for t := snapAt; t < repEnd; t = t.Add(timeutil.Week) {
		accs = append(accs, trace.Access{TS: t.Add(timeutil.Hour), User: 0, Create: true, Size: 1 << 20,
			Path: "/lustre/atlas/busy/run/" + t.DateString() + ".dat"})
	}
	accs = append(accs, trace.Access{TS: timeutil.Date(2016, time.May, 1), User: 0, Create: false,
		Size: 1 << 30, Path: "/lustre/atlas/busy/old/data.dat"})
	snapshot := trace.Snapshot{
		Taken: snapAt,
		Entries: []trace.SnapshotEntry{
			{Path: "/lustre/atlas/busy/old/data.dat", User: 0, Size: 1 << 30, Stripes: 4, ATime: snapAt.Add(-timeutil.Days(10))},
			{Path: "/lustre/atlas/gone/park1.dat", User: 1, Size: 4 << 30, Stripes: 4, ATime: snapAt.Add(-timeutil.Days(85))},
			{Path: "/lustre/atlas/gone/park2.dat", User: 1, Size: 4 << 30, Stripes: 4, ATime: snapAt.Add(-timeutil.Days(85))},
		},
	}
	d := &trace.Dataset{Users: users, Jobs: jobs, Accesses: accs, Publications: nil, Snapshot: snapshot}
	d.SortAccesses()
	return d
}

func simCfg() sim.Config { return sim.Config{TargetUtilization: 0.5} }

// accessEvents converts the dataset's replay log into the daemon's
// event feed, one event per access.
func accessEvents(ds *trace.Dataset) []Event {
	evs := make([]Event, len(ds.Accesses))
	for i := range ds.Accesses {
		evs[i] = AccessEvent(&ds.Accesses[i])
	}
	return evs
}

// newDaemon builds a daemon over fresh temp dirs (or the given dirs).
func newDaemon(t *testing.T, ds *trace.Dataset, cfg Config) *Daemon {
	t.Helper()
	d, err := New(ds, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func baseConfig(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		WALDir:        filepath.Join(dir, "wal"),
		CheckpointDir: filepath.Join(dir, "ckpt"),
		Sim:           simCfg(),
	}
}

// ingestAll feeds events through Ingest in fixed-size batches, then
// waits, as a read does, until the acknowledged events are applied:
// the caller may read d.stream.
func ingestAll(t *testing.T, d *Daemon, evs []Event, batch int) {
	t.Helper()
	for i := 0; i < len(evs); i += batch {
		end := min(i+batch, len(evs))
		if err := d.Ingest(evs[i:end]); err != nil {
			t.Fatalf("Ingest[%d:%d]: %v", i, end, err)
		}
	}
	d.settled()
}

// waitCheckpoints waits, as the apply stage would, until every
// checkpoint write the daemon has in flight has published, so LATEST
// and lastCkpt are settled. Call it between Ingests.
func waitCheckpoints(t *testing.T, d *Daemon) {
	t.Helper()
	d.settled()
	d.mu.Lock()
	err := d.stream.Wait()
	d.mu.Unlock()
	if err != nil {
		t.Fatalf("checkpoint writes: %v", err)
	}
}

// strippedReports deep-copies the purge reports with wall-clock
// fields zeroed, so "bit-identical" can be asserted byte-for-byte.
func strippedReports(reps []*retention.Report) []retention.Report {
	out := make([]retention.Report, len(reps))
	for i, r := range reps {
		c := *r
		c.Elapsed = 0
		out[i] = c
	}
	return out
}

// requireSameReports asserts two purge-report sequences are
// bit-identical (JSON round-trip catches every exported field).
func requireSameReports(t *testing.T, label string, got, want []*retention.Report) {
	t.Helper()
	g, err := json.Marshal(strippedReports(got))
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(strippedReports(want))
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s: purge reports diverge\n got %d reports: %.400s\nwant %d reports: %.400s",
			label, len(got), g, len(want), w)
	}
}

// requireSameFS asserts two file-system states hold identical trees.
func requireSameFS(t *testing.T, label string, d *Daemon, want *sim.Result) {
	t.Helper()
	at := repEnd
	got := d.stream.FS().Snapshot(at)
	ref := want.Final.Snapshot(at)
	if !reflect.DeepEqual(got.Entries, ref.Entries) {
		t.Fatalf("%s: final file systems diverge: %d vs %d entries",
			label, len(got.Entries), len(ref.Entries))
	}
}

func batchReference(t *testing.T, ds *trace.Dataset, fc *faults.Config) *sim.Result {
	t.Helper()
	em, err := sim.New(ds, simCfg())
	if err != nil {
		t.Fatal(err)
	}
	policy, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	var opts sim.RunOptions
	if fc != nil {
		opts.Faults = faults.New(*fc)
	}
	res, err := em.RunWith(policy, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDaemonMatchesBatchReplay is the robustness headline: the daemon
// fed an event stream — through the bounded queue, the WAL stage and
// the apply stage — emits purge plans bit-identical to a batch replay
// of the same stream.
func TestDaemonMatchesBatchReplay(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)

	cases := []struct {
		name      string
		simFaults *faults.Config
		walFaults *faults.Config
	}{
		{name: "clean"},
		// Purge-level faults draw from the replay injector; the
		// daemon's must stay in lockstep with the batch run's.
		{name: "with purge faults", simFaults: &faults.Config{Seed: 42, UnlinkFailProb: 0.3, ScanInterruptProb: 0.1}},
		// Transient WAL write failures retry on the SEPARATE
		// write-path injector and must not perturb the replay stream.
		{name: "with transient wal faults",
			simFaults: &faults.Config{Seed: 42, UnlinkFailProb: 0.3},
			walFaults: &faults.Config{Seed: 7, WriteFailProb: 0.2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := batchReference(t, ds, tc.simFaults)

			cfg := baseConfig(t)
			cfg.CheckpointEvery = 5
			cfg.Sleep = func(time.Duration) {} // retries need no real waiting
			if tc.simFaults != nil {
				cfg.Faults = faults.New(*tc.simFaults)
			}
			if tc.walFaults != nil {
				cfg.WALFaults = faults.New(*tc.walFaults)
			}
			d := newDaemon(t, tinyDataset(), cfg)
			ingestAll(t, d, evs, 7)

			res := d.stream.Result()
			requireSameReports(t, tc.name, res.Reports, ref.Reports)
			if res.TotalMisses != ref.TotalMisses || res.TotalAccesses != ref.TotalAccesses {
				t.Fatalf("misses/accesses = %d/%d, want %d/%d",
					res.TotalMisses, res.TotalAccesses, ref.TotalMisses, ref.TotalAccesses)
			}
			requireSameFS(t, tc.name, d, ref)
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestDaemonUnlinkEvents checks the feed's third verb: unlinks remove
// files without counting misses, and the daemon stays equivalent to a
// direct stream replay of the same mixed feed.
func TestDaemonUnlinkEvents(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	// Splice in unlinks: gone deletes one parked file early (before
	// retention would purge it), and one unlink targets a path that
	// never existed.
	mixed := make([]Event, 0, len(evs)+2)
	mixed = append(mixed, evs[0])
	mixed = append(mixed,
		Event{TS: evs[0].TS.Add(timeutil.Hour), User: 1, Op: OpUnlink, Path: "/lustre/atlas/gone/park2.dat"},
		Event{TS: evs[0].TS.Add(2 * timeutil.Hour), User: 1, Op: OpUnlink, Path: "/lustre/atlas/gone/never-existed.dat"},
	)
	mixed = append(mixed, evs[1:]...)

	// Reference: the same mixed feed applied straight to a stream.
	em, err := sim.New(tinyDataset(), simCfg())
	if err != nil {
		t.Fatal(err)
	}
	policy, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	st := em.NewStream(policy, sim.RunOptions{})
	for i := range mixed {
		ev := &mixed[i]
		if ev.Op == OpUnlink {
			ok, err := st.Unlink(ev.Path, ev.TS)
			if err != nil {
				t.Fatal(err)
			}
			if want := ev.Path != "/lustre/atlas/gone/never-existed.dat"; ok != want {
				t.Fatalf("stream unlink %q existed=%v, want %v", ev.Path, ok, want)
			}
			continue
		}
		a := trace.Access{TS: ev.TS, User: ev.User, Create: ev.Op == OpCreate, Size: ev.Size, Path: ev.Path}
		if err := st.Apply(&a); err != nil {
			t.Fatal(err)
		}
	}

	d := newDaemon(t, tinyDataset(), baseConfig(t))
	defer d.Close()
	ingestAll(t, d, mixed, 9)

	requireSameReports(t, "unlink feed", d.stream.Result().Reports, st.Result().Reports)
	if got, want := d.stream.FS().Count(), st.FS().Count(); got != want {
		t.Fatalf("final file count = %d, want %d", got, want)
	}
	if d.stream.Result().TotalMisses != st.Result().TotalMisses {
		t.Fatalf("misses diverge: %d vs %d", d.stream.Result().TotalMisses, st.Result().TotalMisses)
	}
	// The deleted parked file must be gone and never restored.
	if _, ok := d.stream.FS().Lookup("/lustre/atlas/gone/park2.dat"); ok {
		t.Fatal("unlinked file still present")
	}
}

// TestCloseDrainAndRestart is the graceful-SIGTERM path: Close drains,
// checkpoints, and a restarted daemon continues mid-stream to the
// exact batch-replay result.
func TestCloseDrainAndRestart(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)
	half := len(evs) / 2

	cfg := baseConfig(t)
	cfg.CheckpointEvery = 1000 // force the drain checkpoint to matter
	d1 := newDaemon(t, tinyDataset(), cfg)
	ingestAll(t, d1, evs[:half], 7)
	applied := d1.stream.Applied()
	if err := d1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d1.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := d1.Ingest(evs[half:]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}

	d2 := newDaemon(t, tinyDataset(), cfg)
	defer d2.Close()
	if d2.stream.Applied() != applied {
		t.Fatalf("restart Applied = %d, want %d", d2.stream.Applied(), applied)
	}
	if d2.recovered != 0 {
		t.Fatalf("graceful restart replayed %d WAL records, want 0 (drain checkpointed)", d2.recovered)
	}
	ingestAll(t, d2, evs[half:], 7)
	requireSameReports(t, "restart", d2.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "restart", d2, ref)
}

// TestDrainCheckpointPublishesFreshName: the drain checkpoint Close
// takes under a trigger count that already has a checkpoint publishes
// under a new name, so the checkpoint LATEST named survives until its
// replacement lands, and a restart replays no WAL record.
func TestDrainCheckpointPublishesFreshName(t *testing.T) {
	evs := accessEvents(tinyDataset())
	cfg := baseConfig(t)
	d1 := newDaemon(t, tinyDataset(), cfg)
	ingestAll(t, d1, evs[:10], 10)
	waitCheckpoints(t, d1)
	if d1.lastCkpt == 0 || d1.lastCkpt >= d1.stream.Applied() {
		t.Fatalf("fixture: last trigger checkpoint at event %d of %d, want events after it", d1.lastCkpt, d1.stream.Applied())
	}
	triggerCkpt := latestName(t, cfg.CheckpointDir)
	if err := d1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	drain := latestName(t, cfg.CheckpointDir)
	if drain <= triggerCkpt {
		t.Fatalf("drain checkpoint published as %q, want a name after the trigger checkpoint's %q", drain, triggerCkpt)
	}
	if _, err := os.Stat(filepath.Join(cfg.CheckpointDir, triggerCkpt)); err != nil {
		t.Fatalf("trigger checkpoint gone after the drain: %v", err)
	}

	d2 := newDaemon(t, tinyDataset(), cfg)
	defer d2.Close()
	if d2.stream.Applied() != 10 || d2.recovered != 0 {
		t.Fatalf("restart: Applied = %d, recovered = %d; want 10 and 0", d2.stream.Applied(), d2.recovered)
	}
}

// TestDiskFullDegrades drives the daemon into degraded read-only mode
// via the disk-pressure fault and checks a restarted daemon picks up
// every durable event.
func TestDiskFullDegrades(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)

	cfg := baseConfig(t)
	cfg.WALFaults = faults.New(faults.Config{Seed: 1, DiskFullAfterBytes: 700})
	d1 := newDaemon(t, tinyDataset(), cfg)
	var degradedAt int
	var ingestErr error
	for i := range evs {
		if ingestErr = d1.Ingest(evs[i : i+1]); ingestErr != nil {
			degradedAt = i
			break
		}
	}
	if !errors.Is(ingestErr, ErrDegraded) {
		t.Fatalf("ingest error = %v, want ErrDegraded", ingestErr)
	}
	if degradedAt == 0 {
		t.Fatal("no event was accepted before the disk filled")
	}
	// Degraded is sticky for writes; reads still work.
	if err := d1.Ingest(evs[degradedAt : degradedAt+1]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ingest while degraded = %v, want ErrDegraded", err)
	}
	if d1.stream.FS().Count() == 0 {
		t.Fatal("reads should survive degraded mode")
	}
	durable := d1.stream.Applied()
	if err := d1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cfg2 := cfg
	cfg2.WALFaults = nil
	d2 := newDaemon(t, tinyDataset(), cfg2)
	defer d2.Close()
	if d2.stream.Applied() != durable {
		t.Fatalf("restart Applied = %d, want %d", d2.stream.Applied(), durable)
	}
	// The feeder resends from the last acknowledged event and the run
	// completes to the batch-replay result.
	ingestAll(t, d2, evs[durable:], 7)
	ref := batchReference(t, ds, nil)
	requireSameReports(t, "disk-full restart", d2.stream.Result().Reports, ref.Reports)
}

// TestFailedCheckpointWriteDegrades swaps the checkpoint directory for
// a regular file mid-feed. The background write that then fails must
// degrade the daemon with a reason naming that checkpoint, not an
// event; nothing may publish after it, not even once the directory is
// back; the WAL must keep every event after the last published
// checkpoint; and a restart over the restored directory must
// reconverge to the batch replay.
func TestFailedCheckpointWriteDegrades(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)
	half := len(evs) / 2

	cfg := baseConfig(t)
	d1 := newDaemon(t, tinyDataset(), cfg)
	ingestAll(t, d1, evs[:half], 7)
	waitCheckpoints(t, d1)
	published := latestName(t, cfg.CheckpointDir)
	moved := cfg.CheckpointDir + ".moved"
	if err := os.Rename(cfg.CheckpointDir, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.CheckpointDir, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	acked := half
	var ingestErr error
	for acked < len(evs) {
		end := min(acked+7, len(evs))
		if ingestErr = d1.Ingest(evs[acked:end]); ingestErr != nil {
			break
		}
		acked = end
	}
	if ingestErr == nil {
		// The feed ran out before an Ingest saw the failure: the batch
		// that carried it was acknowledged at durability, and the
		// daemon degrades as the apply stage reaches it.
		d1.settled()
		ingestErr = d1.Ingest(evs[len(evs)-1:])
	}
	if !errors.Is(ingestErr, ErrDegraded) {
		t.Fatalf("ingest with the checkpoint directory gone = %v, want ErrDegraded", ingestErr)
	}
	st := d1.status()
	failed, _, ok := strings.Cut(strings.TrimPrefix(st.Reason, "checkpoint "), ":")
	if !strings.HasPrefix(st.Reason, "checkpoint t") || !ok || failed <= published {
		t.Fatalf("degraded with reason %q, want it to name a checkpoint after %s", st.Reason, published)
	}
	if st.State != "degraded" {
		t.Fatalf("state %q after a failed checkpoint write, want degraded", st.State)
	}

	// Put the directory back while the daemon is still up: a write
	// queued behind the failed one, or a drain checkpoint at Close,
	// would now succeed, and must not happen.
	if err := os.Remove(cfg.CheckpointDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(moved, cfg.CheckpointDir); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := latestName(t, cfg.CheckpointDir); got != published {
		t.Fatalf("LATEST = %s after the failure, want %s", got, published)
	}
	ents, err := os.ReadDir(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() && ent.Name() > published {
			t.Fatalf("%s appeared after the failed write", ent.Name())
		}
	}

	blob, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, published, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cs struct{ Cursor int }
	if err := json.Unmarshal(blob, &cs); err != nil {
		t.Fatal(err)
	}
	log, info, err := wal.Open(cfg.WALDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if info.FirstSeq > uint64(cs.Cursor)+1 || info.LastSeq < uint64(acked) {
		t.Fatalf("WAL holds events %d..%d, want every event from %d through at least %d",
			info.FirstSeq, info.LastSeq, cs.Cursor+1, acked)
	}

	d2 := newDaemon(t, tinyDataset(), cfg)
	defer d2.Close()
	if d2.stream.Applied() < acked {
		t.Fatalf("restart recovered %d events, %d were acknowledged", d2.stream.Applied(), acked)
	}
	ingestAll(t, d2, evs[d2.stream.Applied():], 7)
	requireSameReports(t, "restart after a failed checkpoint", d2.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "restart after a failed checkpoint", d2, ref)
}

// TestBackpressureAndRetryExhaustion wedges the WAL stage in a retry
// sleep, fills the bounded queue, and checks (a) overflow is an
// immediate ErrBackpressure, and (b) retry exhaustion degrades the
// daemon rather than dropping acknowledged events.
func TestBackpressureAndRetryExhaustion(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)

	sleeping := make(chan struct{}, 16)
	release := make(chan struct{})
	cfg := baseConfig(t)
	cfg.QueueDepth = 1
	cfg.RetryAttempts = 3
	cfg.WALFaults = faults.New(faults.Config{Seed: 5, WriteFailProb: 1}) // every attempt fails
	cfg.Sleep = func(time.Duration) {
		sleeping <- struct{}{}
		<-release
	}
	d := newDaemon(t, tinyDataset(), cfg)
	defer d.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); errs[0] = d.Ingest(evs[0:1]) }()
	<-sleeping // the WAL stage owns batch 1 and is wedged in backoff

	wg.Add(1)
	go func() { defer wg.Done(); errs[1] = d.Ingest(evs[1:2]) }()
	// Wait until batch 2 occupies the queue's single slot.
	for len(d.queue) == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := d.Ingest(evs[2:3]); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflow ingest = %v, want ErrBackpressure", err)
	}
	close(release)
	wg.Wait()
	if !errors.Is(errs[0], ErrDegraded) {
		t.Fatalf("wedged batch error = %v, want ErrDegraded (retries exhausted)", errs[0])
	}
	if !errors.Is(errs[1], ErrDegraded) {
		t.Fatalf("queued batch error = %v, want ErrDegraded", errs[1])
	}
	if n := d.Applied(); n != 0 {
		t.Fatalf("failed writes must not apply: Applied = %d", n)
	}
}

// TestNewValidation covers constructor fail-fast paths.
func TestNewValidation(t *testing.T) {
	ds := tinyDataset()
	t.Run("missing dirs", func(t *testing.T) {
		if _, err := New(ds, Config{Sim: simCfg()}); err == nil {
			t.Fatal("want error for missing WALDir/CheckpointDir")
		}
	})
	t.Run("unknown policy", func(t *testing.T) {
		cfg := baseConfig(t)
		cfg.Policy = "lru"
		if _, err := New(ds, cfg); err == nil {
			t.Fatal("want error for unknown policy")
		}
	})
	t.Run("wal gap is corruption", func(t *testing.T) {
		// Build a WAL whose first record is past the checkpoint's
		// cursor: recovery must refuse (events lost), not silently
		// skip ahead.
		cfg := baseConfig(t)
		cfg.CheckpointEvery = 1000 // no checkpoint: cursor stays 0
		cfg.SegmentBytes = 64      // one record per segment, prunable
		d := newDaemon(t, tinyDataset(), cfg)
		ingestAll(t, d, accessEvents(ds)[:12], 4)
		if err := d.log.Prune(8); err != nil { // drop records the (absent) checkpoint never covered
			t.Fatal(err)
		}
		// Abandon without the drain checkpoint, as a crash would.
		d.die(stateKilled, "test abandon")
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		_, err := New(tinyDataset(), cfg)
		if err == nil || !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("gap recovery error = %v, want wal.ErrCorrupt (events lost)", err)
		}
	})
}

// TestFlagLikeDefaults pins the config defaulting the CLI depends on.
func TestFlagLikeDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Policy != "activedr" || c.QueueDepth != 64 || c.SyncEvery != 256 ||
		c.CheckpointEvery != 1 || c.RetryAttempts != 5 || c.Sleep == nil {
		t.Fatalf("defaults = %+v", c)
	}
}

// copyDir clones a directory tree (WAL + checkpoint state) so chaos
// runs can branch from the same crash image.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copyDir %s: %v", src, err)
	}
}

// TestEmptyWALContinuesCheckpointSequence restarts a daemon over its
// checkpoints with the WAL directory gone. The new log must number its
// events after the checkpoint's cursor: numbered from 1, the next
// recovery would skip them as already covered and lose acknowledged
// events.
func TestEmptyWALContinuesCheckpointSequence(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)

	cfg := baseConfig(t)
	cfg.CheckpointEvery = 1000 // only drain checkpoints: recovery leans on the WAL
	d1 := newDaemon(t, tinyDataset(), cfg)
	ingestAll(t, d1, evs[:40], 10)
	if err := d1.Close(); err != nil { // drain checkpoint at event 40
		t.Fatal(err)
	}
	if err := os.RemoveAll(cfg.WALDir); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.WALFaults = faults.New(faults.Config{Seed: 1, KillSpec: KillWALSynced + ":2"})
	d2 := newDaemon(t, tinyDataset(), cfg2)
	if got := d2.log.LastSeq(); got != 40 {
		t.Fatalf("empty WAL resumes after sequence %d, want 40", got)
	}
	if err := d2.Ingest(evs[40:45]); err != nil {
		t.Fatal(err)
	}
	if err := d2.Ingest(evs[45:50]); !errors.Is(err, ErrKilled) {
		t.Fatalf("second batch = %v, want ErrKilled after its fsync", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3 := newDaemon(t, tinyDataset(), cfg)
	defer d3.Close()
	if got := d3.stream.Applied(); got != 50 {
		t.Fatalf("restart holds %d events, want the 50 fsynced (45 of them acknowledged)", got)
	}
	ingestAll(t, d3, evs[50:], 7)
	requireSameReports(t, "empty WAL", d3.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "empty WAL", d3, ref)
}

// TestWALBehindCheckpointIsCorruption: a non-empty WAL that ends
// before the checkpoint's cursor cannot come from a crash once every
// event is fsynced before it is applied. Recovery refuses it instead
// of numbering new events inside the checkpoint's range.
func TestWALBehindCheckpointIsCorruption(t *testing.T) {
	evs := accessEvents(tinyDataset())
	cfg := baseConfig(t)
	d1 := newDaemon(t, tinyDataset(), cfg)
	ingestAll(t, d1, evs[:10], 10)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	// Replace the WAL with one holding only events 1..5.
	if err := os.RemoveAll(cfg.WALDir); err != nil {
		t.Fatal(err)
	}
	log, _, err := wal.Open(cfg.WALDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs[:5] {
		payload, err := evs[i].Encode(tinyDataset().Users)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(tinyDataset(), cfg)
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "event 10") ||
		!strings.Contains(err.Error(), "ends at 5") {
		t.Fatalf("recovery over a short WAL = %v, want wal.ErrCorrupt naming events 10 and 5", err)
	}
}

// TestSyncCountsFsyncs: one batch of exactly SyncEvery events is one
// group commit, so the sync counter reads 1.
func TestSyncCountsFsyncs(t *testing.T) {
	ds := tinyDataset()
	o, err := obs.NewObserver(obs.NewRegistry(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	cfg.Obs = o
	d := newDaemon(t, ds, cfg)
	defer d.Close()
	// 256 touches of the same file, the default SyncEvery.
	evs := make([]Event, 256)
	for i := range evs {
		evs[i] = Event{TS: snapAt.Add(timeutil.Duration(i)), User: 0, Op: OpAccess, Size: 1,
			Path: "/lustre/atlas/busy/old/data.dat"}
	}
	if err := d.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	if got := o.Registry().Counter("daemon_wal_syncs_total").Value(); got != 1 {
		t.Fatalf("daemon_wal_syncs_total = %d after one %d-event batch, want 1", got, len(evs))
	}
	if got := o.Registry().Counter("daemon_wal_records_total").Value(); got != 256 {
		t.Fatalf("daemon_wal_records_total = %d, want 256", got)
	}
}
