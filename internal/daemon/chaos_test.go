package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"activedr/internal/faults"
	"activedr/internal/randx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// crashImage is a daemon's on-disk state (WAL + checkpoints) frozen
// at a simulated process death, ready to be branched per chaos run.
type crashImage struct {
	walDir, ckptDir string
	applied         int // events durable at the crash
}

// branch clones the image into fresh dirs so each chaos run recovers
// from the identical crash state.
func (im crashImage) branch(t *testing.T) (walDir, ckptDir string) {
	t.Helper()
	dir := t.TempDir()
	walDir = filepath.Join(dir, "wal")
	ckptDir = filepath.Join(dir, "ckpt")
	copyDir(t, im.walDir, walDir)
	copyDir(t, im.ckptDir, ckptDir)
	return walDir, ckptDir
}

// makeCrashImage runs a daemon over the full feed and kills it (via
// the post-fsync kill point) on the final batch, leaving a WAL whose
// tail extends well past the last checkpoint.
func makeCrashImage(t *testing.T, batch, ckptEvery int) crashImage {
	t.Helper()
	ds := tinyDataset()
	evs := accessEvents(ds)
	nBatches := (len(evs) + batch - 1) / batch

	cfg := baseConfig(t)
	cfg.CheckpointEvery = ckptEvery
	cfg.WALFaults = faults.New(faults.Config{
		Seed:     1,
		KillSpec: fmt.Sprintf("%s:%d", KillWALSynced, nBatches),
	})
	d := newDaemon(t, tinyDataset(), cfg)
	var killed error
	for i := 0; i < len(evs); i += batch {
		end := min(i+batch, len(evs))
		if err := d.Ingest(evs[i:end]); err != nil {
			killed = err
			if end != len(evs) {
				t.Fatalf("killed on batch [%d:%d], want the final batch", i, end)
			}
		}
	}
	if !errors.Is(killed, ErrKilled) {
		t.Fatalf("final batch error = %v, want ErrKilled", killed)
	}
	applied := d.stream.Applied()
	if applied != len(evs) {
		t.Fatalf("kill point fired after fsync: applied = %d, want %d", applied, len(evs))
	}
	if err := d.Close(); err != nil { // killed state: no drain checkpoint
		t.Fatalf("Close: %v", err)
	}
	// Recovery from the image must cross a delta chain, not just load
	// a full checkpoint.
	if links := latestDeltaLinks(t, cfg.CheckpointDir); links == 0 {
		t.Fatal("crash image's LATEST is a full checkpoint, want a delta")
	}
	return crashImage{walDir: cfg.WALDir, ckptDir: cfg.CheckpointDir, applied: applied}
}

// latestDeltaLinks follows LATEST's base chain down to its full
// checkpoint, failing the test if a member is missing from disk or
// the chain cycles, and returns how many delta links it crossed.
func latestDeltaLinks(t *testing.T, ckptDir string) int {
	t.Helper()
	name := latestName(t, ckptDir)
	for links := 0; ; links++ {
		if links > 64 {
			t.Fatalf("delta chain below %s exceeds 64 links", latestName(t, ckptDir))
		}
		blob, err := os.ReadFile(filepath.Join(ckptDir, name, "state.json"))
		if err != nil {
			t.Fatalf("chain member %s: %v", name, err)
		}
		var cs struct{ Kind, Base string }
		if err := json.Unmarshal(blob, &cs); err != nil {
			t.Fatalf("chain member %s: %v", name, err)
		}
		if cs.Kind != "delta" {
			return links
		}
		name = cs.Base
	}
}

// latestName returns the checkpoint LATEST names.
func latestName(t *testing.T, ckptDir string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(ckptDir, "LATEST"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

// recoverImage rebuilds a daemon over (a branch of) the image dirs.
func recoverImage(t *testing.T, walDir, ckptDir string, wf *faults.Injector) (*Daemon, error) {
	t.Helper()
	cfg := Config{WALDir: walDir, CheckpointDir: ckptDir, Sim: simCfg(), WALFaults: wf}
	return New(tinyDataset(), cfg)
}

// TestCrashMatrixReconverges is the chaos harness headline: a daemon
// crashed after its final fsync is re-killed during recovery at EVERY
// WAL record boundary; each time, the next incarnation must recover
// to purge plans bit-identical to an uninterrupted batch replay.
func TestCrashMatrixReconverges(t *testing.T) {
	ds := tinyDataset()
	ref := batchReference(t, ds, nil)
	im := makeCrashImage(t, 10, 8)

	// Baseline: a clean recovery of the crash image reconverges.
	walDir, ckptDir := im.branch(t)
	d, err := recoverImage(t, walDir, ckptDir, nil)
	if err != nil {
		t.Fatalf("clean recovery: %v", err)
	}
	if d.stream.Applied() != im.applied {
		t.Fatalf("recovered Applied = %d, want %d", d.stream.Applied(), im.applied)
	}
	tail := d.recovered // WAL records past the last durable checkpoint
	if tail == 0 {
		t.Fatal("crash image has no WAL tail; the matrix would be empty")
	}
	requireSameReports(t, "clean recovery", d.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "clean recovery", d, ref)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The matrix: kill recovery right after record k, for every k.
	// Checkpoints taken before the kill must only ever help the next
	// incarnation (a crash loop may legally advance the baseline).
	for k := 1; k <= tail; k++ {
		walDir, ckptDir := im.branch(t)
		wf := faults.New(faults.Config{Seed: 1, KillSpec: fmt.Sprintf("%s:%d", KillRecoverRecord, k)})
		if _, err := recoverImage(t, walDir, ckptDir, wf); !errors.Is(err, ErrKilled) {
			t.Fatalf("k=%d: recovery error = %v, want ErrKilled", k, err)
		}
		d, err := recoverImage(t, walDir, ckptDir, nil)
		if err != nil {
			t.Fatalf("k=%d: second recovery: %v", k, err)
		}
		if d.stream.Applied() != im.applied {
			t.Fatalf("k=%d: Applied = %d, want %d", k, d.stream.Applied(), im.applied)
		}
		requireSameReports(t, fmt.Sprintf("k=%d", k), d.stream.Result().Reports, ref.Reports)
		requireSameFS(t, fmt.Sprintf("k=%d", k), d, ref)
		if err := d.Close(); err != nil {
			t.Fatalf("k=%d: Close: %v", k, err)
		}
	}
}

// TestCrashLoopReconverges layers kills: die during recovery, then
// die again during the recovery of THAT, then recover cleanly.
func TestCrashLoopReconverges(t *testing.T) {
	ds := tinyDataset()
	ref := batchReference(t, ds, nil)
	im := makeCrashImage(t, 10, 8)

	// Measure the recovery tail on a throwaway branch.
	mw, mc := im.branch(t)
	probe, err := recoverImage(t, mw, mc, nil)
	if err != nil {
		t.Fatal(err)
	}
	tail := probe.recovered
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	if tail < 1 {
		t.Fatal("crash image has no WAL tail")
	}

	walDir, ckptDir := im.branch(t)
	fired := 0
	for round, k := range []int{tail, 1, 1} {
		wf := faults.New(faults.Config{Seed: 1, KillSpec: fmt.Sprintf("%s:%d", KillRecoverRecord, k)})
		d, err := recoverImage(t, walDir, ckptDir, wf)
		if err == nil {
			// A mid-recovery checkpoint can legally shrink the tail to
			// zero; the kill point then never fires and this
			// incarnation simply lives. Shut it down and carry on.
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("round %d: recovery error = %v, want ErrKilled", round, err)
		}
		fired++
	}
	if fired == 0 {
		t.Fatal("no recovery kill ever fired; the loop tested nothing")
	}
	d, err := recoverImage(t, walDir, ckptDir, nil)
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer d.Close()
	if d.stream.Applied() != im.applied {
		t.Fatalf("Applied = %d, want %d", d.stream.Applied(), im.applied)
	}
	requireSameReports(t, "crash loop", d.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "crash loop", d, ref)
}

// TestTornWriteKillsThenRecovers forces a torn append: the daemon
// must poison itself (the in-memory state is ahead of the disk), and
// the next incarnation must truncate the torn tail and accept a
// resend of the unacknowledged events.
func TestTornWriteKillsThenRecovers(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)

	cfg := baseConfig(t)
	half := len(evs) / 2
	d1 := newDaemon(t, tinyDataset(), cfg)
	ingestAll(t, d1, evs[:half], 7)

	// Rebuild the daemon's WAL layer with a always-torn injector by
	// swapping config mid-run is impossible (by design); instead run a
	// second daemon whose first append after the clean prefix tears.
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.WALFaults = faults.New(faults.Config{Seed: 11, TornWriteProb: 1})
	d2 := newDaemon(t, tinyDataset(), cfg2)
	err := d2.Ingest(evs[half : half+5])
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("torn ingest = %v, want ErrKilled", err)
	}
	if err := d2.Ingest(evs[half : half+5]); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-torn ingest = %v, want ErrKilled (poisoned)", err)
	}
	durable := d2.lastCkpt // nothing past the checkpoint survived the tear
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	cfg3 := cfg
	d3 := newDaemon(t, tinyDataset(), cfg3)
	defer d3.Close()
	if got := d3.stream.Applied(); got < durable || got >= half+5 {
		t.Fatalf("recovered Applied = %d, want in [%d, %d)", got, durable, half+5)
	}
	// The feeder resends everything unacknowledged.
	ingestAll(t, d3, evs[d3.stream.Applied():], 7)
	requireSameReports(t, "torn write", d3.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "torn write", d3, ref)
}

// TestCheckpointKillPointKillsDaemon arms the replay-level kill point
// (checkpoint published) through the daemon's sim-fault injector and
// checks the daemon treats it as a process death it can recover from.
func TestCheckpointKillPointKillsDaemon(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)

	cfg := baseConfig(t)
	cfg.Faults = faults.New(faults.Config{Seed: 3, KillSpec: faults.KillSimCheckpointPublished + ":4"})
	d1 := newDaemon(t, tinyDataset(), cfg)
	var killed error
	for i := range evs {
		if killed = d1.Ingest(evs[i : i+1]); killed != nil {
			break
		}
	}
	if killed == nil {
		// Every event was acknowledged at durability before the apply
		// stage reached the kill: the next Ingest reports it.
		d1.settled()
		killed = d1.Ingest(evs[len(evs)-1:])
	}
	if !errors.Is(killed, ErrKilled) {
		t.Fatalf("ingest error = %v, want ErrKilled at the 4th checkpoint", killed)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.Faults = faults.New(faults.Config{Seed: 3}) // same stream, no kill
	d2 := newDaemon(t, tinyDataset(), cfg2)
	defer d2.Close()
	// The feeder resends from what the restart holds: every event
	// acknowledged, and any durable one past the acknowledgments.
	ingestAll(t, d2, evs[d2.stream.Applied():], 7)
	requireSameReports(t, "checkpoint kill", d2.stream.Result().Reports, ref.Reports)
}

// TestChaosSoak is the CI soak: a seeded sequence of rounds, each
// ingesting a random slice of the feed and crashing in a random mode
// (post-fsync kill, recovery kill, torn write, clean SIGTERM), always
// recovering and finally reconverging to the batch-replay result.
func TestChaosSoak(t *testing.T) {
	ds := tinyDataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)
	rng := randx.New(20260807)

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ckptDir := filepath.Join(dir, "ckpt")

	next := 0 // first unacknowledged event
	round := 0
	for next < len(evs) {
		round++
		if round > 200 {
			t.Fatal("soak failed to make progress in 200 rounds")
		}
		mode := rng.Intn(4)
		var wf, sf *faults.Injector
		switch mode {
		case 1:
			wf = faults.New(faults.Config{Seed: uint64(round), KillSpec: fmt.Sprintf("%s:%d", KillWALSynced, 1+rng.Intn(3))})
		case 2:
			wf = faults.New(faults.Config{Seed: uint64(round), KillSpec: fmt.Sprintf("%s:%d", KillRecoverRecord, 1+rng.Intn(10))})
		case 3:
			wf = faults.New(faults.Config{Seed: uint64(round), TornWriteProb: 0.1})
		}
		cfg := Config{WALDir: walDir, CheckpointDir: ckptDir, Sim: simCfg(),
			CheckpointEvery: 1 + rng.Intn(6), WALFaults: wf, Faults: sf}
		d, err := New(tinyDataset(), cfg)
		if err != nil {
			if errors.Is(err, ErrKilled) {
				continue // died during recovery; next round retries
			}
			t.Fatalf("round %d: New: %v", round, err)
		}
		next = d.stream.Applied() // crash-mode rounds may rewind acks? (never below acked)
		for next < len(evs) {
			end := min(next+1+rng.Intn(9), len(evs))
			if err := d.Ingest(evs[next:end]); err != nil {
				if errors.Is(err, ErrKilled) {
					break // simulated death; restart in the next round
				}
				t.Fatalf("round %d: Ingest[%d:%d]: %v", round, next, end, err)
			}
			next = end
		}
		if err := d.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
	}

	d, err := New(tinyDataset(), Config{WALDir: walDir, CheckpointDir: ckptDir, Sim: simCfg()})
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	defer d.Close()
	if d.stream.Applied() != len(evs) {
		// A torn tail may have eaten unacknowledged events; resend.
		ingestAll(t, d, evs[d.stream.Applied():], 7)
	}
	requireSameReports(t, "soak", d.stream.Result().Reports, ref.Reports)
	requireSameFS(t, "soak", d, ref)
	t.Logf("soak: %d rounds to ingest %d events", round, len(evs))
}

// denseDataset is tinyDataset with the busy user creating a file every
// day instead of every week: a feed long enough for several
// multi-event batches between the year's purge triggers.
func denseDataset() *trace.Dataset {
	ds := tinyDataset()
	ds.Accesses = ds.Accesses[:0]
	for t := snapAt; t < repEnd; t = t.Add(timeutil.Day) {
		ds.Accesses = append(ds.Accesses, trace.Access{TS: t.Add(timeutil.Hour), User: 0, Create: true,
			Size: 1 << 20, Path: "/lustre/atlas/busy/run/" + t.DateString() + ".dat"})
	}
	ds.Accesses = append(ds.Accesses, trace.Access{TS: timeutil.Date(2016, time.May, 1), User: 0,
		Size: 1 << 30, Path: "/lustre/atlas/busy/old/data.dat"})
	ds.SortAccesses()
	return ds
}

// freeze copies a daemon's WAL and checkpoint directories as they are
// on disk now. Taken before Close, it is the disk at the instant of a
// simulated death: Close may still land buffered WAL records.
func freeze(t *testing.T, cfg Config) crashImage {
	t.Helper()
	dir := t.TempDir()
	im := crashImage{walDir: filepath.Join(dir, "wal"), ckptDir: filepath.Join(dir, "ckpt")}
	copyDir(t, cfg.WALDir, im.walDir)
	copyDir(t, cfg.CheckpointDir, im.ckptDir)
	return im
}

// ingestUntilKilled feeds evs from event from in batches until an
// Ingest reports the daemon dead, failing the test on any other error
// or if it never dies. A death in the apply stage shows at an Ingest
// after the batch that carried it was acknowledged; if the feed runs
// out first, one more Ingest observes it. It returns how many events
// were acknowledged.
func ingestUntilKilled(t *testing.T, d *Daemon, evs []Event, from, batch int) int {
	t.Helper()
	for i := from; i < len(evs); i += batch {
		end := min(i+batch, len(evs))
		if err := d.Ingest(evs[i:end]); err != nil {
			if !errors.Is(err, ErrKilled) {
				t.Fatalf("Ingest[%d:%d]: %v", i, end, err)
			}
			return i
		}
	}
	d.settled()
	if err := d.Ingest(evs[len(evs)-1:]); !errors.Is(err, ErrKilled) {
		t.Fatalf("the daemon was never killed: Ingest after the feed = %v", err)
	}
	return len(evs)
}

// requireLogMatchesStream asserts a recovered daemon's WAL ends
// exactly at the stream's cursor: the next event gets the next
// sequence number, and no recovery can skip or re-apply it.
func requireLogMatchesStream(t *testing.T, label string, d *Daemon, acked int) {
	t.Helper()
	if got, want := d.log.LastSeq(), uint64(d.stream.Applied()); got != want {
		t.Fatalf("%s: WAL ends at %d, stream applied %d", label, got, want)
	}
	if d.stream.Applied() < acked {
		t.Fatalf("%s: recovered %d events, %d were acknowledged", label, d.stream.Applied(), acked)
	}
}

// TestKillImageRecovery kills a daemon at a trigger checkpoint in the
// middle of a multi-event batch and recovers from the disk image at
// that instant. Every event is fsynced before it is applied, so the
// image's WAL reaches at least the checkpoint's cursor and recovery
// ends with the log and the stream at the same event. A second
// incarnation with sparse checkpoints numbers new events from there
// and dies after its second fsync; recovering that image and finishing
// the feed must reproduce the batch replay.
func TestKillImageRecovery(t *testing.T) {
	ds := denseDataset()
	evs := accessEvents(ds)
	ref := batchReference(t, ds, nil)
	for _, tc := range []struct{ batch, syncEvery int }{{25, 256}, {60, 16}} {
		for kill := 1; kill <= 4; kill++ {
			t.Run(fmt.Sprintf("batch=%d/kill=%d", tc.batch, kill), func(t *testing.T) {
				cfg := baseConfig(t)
				cfg.SyncEvery = tc.syncEvery
				cfg.Faults = faults.New(faults.Config{Seed: 3,
					KillSpec: fmt.Sprintf("%s:%d", faults.KillSimCheckpointPublished, kill)})
				d1 := newDaemon(t, denseDataset(), cfg)
				acked := ingestUntilKilled(t, d1, evs, 0, tc.batch)
				im := freeze(t, cfg)
				if err := d1.Close(); err != nil {
					t.Fatal(err)
				}

				cfg2 := Config{WALDir: im.walDir, CheckpointDir: im.ckptDir, Sim: simCfg(),
					SyncEvery: tc.syncEvery, CheckpointEvery: 5,
					Faults:    faults.New(faults.Config{Seed: 3}),
					WALFaults: faults.New(faults.Config{Seed: 1, KillSpec: KillWALSynced + ":2"})}
				d2 := newDaemon(t, denseDataset(), cfg2)
				requireLogMatchesStream(t, "first recovery", d2, acked)
				acked = ingestUntilKilled(t, d2, evs, d2.stream.Applied(), tc.batch)
				im2 := freeze(t, cfg2)
				if err := d2.Close(); err != nil {
					t.Fatal(err)
				}

				d3 := newDaemon(t, denseDataset(), Config{WALDir: im2.walDir, CheckpointDir: im2.ckptDir,
					Sim: simCfg(), SyncEvery: tc.syncEvery, Faults: faults.New(faults.Config{Seed: 3})})
				defer d3.Close()
				requireLogMatchesStream(t, "second recovery", d3, acked)
				ingestAll(t, d3, evs[d3.stream.Applied():], tc.batch)
				requireSameReports(t, "kill image", d3.stream.Result().Reports, ref.Reports)
				requireSameFS(t, "kill image", d3, ref)
			})
		}
	}
}
