package sim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"activedr/internal/faults"
	"activedr/internal/synth"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// runMultiplexed runs lanes in one pass on a fresh multiplexer over
// ds, returning the results in lane order.
func runMultiplexed(ds *trace.Dataset, lanes []LaneSpec) ([]*Result, error) {
	m, err := NewMultiplexer(ds)
	if err != nil {
		return nil, err
	}
	return m.Run(lanes)
}

// multiplexFixtureLanes is the 4-lane sweep the equivalence suite
// exercises: both policies, two lifetimes, one lane with mid-run
// capture and a periodic snapshot series. Lane 1 and lane 3 share a
// period length, covering the shared-rank-table path; lane 0 and
// lane 2 rank on their own 30-day table.
func multiplexFixtureLanes() []LaneSpec {
	return []LaneSpec{
		{Policy: PolicyFLT, Config: Config{Lifetime: timeutil.Days(30)}},
		{Policy: PolicyActiveDR, Config: Config{TargetUtilization: 0.5}},
		{Policy: PolicyActiveDR, Config: Config{
			Lifetime: timeutil.Days(30), TargetUtilization: 0.5,
			CaptureAt: timeutil.Date(2016, 7, 1), SnapshotEvery: timeutil.Days(28),
		}},
		{Policy: PolicyFLT, Config: Config{}},
	}
}

// TestMultiplexedReplayEquivalence is the tentpole's non-negotiable
// bar: every lane of a multiplexed run — Results, checkpoint states,
// checkpointed file-system sidecars — is bit-identical to a
// sequential RunWith of the same (Config, Policy, RunOptions), with
// and without fault injection. Each lane (and each side) gets a fresh
// injector from the same seed, so any cross-lane draw stealing in the
// multiplexed pass would surface as a divergence here.
func TestMultiplexedReplayEquivalence(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, Users: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, faultsOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%t", faultsOn), func(t *testing.T) {
			newInjector := func() *faults.Injector {
				if !faultsOn {
					return nil
				}
				return faults.New(faults.Config{Seed: 42, UnlinkFailProb: 0.05, ScanInterruptProb: 0.05})
			}
			lanes := multiplexFixtureLanes()
			mDirs := make([]string, len(lanes))
			for i := range lanes {
				mDirs[i] = t.TempDir()
				lanes[i].Opts = RunOptions{CheckpointDir: mDirs[i], CheckpointEvery: 20, Faults: newInjector()}
			}
			got, err := runMultiplexed(ds, lanes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range lanes {
				seqDir := t.TempDir()
				em, err := New(ds, lanes[i].Config)
				if err != nil {
					t.Fatal(err)
				}
				policy, err := em.NewPolicy(lanes[i].Policy)
				if err != nil {
					t.Fatal(err)
				}
				want, err := em.RunWith(policy, RunOptions{
					CheckpointDir: seqDir, CheckpointEvery: 20, Faults: newInjector(),
				})
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, want, got[i])
				if !reflect.DeepEqual(normalizeCheckpoint(t, seqDir), normalizeCheckpoint(t, mDirs[i])) {
					t.Errorf("lane %d: checkpoint state diverges from sequential", i)
				}
				if !bytes.Equal(readSidecar(t, seqDir), readSidecar(t, mDirs[i])) {
					t.Errorf("lane %d: checkpointed file system not byte-identical to sequential", i)
				}
			}
		})
	}
}

// TestMultiplexSingleLane covers the one-lane columnar path against
// the per-event loop: a lane group of one still applies whole runs,
// one ApplyRun per (day, path).
func TestMultiplexSingleLane(t *testing.T) {
	requireLanesMatchSequential(t, tinyDataset(), []LaneSpec{{Policy: PolicyActiveDR,
		Config: Config{TargetUtilization: 0.5, SnapshotEvery: timeutil.Days(28)}}})
}

// requireLanesMatchSequential runs lanes in one multiplexed pass over
// ds and checks every lane's Result against a per-event replay of its
// spec (perEventRun), which shares no batch loop with the pass.
func requireLanesMatchSequential(t *testing.T, ds *trace.Dataset, lanes []LaneSpec) {
	t.Helper()
	got, err := runMultiplexed(ds, lanes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lanes {
		em, err := New(ds, lanes[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		want, err := perEventRun(em, policyFor(t, em, lanes[i].Policy), lanes[i].Opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want, got[i])
	}
}

// withoutAccesses returns ds with the accesses drop reports removed.
func withoutAccesses(ds *trace.Dataset, drop func(a *trace.Access) bool) *trace.Dataset {
	kept := make([]trace.Access, 0, len(ds.Accesses))
	for i := range ds.Accesses {
		if !drop(&ds.Accesses[i]) {
			kept = append(kept, ds.Accesses[i])
		}
	}
	ds.Accesses = kept
	return ds
}

// TestMultiplexTriggerGap replays a log with a five-week hole, so the
// batch after it has several triggers due at once. Lanes fire them in
// lockstep, and the ranker hands out its tables in time order.
func TestMultiplexTriggerGap(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, Users: 120})
	if err != nil {
		t.Fatal(err)
	}
	from, to := timeutil.Date(2016, time.March, 1), timeutil.Date(2016, time.April, 5)
	ds = withoutAccesses(ds, func(a *trace.Access) bool { return a.TS >= from && a.TS < to })
	// Guard the fixture: count the grid points due at the first batch
	// after the hole.
	feed, err := buildColFeed(ds, timeutil.Week)
	if err != nil {
		t.Fatal(err)
	}
	due := 0
	for bi := 1; bi < len(feed.batches); bi++ {
		before, after := ds.Accesses[feed.batches[bi-1].start].TS, ds.Accesses[feed.batches[bi].start].TS
		if after < to {
			continue
		}
		for g := ds.Snapshot.Taken; g <= after; g = g.Add(timeutil.Week) {
			if g > before {
				due++
			}
		}
		break
	}
	if due < 4 {
		t.Fatalf("the batch after the hole has %d triggers due, want at least 4", due)
	}
	requireLanesMatchSequential(t, ds, multiplexFixtureLanes())
}

// TestMultiplexShortLog replays logs that end before the first trigger
// (one with no events at all): the rankers compute the snapshot-time
// table alone, and every lane still matches its sequential replay.
func TestMultiplexShortLog(t *testing.T) {
	for _, days := range []int{0, 3} {
		t.Run(fmt.Sprintf("days=%d", days), func(t *testing.T) {
			ds := tinyDataset()
			end := ds.Snapshot.Taken.Add(timeutil.Days(days))
			ds = withoutAccesses(ds, func(a *trace.Access) bool { return a.TS >= end })
			if (len(ds.Accesses) == 0) != (days == 0) {
				t.Fatalf("%d accesses left in the first %d days", len(ds.Accesses), days)
			}
			requireLanesMatchSequential(t, ds, multiplexFixtureLanes())
		})
	}
}

// TestMultiplexTwoRankers gives the lanes two activity-data signatures
// (logins on and off), so two rankers, each with its own worker and
// period set, serve one pass.
func TestMultiplexTwoRankers(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, Users: 120})
	if err != nil {
		t.Fatal(err)
	}
	requireLanesMatchSequential(t, ds, []LaneSpec{
		{Policy: PolicyActiveDR, Config: Config{TargetUtilization: 0.5, UseLogins: true}},
		{Policy: PolicyFLT, Config: Config{Lifetime: timeutil.Days(30)}},
		{Policy: PolicyActiveDR, Config: Config{TargetUtilization: 0.5, PeriodLength: timeutil.Days(30), UseLogins: true}},
		{Policy: PolicyActiveDR, Config: Config{TargetUtilization: 0.5}},
	})
}

// TestMultiplexLaneFailureStopsRankers fails one lane mid-run (its
// checkpoint dir is a file): Run returns that lane's error, and no
// ranker goroutine outlives it. Nor does one outlive a lane set
// refused after the rankers started (an unknown policy), nor any
// return path of a one-lane RunWith or Resume: a trigger budget, a
// kill point, a checkpoint dir that is a file, a log the feed refuses
// and a completed run.
func TestMultiplexLaneFailureStopsRankers(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, Users: 120})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = runMultiplexed(ds, []LaneSpec{
		{Policy: PolicyFLT, Config: Config{Lifetime: timeutil.Days(30)}},
		{Policy: PolicyActiveDR, Config: Config{TargetUtilization: 0.5, UseLogins: true}, Opts: RunOptions{CheckpointDir: file}},
		{Policy: PolicyActiveDR, Config: Config{TargetUtilization: 0.5}},
	})
	if err == nil || !strings.HasPrefix(err.Error(), "sim: lane 1: ") {
		t.Fatalf("err = %v, want lane 1's checkpoint failure", err)
	}
	requireNoRankers(t)
	_, err = runMultiplexed(ds, []LaneSpec{{Policy: PolicyFLT}, {Policy: "lru", Config: Config{UseLogins: true}}})
	if err == nil || !strings.Contains(err.Error(), `unknown policy "lru"`) {
		t.Fatalf("err = %v, want the unknown policy refused", err)
	}
	requireNoRankers(t)

	cfg := Config{TargetUtilization: 0.5}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, StopAfterTriggers: 3}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("RunWith with a trigger budget: err = %v, want ErrInterrupted", err)
	}
	requireNoRankers(t)
	if _, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: dir, StopAfterTriggers: 6}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Resume with a trigger budget: err = %v, want ErrInterrupted", err)
	}
	requireNoRankers(t)
	if _, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: dir}); err != nil {
		t.Fatalf("Resume to the end: %v", err)
	}
	requireNoRankers(t)
	kill := faults.New(faults.Config{Seed: 5, KillSpec: faults.KillSimCheckpointPublished + ":2"})
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: t.TempDir(), Faults: kill}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("RunWith at a kill point: err = %v, want ErrInterrupted", err)
	}
	requireNoRankers(t)
	var ce *CheckpointError
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: file}); !errors.As(err, &ce) {
		t.Fatalf("RunWith into a file: err = %v, want a *CheckpointError", err)
	}
	requireNoRankers(t)
	n := len(ds.Accesses)
	ds.Accesses[n-1], ds.Accesses[n-2] = ds.Accesses[n-2], ds.Accesses[n-1]
	unordered, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unordered.Run(unordered.NewFLT()); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("Run of an unordered log: err = %v, want it refused", err)
	}
	requireNoRankers(t)
}

// requireNoRankers fails unless every ranker worker has returned. A
// worker halt has waited for may still be unwinding, so it gets a
// moment; one blocked for good does not get past the deadline.
func requireNoRankers(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "(*sharedRanker).start") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a ranker goroutine outlived Run:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMultiplexDoesNotShareFaultDraws pins satellite independence:
// each lane draws from its own injector, so adding a fault-free lane
// (or any other lane) to the pass must not perturb a faulted lane's
// draw sequence or results — the multiplexed analogue of the daemon's
// TestPlanDoesNotPerturbReplay.
func TestMultiplexDoesNotShareFaultDraws(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, Users: 120})
	if err != nil {
		t.Fatal(err)
	}
	faulty := func() LaneSpec {
		return LaneSpec{Policy: PolicyActiveDR, Config: Config{TargetUtilization: 0.5},
			Opts: RunOptions{Faults: faults.New(faults.Config{Seed: 7, UnlinkFailProb: 0.2, ScanInterruptProb: 0.2})}}
	}
	solo, err := runMultiplexed(ds, []LaneSpec{faulty()})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := runMultiplexed(ds, []LaneSpec{
		faulty(),
		{Policy: PolicyFLT, Config: Config{Lifetime: timeutil.Days(30)}},
		faulty(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, solo[0], mixed[0])
	// Two lanes seeded identically draw identical — not interleaved —
	// sequences.
	requireSameResult(t, mixed[0], mixed[2])
}

// TestMultiplexRejectsUnrepresentableLog pins the columnar feed's
// refusals, which a multiplexed pass and a single-policy replay share
// word for word. An access log out of timestamp order fails the run
// with Dataset.Validate's wording; a first event predating the
// snapshot fails it with the error Stream.Apply raises.
func TestMultiplexRejectsUnrepresentableLog(t *testing.T) {
	cfg := Config{TargetUtilization: 0.5}
	lanes := []LaneSpec{{Policy: PolicyFLT, Config: cfg}}

	ds := tinyDataset()
	n := len(ds.Accesses)
	ds.Accesses[n-1], ds.Accesses[n-2] = ds.Accesses[n-2], ds.Accesses[n-1]
	if ds.Accesses[n-1].TS >= ds.Accesses[n-2].TS {
		t.Fatal("fixture still monotone after swap")
	}
	want := fmt.Sprintf("sim: access log out of order at record %d", n-1)
	if _, err := runMultiplexed(ds, lanes); err == nil || err.Error() != want {
		t.Fatalf("out-of-order log: err = %v, want %q", err, want)
	}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.Run(em.NewFLT()); err == nil || err.Error() != want {
		t.Fatalf("single-policy replay of the out-of-order log: err = %v, want %q", err, want)
	}

	ds = tinyDataset()
	ds.Accesses[0].TS = ds.Snapshot.Taken - 1
	want = fmt.Sprintf("sim: access at %v predates the snapshot (%v)", ds.Accesses[0].TS, ds.Snapshot.Taken)
	if _, err := runMultiplexed(ds, lanes); err == nil || err.Error() != want {
		t.Fatalf("predating log: err = %v, want %q", err, want)
	}
	if em, err = New(ds, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := em.Run(em.NewFLT()); err == nil || err.Error() != want {
		t.Fatalf("single-policy replay of the predating log: err = %v, want %q", err, want)
	}
}

// TestMultiplexValidation pins the fail-fast surface.
func TestMultiplexValidation(t *testing.T) {
	ds := tinyDataset()
	m, err := NewMultiplexer(ds)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name, wantSub string, lanes []LaneSpec) {
		t.Helper()
		if _, err := m.Run(lanes); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: err = %v, want substring %q", name, err, wantSub)
		}
	}
	check("empty", "at least one lane", nil)
	check("mixed intervals", "trigger interval", []LaneSpec{
		{Policy: PolicyFLT},
		{Policy: PolicyFLT, Config: Config{TriggerInterval: timeutil.Days(3)}},
	})
	check("stop-after-triggers", "StopAfterTriggers", []LaneSpec{
		{Policy: PolicyFLT, Opts: RunOptions{StopAfterTriggers: 2}},
	})
	check("unknown policy", `unknown policy "lru"`, []LaneSpec{{Policy: "lru"}})
	check("dup checkpoint dir", "share checkpoint dir", []LaneSpec{
		{Policy: PolicyFLT, Opts: RunOptions{CheckpointDir: "/tmp/x"}},
		{Policy: PolicyActiveDR, Opts: RunOptions{CheckpointDir: "/tmp/x"}},
	})
	over := make([]LaneSpec, 65)
	for i := range over {
		over[i] = LaneSpec{Policy: PolicyFLT}
	}
	check("too many lanes", "64-lane", over)
}

// TestColFeedBatchInvariants checks the feed builder's contract on a
// real synthetic year: batches tile the log in order, no batch
// interior crosses a day boundary or a trigger-grid point, and each
// batch's runs partition its events by path: every event is in exactly
// one run, events ascend within a run, and runs are in order of first
// appearance. Path ids are dense and in first-appearance order, and
// the build is deterministic.
func TestColFeedBatchInvariants(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 3, Users: 80})
	if err != nil {
		t.Fatal(err)
	}
	interval := timeutil.Days(7)
	feed, err := buildColFeed(ds, interval)
	if err != nil {
		t.Fatalf("synthetic log should be columnar-feedable: %v", err)
	}
	again, err := buildColFeed(ds, interval)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(feed, again) {
		t.Fatal("two builds of the feed differ")
	}
	pidOf := make(map[string]int32, len(feed.paths))
	for pid, p := range feed.paths {
		if _, dup := pidOf[p]; dup {
			t.Fatalf("path %q interned twice", p)
		}
		pidOf[p] = int32(pid)
	}
	var seen int32 // distinct paths so far, in log order
	for i := range ds.Accesses {
		pid, ok := pidOf[ds.Accesses[i].Path]
		switch {
		case !ok:
			t.Fatalf("event %d: path %q not interned", i, ds.Accesses[i].Path)
		case pid > seen:
			t.Fatalf("event %d: pid %d appears before pid %d", i, pid, seen)
		case pid == seen:
			seen++
		}
	}
	if int(seen) != len(feed.paths) {
		t.Fatalf("%d pids for %d distinct paths", len(feed.paths), seen)
	}
	t0 := ds.Snapshot.Taken
	next := 0
	for bi := range feed.batches {
		b := &feed.batches[bi]
		if b.start != next {
			t.Fatalf("batch %d starts at %d, want %d", bi, b.start, next)
		}
		next = b.end
		day := ds.Accesses[b.start].TS.StartOfDay()
		// The lowest grid point strictly after the batch's first event
		// must clear the whole batch.
		grid := t0.Add(interval)
		for grid <= ds.Accesses[b.start].TS {
			grid = grid.Add(interval)
		}
		inRun := make(map[int32]bool)
		covered := make([]bool, b.end-b.start)
		firstOfPrev := int32(-1)
		for ri, r := range b.runs {
			if inRun[r.pid] {
				t.Fatalf("batch %d: path %q split across runs", bi, feed.paths[r.pid])
			}
			inRun[r.pid] = true
			seg := feed.order[r.off : r.off+r.n]
			if len(seg) == 0 {
				t.Fatalf("batch %d: run %d is empty", bi, ri)
			}
			if seg[0] <= firstOfPrev {
				t.Fatalf("batch %d: run %d (first event %d) precedes run %d's first appearance (event %d)",
					bi, ri, seg[0], ri-1, firstOfPrev)
			}
			firstOfPrev = seg[0]
			for k, idx := range seg {
				a := &ds.Accesses[idx]
				if int(idx) < b.start || int(idx) >= b.end {
					t.Fatalf("batch %d: event %d outside [%d,%d)", bi, idx, b.start, b.end)
				}
				if covered[int(idx)-b.start] {
					t.Fatalf("batch %d: event %d in two runs", bi, idx)
				}
				covered[int(idx)-b.start] = true
				if k > 0 && idx <= seg[k-1] {
					t.Fatalf("batch %d: run %d events out of order (%d after %d)", bi, ri, idx, seg[k-1])
				}
				if a.Path != feed.paths[r.pid] {
					t.Fatalf("batch %d: event %d path mismatch", bi, idx)
				}
				if a.TS.StartOfDay() != day {
					t.Fatalf("batch %d interior crosses a day boundary", bi)
				}
				if a.TS >= grid {
					t.Fatalf("batch %d interior crosses trigger grid at %v", bi, grid)
				}
			}
		}
		for k, ok := range covered {
			if !ok {
				t.Fatalf("batch %d: event %d in no run", bi, b.start+k)
			}
		}
	}
	if next != len(ds.Accesses) {
		t.Fatalf("batches cover %d events, want %d", next, len(ds.Accesses))
	}
}
