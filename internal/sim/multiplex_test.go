package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

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

// TestMultiplexSingleLane covers the one-lane columnar path (a lane
// group of one still goes through ApplyRun, not Touch/Insert).
func TestMultiplexSingleLane(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5, SnapshotEvery: timeutil.Days(28)}
	got, err := runMultiplexed(ds, []LaneSpec{{Policy: PolicyActiveDR, Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.Run(policyFor(t, em, "activedr"))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got[0])
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
// refusals. An access log out of timestamp order fails the run with
// Dataset.Validate's wording; a first event predating the snapshot
// fails it with the error a single-policy replay raises.
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

	ds = tinyDataset()
	ds.Accesses[0].TS = ds.Snapshot.Taken - 1
	want = fmt.Sprintf("sim: access at %v predates the snapshot (%v)", ds.Accesses[0].TS, ds.Snapshot.Taken)
	if _, err := runMultiplexed(ds, lanes); err == nil || err.Error() != want {
		t.Fatalf("predating log: err = %v, want %q", err, want)
	}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.Run(em.NewFLT()); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("single-policy replay of the predating log: err = %v, want it to carry %q", err, want)
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
// batch's runs partition its events by path.
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
	t0 := ds.Snapshot.Taken
	next := 0
	for bi := range feed.batches {
		b := &feed.batches[bi]
		if b.start != next {
			t.Fatalf("batch %d starts at %d, want %d", bi, b.start, next)
		}
		next = b.end
		if b.first != ds.Accesses[b.start].TS {
			t.Fatalf("batch %d first time mismatch", bi)
		}
		day := ds.Accesses[b.start].TS.StartOfDay()
		// The lowest grid point strictly after the batch's first event
		// must clear the whole batch.
		grid := t0.Add(interval)
		for grid <= ds.Accesses[b.start].TS {
			grid = grid.Add(interval)
		}
		seen := make(map[int32]bool)
		var evCount int
		for _, r := range b.runs {
			if seen[r.pid] {
				t.Fatalf("batch %d: path %q split across runs", bi, feed.paths[r.pid])
			}
			seen[r.pid] = true
			evCount += int(r.n)
			for _, idx := range feed.order[r.off : r.off+r.n] {
				a := &ds.Accesses[idx]
				if int(idx) < b.start || int(idx) >= b.end {
					t.Fatalf("batch %d: event %d outside [%d,%d)", bi, idx, b.start, b.end)
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
		if evCount != b.end-b.start {
			t.Fatalf("batch %d runs cover %d events, want %d", bi, evCount, b.end-b.start)
		}
	}
	if next != len(ds.Accesses) {
		t.Fatalf("batches cover %d events, want %d", next, len(ds.Accesses))
	}
}
