package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/retention"
	"activedr/internal/synth"
	"activedr/internal/timeutil"
)

// policyFor builds a named policy fresh, so interrupted and resumed
// runs never share mutable policy state.
func policyFor(t *testing.T, em *Emulator, name string) retention.Policy {
	t.Helper()
	if name == "flt" {
		return em.NewFLT()
	}
	adr, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	return adr
}

// stripElapsed zeroes the wall-clock fields, the only Result content
// allowed to differ between an uninterrupted and a resumed run.
func stripElapsed(r *Result) {
	r.Elapsed = 0
	for _, rep := range r.Reports {
		rep.Elapsed = 0
	}
}

// requireSameResult asserts bit-for-bit equivalence of two runs:
// misses, per-group series, per-day stats, every purge report, and
// the final (and captured) file-system state. It only reads its
// arguments, so parallel subtests can share one expected Result.
func requireSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if w, g := withoutClock(want), withoutClock(got); !reflect.DeepEqual(w, g) {
		wb, _ := json.Marshal(w)
		gb, _ := json.Marshal(g)
		t.Fatalf("results diverge:\n want %s\n got  %s", wb, gb)
	}
	wf, gf := want.Final, got.Final
	wc, gc := want.Captured, got.Captured
	if (wf == nil) != (gf == nil) {
		t.Fatal("one run lacks a final file system")
	}
	if wf != nil && !reflect.DeepEqual(wf.Snapshot(0).Entries, gf.Snapshot(0).Entries) {
		t.Fatal("final file-system states diverge")
	}
	if (wc == nil) != (gc == nil) {
		t.Fatal("captured state presence diverges")
	}
	if wc != nil && !reflect.DeepEqual(wc.Snapshot(0).Entries, gc.Snapshot(0).Entries) {
		t.Fatal("captured file-system states diverge")
	}
}

// withoutClock copies r for comparison: the file systems left out
// (requireSameResult compares their snapshots) and the wall-clock
// fields zeroed, on copies of the reports.
func withoutClock(r *Result) *Result {
	c := *r
	c.Final, c.Captured = nil, nil
	if r.Reports != nil {
		c.Reports = make([]*retention.Report, len(r.Reports))
		for i, rep := range r.Reports {
			cp := *rep
			c.Reports[i] = &cp
		}
	}
	stripElapsed(&c)
	return &c
}

// TestCheckpointResumeDeterminism is the kill-and-resume equivalence
// check of the acceptance criteria: a run interrupted at a mid-year
// trigger and resumed from its checkpoint must reproduce the
// uninterrupted run's Result exactly, for both policies, at several
// interruption points, with and without fault injection.
func TestCheckpointResumeDeterminism(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5, CaptureAt: timeutil.Date(2016, 7, 1), SnapshotEvery: timeutil.Days(28)}

	for _, pol := range []string{"flt", "activedr"} {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-faults=%t", pol, faulty), func(t *testing.T) {
				t.Parallel()
				fcfg := faults.Config{Seed: 123, UnlinkFailProb: 0.2, ScanInterruptProb: 0.3}
				newInjector := func() *faults.Injector {
					if !faulty {
						return nil
					}
					return faults.New(fcfg)
				}

				em, err := New(ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := em.RunWith(policyFor(t, em, pol), RunOptions{Faults: newInjector()})
				if err != nil {
					t.Fatal(err)
				}

				for _, stopAt := range []int{1, 5, 20} {
					t.Run(fmt.Sprintf("stop=%d", stopAt), func(t *testing.T) {
						t.Parallel()
						dir := t.TempDir()
						em1, err := New(ds, cfg)
						if err != nil {
							t.Fatal(err)
						}
						partial, err := em1.RunWith(policyFor(t, em1, pol), RunOptions{
							CheckpointDir:     dir,
							Faults:            newInjector(),
							StopAfterTriggers: stopAt,
						})
						if !errors.Is(err, ErrInterrupted) {
							t.Fatalf("stop=%d: err = %v, want ErrInterrupted", stopAt, err)
						}
						if partial == nil || len(partial.Reports) != stopAt {
							t.Fatalf("stop=%d: partial result has %d reports", stopAt, len(partial.Reports))
						}
						if !HasCheckpoint(dir) {
							t.Fatalf("stop=%d: no checkpoint written", stopAt)
						}

						// A brand-new emulator and policy: nothing survives the
						// "kill" except the checkpoint directory and the dataset.
						em2, err := New(ds, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, err := em2.Resume(policyFor(t, em2, pol), RunOptions{
							CheckpointDir: dir,
							Faults:        newInjector(),
						})
						if err != nil {
							t.Fatalf("stop=%d: resume: %v", stopAt, err)
						}
						requireSameResult(t, want, got)
					})
				}
			})
		}
	}
}

// TestResumeViaPackageFunc resumes on an emulator rebuilt from the
// dataset and configuration, as a restarted process does. That is all
// the package-level sim.Resume it was named for did; nothing called
// that function, so it is gone and the test builds the emulator.
func TestResumeViaPackageFunc(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.Run(em.NewFLT())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, StopAfterTriggers: 3}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	fresh, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Resume(&retention.FLT{Lifetime: timeutil.Days(90)}, RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
}

func TestResumeRejectsMismatches(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	inj := faults.New(faults.Config{Seed: 1, UnlinkFailProb: 0.5})
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, Faults: inj, StopAfterTriggers: 2}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}

	// Wrong policy.
	adr, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.Resume(adr, RunOptions{CheckpointDir: dir, Faults: inj}); err == nil {
		t.Fatal("policy mismatch accepted")
	}
	// Wrong configuration.
	em2, err := New(ds, Config{TargetUtilization: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em2.Resume(em2.NewFLT(), RunOptions{CheckpointDir: dir, Faults: inj}); err == nil {
		t.Fatal("config mismatch accepted")
	}
	// Fault state present but no injector supplied.
	if _, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: dir}); err == nil {
		t.Fatal("missing injector accepted")
	}
	// No checkpoint at all.
	if _, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: t.TempDir()}); err == nil {
		t.Fatal("empty checkpoint dir accepted")
	}
	if HasCheckpoint(t.TempDir()) {
		t.Fatal("HasCheckpoint true on empty dir")
	}
}

func TestCheckpointPruning(t *testing.T) {
	ds := tinyDataset()
	em, err := New(ds, Config{TargetUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	dirs := 0
	for _, ent := range ents {
		if ent.IsDir() {
			dirs++
		}
	}
	// Full checkpoints only: the published one and the one before it.
	if dirs > 2 {
		t.Fatalf("%d checkpoint dirs kept, want ≤ 2", dirs)
	}
	if !HasCheckpoint(dir) {
		t.Fatal("no resumable checkpoint after full run")
	}
}

// TestFreshRunKeepsItsCheckpoints: a fresh run in a directory that
// still holds an older, longer run's checkpoints must not prune its
// own. The stale names sort after the new ones; pruning must not take
// them for the newest and delete the checkpoint LATEST names.
func TestFreshRunKeepsItsCheckpoints(t *testing.T) {
	ds := tinyDataset()
	em, err := New(ds, Config{TargetUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.Run(em.NewFLT())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, StopAfterTriggers: 3}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	if !HasCheckpoint(dir) {
		t.Fatal("the fresh run's published checkpoint was pruned")
	}
	if name, cs := latestState(t, dir); cs.Triggers != 3 {
		t.Fatalf("LATEST = %s at trigger %d, want the fresh run's trigger 3", name, cs.Triggers)
	}
	got, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
}

// TestCheckpointEverySpacing verifies CheckpointEvery thins the
// checkpoint cadence without breaking resumability.
func TestCheckpointEverySpacing(t *testing.T) {
	ds := tinyDataset()
	em, err := New(ds, Config{TargetUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.Run(em.NewFLT())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Stop at a trigger that is NOT a checkpoint boundary: resume must
	// re-replay from the older checkpoint and still match.
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, CheckpointEvery: 4, StopAfterTriggers: 6}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if name != "t000004-000001" {
		t.Fatalf("latest checkpoint = %s, want t000004-000001", name)
	}
	got, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
}

// TestFaultedRunCompletesAndConverges is the fault half of the
// acceptance criteria on a full synthetic workload: a replay with
// injected purge failures completes without panic, observes
// FailedPurges > 0, and — once faults clear mid-year — ActiveDR
// returns to its target utilization.
func TestFaultedRunCompletesAndConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic year-long replay")
	}
	d, err := synth.Generate(synth.Config{Seed: 11, Users: 400})
	if err != nil {
		t.Fatal(err)
	}
	em, err := New(d, Config{TargetUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	clearAt := timeutil.Date(2016, 7, 1)
	inj := faults.New(faults.Config{
		Seed:              99,
		UnlinkFailProb:    0.5,
		ScanInterruptProb: 0.5,
		ClearAfter:        clearAt,
	})
	adr, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	res, err := em.RunWith(adr, RunOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	var failed int64
	var interrupted int
	for _, rep := range res.Reports {
		failed += rep.FailedPurges
		if rep.Incomplete {
			interrupted++
		}
	}
	if failed == 0 {
		t.Fatal("no failed purges observed under 50% unlink failure")
	}
	if interrupted == 0 {
		t.Fatal("no interrupted scans observed under 50% interrupt probability")
	}
	t.Logf("faulted run: %d failed purges, %d interrupted scans, %d misses",
		failed, interrupted, res.TotalMisses)
	// After the faults clear, every remaining trigger must hit its
	// purge target again: the policy converges, degradation is bounded.
	converged := 0
	for _, rep := range res.Reports {
		if rep.At < clearAt.Add(timeutil.Days(7)) {
			continue
		}
		converged++
		if !rep.TargetReached {
			t.Errorf("trigger %s missed target after faults cleared", rep.At.DateString())
		}
		if rep.FailedPurges != 0 || rep.Incomplete {
			t.Errorf("trigger %s still faulted after ClearAfter", rep.At.DateString())
		}
	}
	if converged == 0 {
		t.Fatal("no post-clear triggers examined")
	}
	cap := em.Config().Capacity
	util := float64(res.Final.TotalBytes()) / float64(cap)
	t.Logf("final utilization %.1f%% of capacity", 100*util)
	// The final state sits at/below target plus the growth since the
	// last trigger (one interval of fresh writes).
	if last := res.Reports[len(res.Reports)-1]; !last.TargetReached {
		t.Fatal("final trigger did not reach target")
	}
}

// TestCheckpointSurvivesSnapshotSeries ensures the snapshot-series
// sidecars roundtrip (same count, same capture times).
func TestCheckpointSurvivesSnapshotSeries(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5, SnapshotEvery: timeutil.Days(14)}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.Run(em.NewFLT())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, StopAfterTriggers: 10}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	// The checkpoint must physically contain the series so far.
	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, name, snapsSubdir, "s*.tsv.gz"))
	if len(matches) == 0 {
		t.Fatal("no snapshot sidecars in checkpoint")
	}
	got, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Snapshots) != len(want.Snapshots) {
		t.Fatalf("snapshot series length %d, want %d", len(got.Snapshots), len(want.Snapshots))
	}
	for i := range want.Snapshots {
		if got.Snapshots[i].Taken != want.Snapshots[i].Taken {
			t.Errorf("snapshot %d taken %v, want %v", i, got.Snapshots[i].Taken, want.Snapshots[i].Taken)
		}
		if !reflect.DeepEqual(got.Snapshots[i].Entries, want.Snapshots[i].Entries) {
			t.Errorf("snapshot %d entries diverge", i)
		}
	}
}
