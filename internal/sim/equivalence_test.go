package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/timeutil"
)

// normalizeCheckpoint parses the latest checkpoint's state.json and
// zeroes the wall clock inside the serialized reports, the one field
// allowed to differ between two runs of the same replay.
func normalizeCheckpoint(t *testing.T, dir string) checkpointState {
	t.Helper()
	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, name, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	var cs checkpointState
	if err := json.Unmarshal(blob, &cs); err != nil {
		t.Fatal(err)
	}
	for _, rep := range cs.Reports {
		rep.Elapsed = 0
	}
	return cs
}

// readSidecar returns the raw bytes of the latest checkpoint's
// file-system snapshot sidecar.
func readSidecar(t *testing.T, dir string) []byte {
	t.Helper()
	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, name, fsFile))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotSpacingSurvivesResume pins the interaction of three
// cadences that do not divide each other: purge triggers every 3 days,
// metadata snapshots every 10 days (so a snapshot lands on every 4th
// trigger, off the trigger grid), and checkpoints every 3rd trigger.
// A run killed at a non-checkpoint trigger resumes from an earlier
// checkpoint and re-replays triggers in between; the restored lastSnap
// must keep the snapshot series — count, capture times, and contents —
// bit-identical to the uninterrupted run's. A drifted spacing state
// would double-capture or skip a snapshot right after the resume
// boundary.
func TestSnapshotSpacingSurvivesResume(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{
		TargetUtilization: 0.5,
		TriggerInterval:   timeutil.Days(3),
		SnapshotEvery:     timeutil.Days(10),
	}
	newInjector := func() *faults.Injector {
		return faults.New(faults.Config{Seed: 9, UnlinkFailProb: 0.1, ScanInterruptProb: 0.1})
	}

	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.RunWith(policyFor(t, em, "activedr"), RunOptions{Faults: newInjector()})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Snapshots) < 3 {
		t.Fatalf("fixture too small: only %d snapshots in the series", len(want.Snapshots))
	}
	for i := 1; i < len(want.Snapshots); i++ {
		if gap := want.Snapshots[i].Taken.Sub(want.Snapshots[i-1].Taken); gap < cfg.SnapshotEvery {
			t.Fatalf("snapshots %d and %d only %v apart, want >= %v", i-1, i, gap, cfg.SnapshotEvery)
		}
	}

	// stop=3 resumes exactly at a checkpoint; stop=4 and stop=5 resume
	// from trigger 3 and re-replay the triggers in between — including,
	// at stop=5, the snapshot-bearing trigger 4.
	for _, stopAt := range []int{3, 4, 5, 8} {
		t.Run(fmt.Sprintf("stop=%d", stopAt), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			em1, err := New(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := em1.RunWith(policyFor(t, em1, "activedr"), RunOptions{
				CheckpointDir: dir, CheckpointEvery: 3, Faults: newInjector(), StopAfterTriggers: stopAt,
			}); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("stop=%d: %v", stopAt, err)
			}
			em2, err := New(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := em2.Resume(policyFor(t, em2, "activedr"), RunOptions{
				CheckpointDir: dir, CheckpointEvery: 3, Faults: newInjector(),
			})
			if err != nil {
				t.Fatalf("stop=%d: resume: %v", stopAt, err)
			}
			requireSameResult(t, want, got)
		})
	}
}
