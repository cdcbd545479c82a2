package sim

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/fsx"
	"activedr/internal/timeutil"
)

// TestLatestPointerDurability pins the checkpoint publish protocol to
// real durability barriers: every file and directory of a checkpoint
// must be fsynced before its rename, and the rename and the LATEST
// pointer (file and parent directory) after it, so a power cut after
// publish can neither resurrect a stale pointer nor leave the new
// checkpoint's files empty.
func TestLatestPointerDurability(t *testing.T) {
	ds := tinyDataset()
	// A capture, a snapshot series and a delta put every sidecar kind
	// (and the snapshots/ subdirectory) into the two checkpoints.
	em, err := New(ds, Config{TargetUtilization: 0.5, CaptureAt: timeutil.Date(2016, 1, 1), SnapshotEvery: timeutil.Days(7)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	before := fsx.SyncCount()
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, CheckpointFullEvery: 2, StopAfterTriggers: 2}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	synced := fsx.SyncCount() - before

	// Both checkpoints are kept (the second is a delta on the first).
	// Each publish must fence each of its files and directories, then
	// the renamed checkpoint dir (target-dir sync) and the LATEST
	// replacement (file sync + dir sync).
	ckpts, err := filepath.Glob(filepath.Join(dir, "t*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 2 {
		t.Fatalf("%d checkpoint dirs on disk, want 2: %v", len(ckpts), ckpts)
	}
	want := int64(0)
	for _, ck := range ckpts {
		err := filepath.WalkDir(ck, func(string, fs.DirEntry, error) error {
			want++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want += 3
	}
	if synced < want {
		t.Fatalf("%d fsync barriers issued across two checkpoint publishes, want at least %d", synced, want)
	}

	name, err := readLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
		t.Fatalf("LATEST points at missing checkpoint: %v", err)
	}
	// The atomic replacement leaves no tmp debris behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.Contains(ent.Name(), ".tmp") {
			t.Fatalf("temp file %s leaked into checkpoint dir", ent.Name())
		}
	}
}

// TestKillPointInterruptAndResume rehearses a process death at the
// instant a checkpoint becomes durable: the run dies with
// ErrInterrupted exactly at the configured kill point, and a resumed
// run — fresh emulator, fresh injector without the kill spec —
// reproduces the uninterrupted result bit for bit.
func TestKillPointInterruptAndResume(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	probs := faults.Config{Seed: 77, UnlinkFailProb: 0.25}

	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.RunWith(em.NewFLT(), RunOptions{Faults: faults.New(probs)})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	killCfg := probs
	killCfg.KillSpec = faults.KillSimCheckpointPublished + ":3"
	em1, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := em1.RunWith(em1.NewFLT(), RunOptions{CheckpointDir: dir, Faults: faults.New(killCfg)})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("kill point did not interrupt: %v", err)
	}
	if len(partial.Reports) != 3 {
		t.Fatalf("killed after %d triggers, want 3", len(partial.Reports))
	}
	if !HasCheckpoint(dir) {
		t.Fatal("no checkpoint survived the kill")
	}

	// The resume injector carries the same probability stream but no
	// kill spec: the checkpoint predates the kill counter's fatal hit,
	// so resuming with the spec would just die again. ShouldKill draws
	// no randomness, so dropping it cannot desynchronize the stream.
	em2, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := em2.Resume(em2.NewFLT(), RunOptions{CheckpointDir: dir, Faults: faults.New(probs)})
	if err != nil {
		t.Fatalf("resume after kill: %v", err)
	}
	requireSameResult(t, want, got)
}
