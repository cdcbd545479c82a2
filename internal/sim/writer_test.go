package sim

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/synth"
	"activedr/internal/trace"
)

// requireSettled asserts that no checkpoint write is left over in dir:
// LATEST names the newest checkpoint on disk, which is the
// wantCkpts-th the run took, and no *.tmp directory remains.
func requireSettled(t *testing.T, label, dir string, wantCkpts int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	newest := ""
	for _, ent := range ents {
		n := ent.Name()
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("%s: %s left behind", label, n)
		}
		if ent.IsDir() && n > newest {
			newest = n
		}
	}
	name, cs := latestState(t, dir)
	if name != newest {
		t.Fatalf("%s: LATEST names %s, the newest checkpoint is %s", label, name, newest)
	}
	if cs.Ckpts != wantCkpts {
		t.Fatalf("%s: LATEST is checkpoint %d of the run, want %d", label, cs.Ckpts, wantCkpts)
	}
}

// TestNoCheckpointWriteOutlivesItsCaller: checkpoints are written in
// the background, but every entry point that takes them returns only
// once they have all published — RunWith, Resume, Multiplexer.Run,
// Stream.Checkpoint, a StopAfterTriggers stop and a kill at the
// checkpoint-published point. Every trigger checkpoints and only every
// third checkpoint is full, so a run ends with writes of both kinds
// queued behind each other.
func TestNoCheckpointWriteOutlivesItsCaller(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 3, Users: 80})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TargetUtilization: 0.5}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(dir string) RunOptions {
		return RunOptions{CheckpointDir: dir, CheckpointFullEvery: 3}
	}

	t.Run("RunWith", func(t *testing.T) {
		dir := t.TempDir()
		res, err := em.RunWith(policyFor(t, em, "activedr"), opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		requireSettled(t, "RunWith", dir, len(res.Reports))
	})

	t.Run("StopAfterTriggersThenResume", func(t *testing.T) {
		dir := t.TempDir()
		o := opts(dir)
		o.StopAfterTriggers = 20
		if _, err := em.RunWith(policyFor(t, em, "activedr"), o); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("stop: %v", err)
		}
		requireSettled(t, "StopAfterTriggers", dir, 20)
		res, err := em.Resume(policyFor(t, em, "activedr"), opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		requireSettled(t, "Resume", dir, len(res.Reports))
	})

	t.Run("KillPoint", func(t *testing.T) {
		dir := t.TempDir()
		o := opts(dir)
		o.Faults = faults.New(faults.Config{Seed: 5, KillSpec: faults.KillSimCheckpointPublished + ":17"})
		if _, err := em.RunWith(policyFor(t, em, "flt"), o); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("kill: %v", err)
		}
		requireSettled(t, "kill point", dir, 17)
	})

	t.Run("MultiplexerRun", func(t *testing.T) {
		dirs := []string{t.TempDir(), t.TempDir()}
		m, err := NewMultiplexer(ds)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run([]LaneSpec{
			{Policy: PolicyFLT, Config: cfg, Opts: opts(dirs[0])},
			{Policy: PolicyActiveDR, Config: cfg, Opts: opts(dirs[1])},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, dir := range dirs {
			requireSettled(t, "lane", dir, len(res[i].Reports))
		}
	})

	t.Run("StreamCheckpoint", func(t *testing.T) {
		dir := t.TempDir()
		s := em.NewStream(policyFor(t, em, "activedr"), opts(dir))
		var last *trace.Access
		for i := range ds.Accesses[:len(ds.Accesses)/2] {
			last = &ds.Accesses[i]
			if err := s.Apply(last); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(last.TS); err != nil {
			t.Fatal(err)
		}
		requireSettled(t, "Stream.Checkpoint", dir, s.Triggers()+1)
		name, cs := latestState(t, dir)
		if cs.Cursor != s.Applied() {
			t.Fatalf("drain checkpoint %s holds %d events, the stream applied %d", name, cs.Cursor, s.Applied())
		}
		if _, err := os.Stat(filepath.Join(dir, name, stateFile)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNoCheckpointPublishesAfterAFailedWrite: a write queued behind
// one that fails must not publish, OnCheckpoint runs for neither, and
// the stream keeps returning the failure at every later checkpoint.
func TestNoCheckpointPublishesAfterAFailedWrite(t *testing.T) {
	ds := tinyDataset()
	em, err := New(ds, Config{TargetUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	published := 0
	s := em.NewStream(em.NewFLT(), RunOptions{CheckpointDir: dir, OnCheckpoint: func(int) { published++ }})
	// A write still in flight that is about to fail, then a checkpoint
	// queued behind it.
	failing := &ckptWrite{done: make(chan struct{})}
	s.writes = append(s.writes, failing)
	if err := s.checkpoint(ds.Snapshot.Taken); err != nil {
		t.Fatal(err)
	}
	failing.err = &CheckpointError{Name: "t000000-000000", Err: errors.New("disk gone")}
	close(failing.done)

	var ce *CheckpointError
	if err := s.Wait(); !errors.As(err, &ce) || ce.Name != "t000000-000000" {
		t.Fatalf("Wait = %v, want the failed write's error", err)
	}
	for i := range ds.Accesses {
		if err = s.Apply(&ds.Accesses[i]); err != nil {
			break
		}
	}
	if !errors.As(err, &ce) || ce.Name != "t000000-000000" {
		t.Fatalf("replay after the failure = %v, want the failed write's error at the next checkpoint", err)
	}
	if HasCheckpoint(dir) || published != 0 {
		t.Fatalf("a checkpoint published after the failure (LATEST present: %v, OnCheckpoint calls: %d)", HasCheckpoint(dir), published)
	}
}
