package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/retention"
	"activedr/internal/synth"
	"activedr/internal/timeutil"
)

// perEventRun is the per-event reference replay: a Stream fed the
// dataset's access log one Apply at a time, as activedrd feeds its
// write-ahead log, then Wait, with the Result completed as a batch
// replay completes it. Batch replays ran this loop before they moved
// onto the day-batch runner.
func perEventRun(em *Emulator, policy retention.Policy, opts RunOptions) (*Result, error) {
	s := em.NewStream(policy, opts)
	for i := range em.ds.Accesses {
		if err := s.Apply(&em.ds.Accesses[i]); err != nil {
			_ = s.Wait()
			return nil, err
		}
	}
	if err := s.Wait(); err != nil {
		return nil, err
	}
	res := s.Result()
	if !s.st.captured {
		res.Captured = s.FS().Clone()
	}
	res.Final = s.FS()
	return res, nil
}

// observedRun is what one replay leaves behind for comparison.
type observedRun struct {
	res     *Result
	applied []int                        // OnCheckpoint's arguments, in call order
	ckpts   map[string]map[string][]byte // checkpoint name → file → bytes
	metrics obs.MetricsSnapshot
	events  []byte
}

// readCheckpointFiles reads every file of one published checkpoint,
// keyed by its path inside the checkpoint. state.json is re-encoded
// with the reports' wall clock zeroed, the one field two runs of one
// replay may disagree on.
func readCheckpointFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		if rel == stateFile {
			var cs checkpointState
			if err := json.Unmarshal(b, &cs); err != nil {
				return err
			}
			for _, rep := range cs.Reports {
				rep.Elapsed = 0
			}
			if b, err = json.Marshal(&cs); err != nil {
				return err
			}
		}
		files[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// runObserved replays policy with replay under opts plus a checkpoint
// directory, an observer writing its JSONL events, and an OnCheckpoint
// hook that reads each checkpoint as it publishes. A write publishes
// before its OnCheckpoint runs, and the prune after the next publish
// keeps it, so the hook sees every checkpoint the run writes.
func runObserved(t *testing.T, em *Emulator, policy retention.Policy, opts RunOptions,
	replay func(*Emulator, retention.Policy, RunOptions) (*Result, error)) observedRun {
	t.Helper()
	var events bytes.Buffer
	o := observed(t, &events, 1)
	dir := t.TempDir()
	r := observedRun{ckpts: make(map[string]map[string][]byte)}
	opts.CheckpointDir, opts.Obs = dir, o
	opts.OnCheckpoint = func(applied int) {
		r.applied = append(r.applied, applied)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			n := ent.Name()
			if ent.IsDir() && !strings.HasSuffix(n, ".tmp") && r.ckpts[n] == nil {
				r.ckpts[n] = readCheckpointFiles(t, filepath.Join(dir, n))
			}
		}
	}
	res, err := replay(em, policy, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Events().Flush(); err != nil {
		t.Fatal(err)
	}
	r.res, r.metrics, r.events = res, o.Registry().Snapshot(), events.Bytes()
	return r
}

// TestBatchReplayMatchesPerEvent holds the day-batch runner every
// batch replay runs to the per-event loop activedrd drives: for both
// policies, faults off and on, and every checkpoint full or only every
// fourth, RunWith and perEventRun agree on the Result, on every
// checkpoint's state.json and sidecars, on the metrics snapshot and on
// the JSONL event bytes (triggers, misses and the full purge audit).
func TestBatchReplayMatchesPerEvent(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, Users: 120})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TargetUtilization: 0.5, CaptureAt: timeutil.Date(2016, 7, 1), SnapshotEvery: timeutil.Days(28)}
	runWith := func(em *Emulator, p retention.Policy, o RunOptions) (*Result, error) { return em.RunWith(p, o) }
	for _, pol := range []string{"flt", "activedr"} {
		for _, faultsOn := range []bool{false, true} {
			for _, fullEvery := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/faults=%t/full-every=%d", pol, faultsOn, fullEvery), func(t *testing.T) {
					t.Parallel()
					em, err := New(ds, cfg)
					if err != nil {
						t.Fatal(err)
					}
					run := func(replay func(*Emulator, retention.Policy, RunOptions) (*Result, error)) observedRun {
						opts := RunOptions{CheckpointEvery: 2, CheckpointFullEvery: fullEvery}
						if faultsOn {
							opts.Faults = faults.New(faults.Config{Seed: 42, UnlinkFailProb: 0.1, ScanInterruptProb: 0.1})
						}
						return runObserved(t, em, policyFor(t, em, pol), opts, replay)
					}
					want, got := run(perEventRun), run(runWith)
					requireSameResult(t, want.res, got.res)
					if len(want.ckpts) < 20 {
						t.Fatalf("fixture too small: %d checkpoints", len(want.ckpts))
					}
					if !reflect.DeepEqual(want.applied, got.applied) {
						t.Errorf("OnCheckpoint saw %v, want %v", got.applied, want.applied)
					}
					for name, wf := range want.ckpts {
						gf, ok := got.ckpts[name]
						if !ok {
							t.Errorf("checkpoint %s missing from the batch replay", name)
							continue
						}
						for f, b := range wf {
							if !bytes.Equal(b, gf[f]) {
								t.Errorf("checkpoint %s: %s differs", name, f)
							}
						}
						if len(gf) != len(wf) {
							t.Errorf("checkpoint %s holds %d files, want %d", name, len(gf), len(wf))
						}
					}
					if len(got.ckpts) != len(want.ckpts) {
						t.Errorf("%d checkpoints, want %d", len(got.ckpts), len(want.ckpts))
					}
					if !reflect.DeepEqual(want.metrics, got.metrics) {
						t.Errorf("metrics diverge:\n want %+v\n got  %+v", want.metrics, got.metrics)
					}
					if len(want.events) == 0 || !bytes.Equal(want.events, got.events) {
						t.Errorf("event streams differ: %d bytes, want %d", len(got.events), len(want.events))
					}
				})
			}
		}
	}
}

// TestResumeInsideDayBatch resumes a batch replay from a checkpoint
// whose cursor falls inside a day batch: a Stream fed up to the middle
// of a batch and checkpointed there, as daemon.Close drains. Resume
// applies the rest of that batch first, and its Result equals the
// uninterrupted RunWith's, with every checkpoint full and with the
// drain checkpoint a delta.
func TestResumeInsideDayBatch(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, Users: 120})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TargetUtilization: 0.5, SnapshotEvery: timeutil.Days(28)}
	feed, err := buildColFeed(ds, cfg.Defaults().TriggerInterval)
	if err != nil {
		t.Fatal(err)
	}
	// A cursor inside a mid-year batch of several runs.
	bi := len(feed.batches) / 2
	for len(feed.batches[bi].runs) < 3 {
		bi++
	}
	b := &feed.batches[bi]
	cursor := (b.start + b.end) / 2
	if cursor <= b.start || cursor >= b.end {
		t.Fatalf("batch %d [%d,%d) has no interior cursor", bi, b.start, b.end)
	}
	newInjector := func() *faults.Injector {
		return faults.New(faults.Config{Seed: 9, UnlinkFailProb: 0.1, ScanInterruptProb: 0.1})
	}
	for _, pol := range []string{"flt", "activedr"} {
		for _, fullEvery := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/full-every=%d", pol, fullEvery), func(t *testing.T) {
				t.Parallel()
				em, err := New(ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := em.RunWith(policyFor(t, em, pol), RunOptions{Faults: newInjector()})
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				opts := func() RunOptions {
					return RunOptions{CheckpointDir: dir, CheckpointEvery: 2, CheckpointFullEvery: fullEvery, Faults: newInjector()}
				}
				s := em.NewStream(policyFor(t, em, pol), opts())
				for i := range ds.Accesses[:cursor] {
					if err := s.Apply(&ds.Accesses[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Checkpoint(ds.Accesses[cursor-1].TS); err != nil {
					t.Fatal(err)
				}
				name, cs := latestState(t, dir)
				if cs.Cursor != cursor {
					t.Fatalf("drain checkpoint %s holds %d events, want %d", name, cs.Cursor, cursor)
				}
				if wantKind := map[bool]string{true: kindFull, false: kindDelta}[fullEvery == 1]; cs.Kind != wantKind {
					t.Fatalf("drain checkpoint %s is %s, want %s", name, cs.Kind, wantKind)
				}
				em2, err := New(ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := em2.Resume(policyFor(t, em2, pol), opts())
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, want, got)
			})
		}
	}
}

// TestResumeRejectsRanksAtNextTrigger: a checkpoint whose rank time is
// not before its next trigger (hand-edited, or mixed from two runs) is
// refused, not resumed with a ranker that would evaluate a trigger
// time twice.
func TestResumeRejectsRanksAtNextTrigger(t *testing.T) {
	ds := tinyDataset()
	em, err := New(ds, Config{TargetUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := em.RunWith(em.NewFLT(), RunOptions{CheckpointDir: dir, StopAfterTriggers: 3}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	editLatestState(t, dir, func(m map[string]any) { m["ranks_at"] = m["next_trigger"] })
	if _, err := em.Resume(em.NewFLT(), RunOptions{CheckpointDir: dir}); err == nil || !strings.Contains(err.Error(), "internally inconsistent") {
		t.Fatalf("err = %v, want the checkpoint refused as inconsistent", err)
	}
}

// TestConcurrentBatchReplays shares one fresh emulator between two
// goroutines that replay at once, so both race to build its columnar
// feed: each must still match a per-event replay of its policy.
func TestConcurrentBatchReplays(t *testing.T) {
	ds, err := synth.Generate(synth.Config{Seed: 11, Users: 120})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TargetUtilization: 0.5}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pols := []string{"flt", "activedr"}
	got := make([]*Result, len(pols))
	errs := make([]error, len(pols))
	var wg sync.WaitGroup
	for i, pol := range pols {
		p := policyFor(t, em, pol)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = em.Run(p)
		}()
	}
	wg.Wait()
	for i, pol := range pols {
		if errs[i] != nil {
			t.Fatalf("%s: %v", pol, errs[i])
		}
		ref, err := New(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := perEventRun(ref, policyFor(t, ref, pol), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want, got[i])
	}
}
