package sim

// Golden replay digests. Every cell of a fixed replay matrix records
// the SHA-256 of five artifacts in testdata/golden.json:
//
//	result   the Result as JSON, wall-clock fields zeroed and the
//	         file systems left out (they are digested below)
//	state    the latest checkpoint's state.json, reports' wall clock
//	         zeroed
//	sidecar  the latest checkpoint's fs.tsv.gz, decompressed
//	final    the final namespace (then the CaptureAt namespace, when
//	         the cell captures one) as snapshot TSV
//	metrics  the obs registry snapshot at the end of the run
//
// plus the checkpoint's config fingerprint in the clear, so a format
// change to Config.digest() (which would orphan saved checkpoints)
// shows up as a readable diff. The digests pin what a replay
// produces, not how: any refactor of the replay, the namespace or the
// candidate selection must leave every digest in place. There is no
// update flag; a mismatch prints the digest the run computed.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/synth"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// goldenDigests is one cell's entry in testdata/golden.json.
type goldenDigests struct {
	Config  string `json:"config"`
	Result  string `json:"result"`
	State   string `json:"state"`
	Sidecar string `json:"sidecar"`
	Final   string `json:"final"`
	Metrics string `json:"metrics"`
}

const (
	goldenFile = "testdata/golden.json"
	// goldenEvery is the checkpoint cadence of every cell, and
	// goldenStop the trigger an interrupted cell stops at (a
	// checkpoint boundary, so the resume restarts exactly there).
	goldenEvery = 6
	goldenStop  = 6
	// goldenUsers sizes the synthetic populations.
	goldenUsers = 300
)

// goldenSeeds are the synthetic datasets of the per-policy cells.
var goldenSeeds = []uint64{11, 23}

func loadGolden(t *testing.T) map[string]goldenDigests {
	t.Helper()
	blob, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]goldenDigests
	if err := json.Unmarshal(blob, &g); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	return g
}

// goldenFaults returns a fresh injector for a faulted cell (nil when
// faults are off): seed 42, 5% unlink failures, 5% scan interrupts.
func goldenFaults(on bool) *faults.Injector {
	if !on {
		return nil
	}
	return faults.New(faults.Config{Seed: 42, UnlinkFailProb: 0.05, ScanInterruptProb: 0.05})
}

func goldenObserver(t *testing.T) *obs.Observer {
	t.Helper()
	o, err := obs.NewObserver(obs.NewRegistry(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func faultsLabel(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

func sumHex(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func digestJSON(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(blob)
	return hex.EncodeToString(s[:])
}

// goldenRun is what one replay leaves behind for digesting.
type goldenRun struct {
	res     *Result
	dir     string // checkpoint directory
	metrics obs.MetricsSnapshot
	users   []trace.User
}

// digests computes a run's cell entry.
func (r goldenRun) digests(t *testing.T) goldenDigests {
	t.Helper()
	stripElapsed(r.res)
	res := *r.res
	res.Final, res.Captured = nil, nil
	cs := normalizeCheckpoint(t, r.dir)
	d := goldenDigests{
		Config:  cs.Config,
		Result:  digestJSON(t, &res),
		State:   digestJSON(t, &cs),
		Metrics: digestJSON(t, r.metrics),
	}

	zr, err := gzip.NewReader(bytes.NewReader(readSidecar(t, r.dir)))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, zr); err != nil {
		t.Fatal(err)
	}
	d.Sidecar = sumHex(h)

	h = sha256.New()
	if err := trace.WriteSnapshot(h, r.users, r.res.Final.Snapshot(0)); err != nil {
		t.Fatal(err)
	}
	if r.res.Captured != nil {
		if err := trace.WriteSnapshot(h, r.users, r.res.Captured.Snapshot(0)); err != nil {
			t.Fatal(err)
		}
	}
	d.Final = sumHex(h)
	return d
}

// checkGolden compares a computed cell entry against the committed one.
func checkGolden(t *testing.T, golden map[string]goldenDigests, cell string, got goldenDigests) {
	t.Helper()
	want, ok := golden[cell]
	if !ok {
		blob, _ := json.Marshal(got)
		t.Errorf("golden-missing %q: %s", cell, blob)
		return
	}
	for _, f := range []struct{ name, got, want string }{
		{"config", got.Config, want.Config},
		{"result", got.Result, want.Result},
		{"state", got.State, want.State},
		{"sidecar", got.Sidecar, want.Sidecar},
		{"final", got.Final, want.Final},
		{"metrics", got.Metrics, want.Metrics},
	} {
		if f.got != f.want {
			t.Errorf("%s: %s digest %s, golden %s", cell, f.name, f.got, f.want)
		}
	}
}

// runSolo replays one policy under cfg — or, with resume set, stops at
// goldenStop and resumes from that checkpoint in a fresh emulator and
// observer. A non-nil base starts from that file system (NewWithBase).
func runSolo(t *testing.T, ds *trace.Dataset, base *vfs.FS, cfg Config, policy string, faultsOn, resume bool) goldenRun {
	t.Helper()
	newEm := func() *Emulator {
		var em *Emulator
		var err error
		if base != nil {
			em, err = NewWithBase(ds, base, cfg)
		} else {
			em, err = New(ds, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return em
	}
	dir := t.TempDir()
	if resume {
		em := newEm()
		if _, err := em.RunWith(policyFor(t, em, policy), RunOptions{
			CheckpointDir: dir, CheckpointEvery: goldenEvery, Faults: goldenFaults(faultsOn),
			Obs: goldenObserver(t), StopAfterTriggers: goldenStop,
		}); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("stop at trigger %d: %v", goldenStop, err)
		}
	}
	em := newEm()
	o := goldenObserver(t)
	opts := RunOptions{CheckpointDir: dir, CheckpointEvery: goldenEvery, Faults: goldenFaults(faultsOn), Obs: o}
	var res *Result
	var err error
	if resume {
		res, err = em.Resume(policyFor(t, em, policy), opts)
	} else {
		res, err = em.RunWith(policyFor(t, em, policy), opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{res: res, dir: dir, metrics: o.Registry().Snapshot(), users: ds.Users}
}

// TestReplayGolden replays the golden matrix:
//   - synthetic seeds 11 and 23 at 300 users × {FLT, ActiveDR} ×
//     {faults off, on} × {uninterrupted, stopped at trigger 6 and
//     resumed};
//   - the 4-lane multiplexed fixture sweep with faults off and on;
//   - a snapfile-backed NewWithBase start for each policy.
//
// The digests were recorded while two retired twins still ran beside
// the replay — a user-hash-sharded namespace at 1, 4 and 16 shards and
// a namespace-walk candidate selection — and every twin variant hit
// every digest, interrupted cells resuming under another shard count
// than they stopped under. Cells share their datasets read-only and
// run in parallel.
func TestReplayGolden(t *testing.T) {
	golden := loadGolden(t)
	cfg := Config{TargetUtilization: 0.5}
	datasets := make(map[uint64]*trace.Dataset, len(goldenSeeds))
	for _, seed := range goldenSeeds {
		ds, err := synth.Generate(synth.Config{Seed: seed, Users: goldenUsers})
		if err != nil {
			t.Fatal(err)
		}
		datasets[seed] = ds
	}
	for _, seed := range goldenSeeds {
		ds := datasets[seed]
		for _, policy := range []string{"flt", "adr"} {
			for _, faultsOn := range []bool{false, true} {
				for _, resume := range []bool{false, true} {
					mode := "run"
					if resume {
						mode = "resume"
					}
					cell := fmt.Sprintf("seed=%d/%s/faults=%s/%s", seed, policy, faultsLabel(faultsOn), mode)
					t.Run(cell, func(t *testing.T) {
						t.Parallel()
						checkGolden(t, golden, cell, runSolo(t, ds, nil, cfg, policy, faultsOn, resume).digests(t))
					})
				}
			}
		}
	}

	ds := datasets[goldenSeeds[0]]
	for _, faultsOn := range []bool{false, true} {
		prefix := fmt.Sprintf("mux/faults=%s", faultsLabel(faultsOn))
		t.Run(prefix, func(t *testing.T) {
			t.Parallel()
			lanes := multiplexFixtureLanes()
			observers := make([]*obs.Observer, len(lanes))
			for i := range lanes {
				observers[i] = goldenObserver(t)
				lanes[i].Opts = RunOptions{
					CheckpointDir: t.TempDir(), CheckpointEvery: goldenEvery,
					Faults: goldenFaults(faultsOn), Obs: observers[i],
				}
			}
			res, err := RunMultiplexed(ds, lanes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range lanes {
				run := goldenRun{res: res[i], dir: lanes[i].Opts.CheckpointDir,
					metrics: observers[i].Registry().Snapshot(), users: ds.Users}
				checkGolden(t, golden, fmt.Sprintf("%s/lane%d", prefix, i), run.digests(t))
			}
		})
	}

	snap := filepath.Join(t.TempDir(), "fs.snap")
	if err := vfs.WriteSnapfileFromSnapshot(snap, &ds.Snapshot); err != nil {
		t.Fatal(err)
	}
	sf, err := vfs.OpenSnapfile(snap)
	if err != nil {
		t.Fatal(err)
	}
	base, err := vfs.LoadSnapfileFS(sf)
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	// The snapfile start never consults the snapshot entries.
	bare := *ds
	bare.Snapshot = trace.Snapshot{Taken: ds.Snapshot.Taken}
	for _, policy := range []string{"flt", "adr"} {
		cell := "snapfile/" + policy
		t.Run(cell, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, golden, cell, runSolo(t, &bare, base, cfg, policy, false, false).digests(t))
		})
	}
}

// TestResumeRejectsLegacySelectionDigest pins checkpoint compatibility
// across the selection-path retirement: a checkpoint whose config
// fingerprint records the legacy path (sel=true) is refused with the
// ordinary config-mismatch error rather than resumed.
func TestResumeRejectsLegacySelectionDigest(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	dir := t.TempDir()
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunWith(policyFor(t, em, "adr"), RunOptions{
		CheckpointDir: dir, StopAfterTriggers: 2,
	}); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	editLatestState(t, dir, func(m map[string]any) {
		c := m["config"].(string)
		if !strings.HasSuffix(c, " sel=false") {
			t.Fatalf("config fingerprint %q lacks the sel=false token", c)
		}
		m["config"] = strings.TrimSuffix(c, "false") + "true"
	})
	em2, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = em2.Resume(policyFor(t, em2, "adr"), RunOptions{CheckpointDir: dir})
	if err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("resume of a sel=true checkpoint: got %v, want a config mismatch", err)
	}
}
