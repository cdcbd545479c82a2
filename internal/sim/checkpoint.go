package sim

// Checkpoint/resume for the replay emulator. A year-long replay over a
// production-scale trace can be killed at any point — node reboot,
// scheduler preemption, operator ctrl-C — so the emulator persists its
// full state at purge-trigger boundaries and reconstructs itself
// mid-year from the latest checkpoint.
//
// Layout under RunOptions.CheckpointDir:
//
//	LATEST            name of the newest complete checkpoint
//	t000042/          one checkpoint, written atomically (tmp + rename)
//	  state.json      cursor, trigger clock, result-so-far, fault state
//	  fs.tsv.gz       full vfs snapshot via the trace.Snapshot codec
//	  delta.tsv.gz    (delta checkpoints) upserts since the base
//	  deleted.gz      (delta checkpoints) paths removed since the base
//	  captured.tsv.gz CaptureAt snapshot, when taken since the base
//	  snapshots/      SnapshotEvery series files new since the base
//
// With RunOptions.CheckpointFullEvery ≤ 1 every checkpoint is full
// (fs.tsv.gz holds the whole tree and sidecars are complete), the
// historical format. With K > 1 only every Kth checkpoint is full;
// the ones between carry a delta against their base (state.json's
// "base" field names the previous checkpoint), so checkpoint cost
// scales with the mutation rate instead of the tree size. Loading a
// delta walks the base chain back to the nearest full checkpoint and
// replays upserts and deletions forward. Pruning protects the base
// chain of every kept checkpoint.
//
// Checkpoints are taken right after a trigger's purge ran, so the
// serialized state is exactly the uninterrupted run's state at that
// boundary: a resumed run replays bit-for-bit (see
// TestCheckpointResumeDeterminism, TestDeltaCheckpointResume).

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"activedr/internal/activeness"
	"activedr/internal/faults"
	"activedr/internal/fsx"
	"activedr/internal/obs"
	"activedr/internal/retention"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

const (
	latestFile      = "LATEST"
	stateFile       = "state.json"
	fsFile          = "fs.tsv.gz"
	deltaFile       = "delta.tsv.gz"
	deletedFile     = "deleted.gz"
	capturedFile    = "captured.tsv.gz"
	snapsSubdir     = "snapshots"
	keepCheckpoints = 2
	// maxDeltaChain caps how many delta links a loader will walk — a
	// cycle or runaway chain fails fast instead of spinning.
	maxDeltaChain = 1024

	kindFull  = "full"
	kindDelta = "delta"
)

// checkpointState is the JSON-serializable slice of runState plus the
// Result accumulated so far. The virtual file system, the CaptureAt
// clone, and the snapshot series travel as sidecar TSV files (the
// existing trace.Snapshot codec); everything else fits in JSON.
type checkpointState struct {
	Version int    `json:"version"`
	Policy  string `json:"policy"`
	Config  string `json:"config"`
	// Kind is "full" or "delta"; empty (v2 checkpoints) means full.
	// Base names the previous checkpoint a delta diffs against.
	Kind        string `json:"kind,omitempty"`
	Base        string `json:"base,omitempty"`
	Ckpts       int    `json:"ckpts,omitempty"` // checkpoints written so far, keys the full/delta cadence
	At          int64  `json:"at"`              // trigger time of this checkpoint
	Cursor      int    `json:"cursor"`
	NextTrigger int64  `json:"next_trigger"`
	RanksAt     int64  `json:"ranks_at"`
	Captured    bool   `json:"captured"`
	LastSnap    int64  `json:"last_snap"`
	Triggers    int    `json:"triggers"`

	TotalAccesses int64                       `json:"total_accesses"`
	TotalMisses   int64                       `json:"total_misses"`
	RestoredFiles int64                       `json:"restored_files"`
	RestoredBytes int64                       `json:"restored_bytes"`
	MissesByGroup [activeness.NumGroups]int64 `json:"misses_by_group"`
	Days          []DayStats                  `json:"days"`
	Reports       []*retention.Report         `json:"reports"`
	HasCaptured   bool                        `json:"has_captured"`
	NumSnapshots  int                         `json:"num_snapshots"`
	Faults        *faults.State               `json:"faults,omitempty"`
	// Metrics is the observability registry's state at this boundary
	// (omitted when the run is uninstrumented). Resume restores it
	// bit-identically so counters continue where the original run
	// left off; per-phase wall-clock times are measurement metadata
	// and deliberately never checkpointed.
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
}

// checkpointVersion 2 added a selection-path token (sel=) to the
// digest; that knob is retired and every build writes sel=false.
// Version 3 added the full/delta kind and base-chain fields; v2
// checkpoints are still accepted (they are exactly a v3 full
// checkpoint without the new fields), any other version fails fast.
const checkpointVersion = 3

// digest fingerprints the knobs that shape the replay so a resume
// against a different configuration is rejected instead of silently
// diverging. Reserved is excluded (not serializable); supplying the
// same exemption list on resume is the caller's contract. The trailing
// sel=false is the retired selection-path knob, kept literally so every
// saved checkpoint's fingerprint still matches.
func (c Config) digest() string {
	return c.digestAt(checkpointVersion)
}

// digestV2 is the fingerprint format version-2 checkpoints carry —
// identical fields, older version stamp — kept so the delta-aware
// reader can validate and accept them.
func (c Config) digestV2() string { return c.digestAt(2) }

func (c Config) digestAt(version int) string {
	return fmt.Sprintf("v%d life=%d period=%d trig=%d util=%g cap=%d retro=%d decay=%g capture=%d snap=%d logins=%t transfers=%t eq7=%t order=%d sel=false",
		version, c.Lifetime, c.PeriodLength, c.TriggerInterval,
		c.TargetUtilization, c.Capacity, c.RetroPasses, c.RetroDecay,
		c.CaptureAt, c.SnapshotEvery, c.UseLogins, c.UseTransfers,
		c.StrictEq7, c.Order)
}

// saveCheckpoint writes one complete checkpoint for the trigger that
// just fired at `at`, then atomically publishes it via LATEST and
// prunes old ones. A crash at any point leaves either the previous or
// the new checkpoint intact, never a torn one.
func (e *Emulator) saveCheckpoint(opts RunOptions, policy retention.Policy, st *runState, at timeutil.Time) error {
	dir := opts.CheckpointDir
	name := fmt.Sprintf("t%06d", st.triggers)
	tmp := filepath.Join(dir, name+".tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	// Decide full vs delta. A delta needs a distinct previous
	// checkpoint to diff against (the daemon's manual Checkpoint can
	// re-save under the same trigger count, which must not self-base).
	kind := kindFull
	if opts.CheckpointFullEvery > 1 && st.ckpts%opts.CheckpointFullEvery != 0 &&
		st.lastCkpt != "" && st.lastCkpt != name {
		kind = kindDelta
	}
	if kind == kindFull {
		if err := trace.WriteSnapshotFile(filepath.Join(tmp, fsFile), e.ds.Users, st.fsys.Snapshot(at)); err != nil {
			return fmt.Errorf("sim: checkpoint fs: %w", err)
		}
		st.fsys.TakeDirty() // a full snapshot resets the delta window
	} else {
		dirty := st.fsys.TakeDirty()
		upserts := &trace.Snapshot{Taken: at}
		var deleted []string
		for _, p := range dirty {
			if m, ok := st.fsys.Lookup(p); ok {
				upserts.Entries = append(upserts.Entries, trace.SnapshotEntry{
					Path: p, User: m.User, Size: m.Size, Stripes: m.Stripes, ATime: m.ATime,
				})
			} else {
				deleted = append(deleted, p)
			}
		}
		if err := trace.WriteSnapshotFile(filepath.Join(tmp, deltaFile), e.ds.Users, upserts); err != nil {
			return fmt.Errorf("sim: checkpoint delta: %w", err)
		}
		if err := writePathList(filepath.Join(tmp, deletedFile), deleted); err != nil {
			return fmt.Errorf("sim: checkpoint delta: %w", err)
		}
	}
	if st.res.Captured != nil && (kind == kindFull || !st.capturedSaved) {
		if err := trace.WriteSnapshotFile(filepath.Join(tmp, capturedFile), e.ds.Users, st.res.Captured.Snapshot(e.cfg.CaptureAt)); err != nil {
			return fmt.Errorf("sim: checkpoint captured: %w", err)
		}
	}
	snapsFrom := 0
	if kind == kindDelta {
		snapsFrom = st.snapsSaved // earlier series files live in the base chain
	}
	if len(st.res.Snapshots) > snapsFrom {
		sd := filepath.Join(tmp, snapsSubdir)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return fmt.Errorf("sim: checkpoint: %w", err)
		}
		for i := snapsFrom; i < len(st.res.Snapshots); i++ {
			if err := trace.WriteSnapshotFile(filepath.Join(sd, seriesName(i)), e.ds.Users, st.res.Snapshots[i]); err != nil {
				return fmt.Errorf("sim: checkpoint snapshot %d: %w", i, err)
			}
		}
	}
	cs := checkpointState{
		Version:       checkpointVersion,
		Policy:        policy.Name(),
		Config:        e.cfg.digest(),
		Kind:          kind,
		Ckpts:         st.ckpts + 1,
		At:            int64(at),
		Cursor:        st.cursor,
		NextTrigger:   int64(st.nextTrigger),
		RanksAt:       int64(st.ranksAt),
		Captured:      st.captured,
		LastSnap:      int64(st.lastSnap),
		Triggers:      st.triggers,
		TotalAccesses: st.res.TotalAccesses,
		TotalMisses:   st.res.TotalMisses,
		RestoredFiles: st.res.RestoredFiles,
		RestoredBytes: st.res.RestoredBytes,
		MissesByGroup: st.res.MissesByGroup,
		Days:          st.res.Days,
		Reports:       st.res.Reports,
		HasCaptured:   st.res.Captured != nil,
		NumSnapshots:  len(st.res.Snapshots),
	}
	if kind == kindDelta {
		cs.Base = st.lastCkpt
	}
	if opts.Faults != nil {
		fs := opts.Faults.State()
		cs.Faults = &fs
	}
	if reg := opts.Obs.Registry(); reg != nil {
		snap := reg.Snapshot()
		cs.Metrics = &snap
	}
	blob, err := json.MarshalIndent(&cs, "", " ")
	if err != nil {
		return fmt.Errorf("sim: checkpoint state: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, stateFile), blob, 0o644); err != nil {
		return fmt.Errorf("sim: checkpoint state: %w", err)
	}
	final := filepath.Join(dir, name)
	// A stale directory with this trigger count can linger from a
	// previous incarnation killed before publishing LATEST.
	if err := os.RemoveAll(final); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	if err := fsx.RenameDurable(tmp, final); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	// LATEST is the durability linchpin: fsx.WriteFileAtomic fsyncs
	// the pointer file before the rename and the directory after it,
	// so a crash can never resurrect a stale pointer to a pruned
	// checkpoint (see TestLatestPointerDurability).
	if err := fsx.WriteFileAtomic(filepath.Join(dir, latestFile), []byte(name+"\n"), 0o644); err != nil {
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	st.ckpts++
	st.lastCkpt = name
	st.snapsSaved = len(st.res.Snapshots)
	st.capturedSaved = st.res.Captured != nil
	pruneCheckpoints(dir, keepCheckpoints)
	return nil
}

// writePathList persists a sorted newline-separated path list, gzip
// compressed — the deletions side of a delta checkpoint.
func writePathList(path string, paths []string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	for _, p := range paths {
		if _, err := zw.Write([]byte(p)); err != nil {
			return err
		}
		if _, err := zw.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return zw.Close()
}

// readPathList reads a writePathList file.
func readPathList(path string) (paths []string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		paths = append(paths, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return paths, zr.Close()
}

// seriesName numbers checkpointed snapshot-series files; an index
// keeps same-day snapshots distinct, unlike the date-based public
// series naming.
func seriesName(i int) string { return fmt.Sprintf("s%05d.tsv.gz", i) }

// pruneCheckpoints removes all but the newest keep checkpoint
// directories, never touching a checkpoint some kept checkpoint's
// delta chain still bases on. Best-effort: pruning failures (or an
// unreadable kept state, which makes the chain unknowable) never fail
// the run — they just skip the prune.
func pruneCheckpoints(dir string, keep int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var names []string
	for _, ent := range entries {
		n := ent.Name()
		if ent.IsDir() && strings.HasPrefix(n, "t") && !strings.HasSuffix(n, ".tmp") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) <= keep {
		return
	}
	protected := make(map[string]bool)
	for _, n := range names[len(names)-keep:] {
		protected[n] = true
	}
	// Follow every kept checkpoint's base chain; each link is needed
	// to reconstruct the one above it.
	for _, n := range names[len(names)-keep:] {
		cur := n
		for hops := 0; hops < maxDeltaChain; hops++ {
			blob, err := os.ReadFile(filepath.Join(dir, cur, stateFile))
			if err != nil {
				return // chain unknowable: keep everything
			}
			var cs struct {
				Kind string `json:"kind"`
				Base string `json:"base"`
			}
			if err := json.Unmarshal(blob, &cs); err != nil {
				return
			}
			if cs.Kind != kindDelta || cs.Base == "" || protected[cs.Base] {
				break
			}
			protected[cs.Base] = true
			cur = cs.Base
		}
	}
	for _, n := range names {
		if !protected[n] {
			os.RemoveAll(filepath.Join(dir, n))
		}
	}
}

// HasCheckpoint reports whether dir holds a complete checkpoint to
// resume from.
func HasCheckpoint(dir string) bool {
	name, err := readLatest(dir)
	if err != nil {
		return false
	}
	_, err = os.Stat(filepath.Join(dir, name, stateFile))
	return err == nil
}

func readLatest(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, latestFile))
	if err != nil {
		return "", err
	}
	name := strings.TrimSpace(string(b))
	if name == "" || strings.Contains(name, "/") {
		return "", fmt.Errorf("sim: corrupt %s in %s", latestFile, dir)
	}
	return name, nil
}

// loadCheckpoint reconstructs the runState recorded in the latest
// checkpoint under opts.CheckpointDir, validating that the policy and
// emulator configuration match the ones that wrote it.
func (e *Emulator) loadCheckpoint(policy retention.Policy, opts RunOptions) (*runState, error) {
	dir := opts.CheckpointDir
	name, err := readLatest(dir)
	if err != nil {
		return nil, fmt.Errorf("sim: no checkpoint in %s: %w", dir, err)
	}
	ckdir := filepath.Join(dir, name)
	blob, err := os.ReadFile(filepath.Join(ckdir, stateFile))
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
	}
	var cs checkpointState
	if err := json.Unmarshal(blob, &cs); err != nil {
		return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
	}
	wantDigest := e.cfg.digest()
	switch cs.Version {
	case checkpointVersion:
	case 2:
		// A v2 checkpoint is exactly a v3 full checkpoint without the
		// kind/base fields; accept it against the v2 digest format.
		wantDigest = e.cfg.digestV2()
		if cs.Kind != "" && cs.Kind != kindFull {
			return nil, fmt.Errorf("sim: checkpoint %s has version 2 but kind %q; refusing to guess its layout", name, cs.Kind)
		}
	default:
		return nil, fmt.Errorf("sim: checkpoint %s has version %d; this build reads versions 2 and %d — refusing to resume from an unknown format", name, cs.Version, checkpointVersion)
	}
	if cs.Policy != policy.Name() {
		return nil, fmt.Errorf("sim: checkpoint %s was written by policy %q, resuming with %q", name, cs.Policy, policy.Name())
	}
	if cs.Config != wantDigest {
		return nil, fmt.Errorf("sim: checkpoint %s config mismatch:\n  have %s\n  want %s", name, wantDigest, cs.Config)
	}
	// At records the trigger this checkpoint was taken on; the next
	// trigger the resumed run waits for can never be earlier. A
	// violation means the state file was hand-edited or mixed from
	// two different runs, and resuming would replay events the
	// checkpoint already accounted for.
	if cs.At > cs.NextTrigger {
		return nil, fmt.Errorf("sim: checkpoint %s is internally inconsistent: taken at t=%d but next trigger t=%d is earlier", name, cs.At, cs.NextTrigger)
	}
	if cs.Faults != nil && opts.Faults == nil {
		return nil, fmt.Errorf("sim: checkpoint %s carries fault-injector state but no injector was provided", name)
	}

	idx := trace.NameIndex(e.ds.Users)
	// chain lists the checkpoints contributing state, newest first:
	// the loaded one, its base, ..., down to the nearest full one.
	chain := []string{name}
	if cs.Kind == kindDelta {
		cur := cs.Base
		for hops := 0; ; hops++ {
			if cur == "" {
				return nil, fmt.Errorf("sim: checkpoint %s: delta chain member without a base", name)
			}
			if hops >= maxDeltaChain {
				return nil, fmt.Errorf("sim: checkpoint %s: delta chain exceeds %d links", name, maxDeltaChain)
			}
			blob, err := os.ReadFile(filepath.Join(dir, cur, stateFile))
			if err != nil {
				return nil, fmt.Errorf("sim: checkpoint %s: base %s: %w", name, cur, err)
			}
			var base struct {
				Version int    `json:"version"`
				Kind    string `json:"kind"`
				Base    string `json:"base"`
			}
			if err := json.Unmarshal(blob, &base); err != nil {
				return nil, fmt.Errorf("sim: checkpoint %s: base %s: %w", name, cur, err)
			}
			if base.Version != checkpointVersion && base.Version != 2 {
				return nil, fmt.Errorf("sim: checkpoint %s: base %s has version %d", name, cur, base.Version)
			}
			chain = append(chain, cur)
			if base.Kind != kindDelta {
				break
			}
			cur = base.Base
		}
	}
	// Rebuild the file system: the chain tail's full snapshot, then
	// each delta's deletions and upserts replayed oldest to newest.
	full := chain[len(chain)-1]
	snap, err := trace.ReadSnapshotFile(filepath.Join(dir, full, fsFile), idx)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint %s: %w", full, err)
	}
	tree, err := vfs.FromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint %s: %w", full, err)
	}
	for i := len(chain) - 2; i >= 0; i-- {
		dn := chain[i]
		deleted, err := readPathList(filepath.Join(dir, dn, deletedFile))
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: delta %s: %w", name, dn, err)
		}
		for _, p := range deleted {
			tree.Remove(p)
		}
		up, err := trace.ReadSnapshotFile(filepath.Join(dir, dn, deltaFile), idx)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: delta %s: %w", name, dn, err)
		}
		for i := range up.Entries {
			ue := &up.Entries[i]
			if err := tree.Insert(ue.Path, vfs.FileMeta{User: ue.User, Size: ue.Size, Stripes: ue.Stripes, ATime: ue.ATime}); err != nil {
				return nil, fmt.Errorf("sim: checkpoint %s: delta %s: %w", name, dn, err)
			}
		}
	}
	res := &Result{
		Policy:        cs.Policy,
		Days:          cs.Days,
		Reports:       cs.Reports,
		TotalAccesses: cs.TotalAccesses,
		TotalMisses:   cs.TotalMisses,
		RestoredFiles: cs.RestoredFiles,
		RestoredBytes: cs.RestoredBytes,
		MissesByGroup: cs.MissesByGroup,
	}
	// Sidecars (the CaptureAt clone and the snapshot series) live in
	// the newest chain member that wrote them: full checkpoints carry
	// everything, deltas only what appeared since their base.
	if cs.HasCaptured {
		cpath, err := findInChain(dir, chain, capturedFile)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
		}
		csnap, err := trace.ReadSnapshotFile(cpath, idx)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
		}
		if res.Captured, err = vfs.FromSnapshot(csnap); err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
		}
	}
	for i := 0; i < cs.NumSnapshots; i++ {
		spath, err := findInChain(dir, chain, filepath.Join(snapsSubdir, seriesName(i)))
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
		}
		s, err := trace.ReadSnapshotFile(spath, idx)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
		}
		res.Snapshots = append(res.Snapshots, s)
	}
	if cs.Faults != nil {
		opts.Faults.Restore(*cs.Faults)
	}
	// Metrics restore is best-effort by design: resuming without an
	// observer (or with an events-only one) just drops the counter
	// state, since — unlike fault-injector state — it never shapes
	// the replay. A malformed snapshot still fails the load.
	if cs.Metrics != nil {
		if reg := opts.Obs.Registry(); reg != nil {
			if err := reg.Restore(*cs.Metrics); err != nil {
				return nil, fmt.Errorf("sim: checkpoint %s: %w", name, err)
			}
		}
	}
	// cs.Ckpts is 0 for v2 checkpoints, which don't carry the cadence
	// counter; that makes the resumed run's next checkpoint full,
	// which is always safe.
	st := &runState{
		fsys:        tree,
		res:         res,
		cursor:      cs.Cursor,
		nextTrigger: timeutil.Time(cs.NextTrigger),
		ranksAt:     timeutil.Time(cs.RanksAt),
		captured:    cs.Captured,
		lastSnap:    timeutil.Time(cs.LastSnap),
		triggers:    cs.Triggers,
		cursors:     e.eval.NewCursors(),
		// Deltas written after this resume base on the checkpoint we
		// just loaded, with the sidecars it already accounts for.
		ckpts:         cs.Ckpts,
		lastCkpt:      name,
		snapsSaved:    cs.NumSnapshots,
		capturedSaved: cs.HasCaptured,
	}
	st.ranker = func(at timeutil.Time) []activeness.Rank {
		return st.cursors.EvaluateAll(e.users, at)
	}
	// The rank table is not serialized: it is a pure function of the
	// (identically rebuilt) activeness evaluator and the evaluation
	// time recorded in the checkpoint. The fresh cursors fast-forward
	// to ranksAt here and advance with the resumed triggers.
	st.ranks = st.ranker(st.ranksAt)
	return st, nil
}

// findInChain locates rel in the newest chain member carrying it.
func findInChain(dir string, chain []string, rel string) (string, error) {
	for _, n := range chain {
		p := filepath.Join(dir, n, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("sidecar %s missing from chain %v", rel, chain)
}

// Resume continues an interrupted replay from the latest checkpoint
// under opts.CheckpointDir. The emulator must be built over the same
// dataset and configuration, and policy must match the interrupted
// run; the result is bit-for-bit identical to the uninterrupted run.
func (e *Emulator) Resume(policy retention.Policy, opts RunOptions) (*Result, error) {
	if opts.CheckpointDir == "" {
		return nil, errors.New("sim: Resume requires RunOptions.CheckpointDir")
	}
	st, err := e.loadCheckpoint(policy, opts)
	if err != nil {
		return nil, err
	}
	return e.replay(policy, opts, st)
}

// Resume is the package-level convenience: rebuild an Emulator from
// the dataset and configuration, then continue the interrupted run.
func Resume(ds *trace.Dataset, cfg Config, policy retention.Policy, opts RunOptions) (*Result, error) {
	e, err := New(ds, cfg)
	if err != nil {
		return nil, err
	}
	return e.Resume(policy, opts)
}
