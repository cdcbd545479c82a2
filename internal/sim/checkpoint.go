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
//	t000042-000042/   one checkpoint (trigger count, checkpoint
//	                  sequence), written atomically (tmp + fsync + rename)
//	  state.json      cursor, trigger clock, result-so-far, fault state
//	  fs.tsv.gz       full vfs snapshot via the trace.Snapshot codec
//	  delta.tsv.gz    (delta checkpoints) upserts since the base
//	  deleted.gz      (delta checkpoints) paths removed since the base,
//	                  one per line via trace.WritePathsFile
//	  captured.tsv.gz CaptureAt snapshot, when taken since the base
//	  snapshots/      SnapshotEvery series files new since the base
//
// With RunOptions.CheckpointFullEvery ≤ 1 every checkpoint is full
// (fs.tsv.gz holds every file and sidecars are complete), the
// historical format. With K > 1 only every Kth checkpoint is full;
// the ones between carry a delta against their base (state.json's
// "base" field names the previous checkpoint), so checkpoint cost
// scales with the mutation rate instead of the namespace size. Loading a
// delta walks the base chain back to the nearest full checkpoint and
// replays upserts and deletions forward.
//
// Names strictly increase along a run, resumes included, so a chain
// is a contiguous run of names and pruning needs no state.json: after
// each publish it deletes every checkpoint outside the range from the
// previous checkpoint's chain start to the one just published.
//
// Checkpoints are taken right after a trigger's purge ran, so the
// serialized state is exactly the uninterrupted run's state at that
// boundary: a resumed run replays bit-for-bit (see
// TestCheckpointResumeDeterminism, TestDeltaCheckpointResume).
//
// A checkpoint is taken in two halves. The capture (saveCheckpoint)
// runs on the applier at the trigger and only copies state into
// memory; the vfs hands a delta its dirty window ready-made, so a
// delta capture does no walk. The write (ckptCapture.write)
// formats, compresses, fsyncs and publishes the capture on the
// stream's writer, off the replay's path; stream.go keeps at most
// maxCkptWrites of them in flight and publishes them in order.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
	latestFile   = "LATEST"
	stateFile    = "state.json"
	fsFile       = "fs.tsv.gz"
	deltaFile    = "delta.tsv.gz"
	deletedFile  = "deleted.gz"
	capturedFile = "captured.tsv.gz"
	snapsSubdir  = "snapshots"
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

// maxCkptWrites bounds the checkpoint writes a stream keeps in
// flight. A capture that finds this many still running waits for the
// oldest, so a writer that falls behind slows the replay down instead
// of queueing captures without limit.
const maxCkptWrites = 2

// ckptCapture is one checkpoint copied off the replay state at its
// trigger: everything its write reads, owned by the write once
// queued.
type ckptCapture struct {
	dir, name string
	users     []trace.User
	fs        *trace.Snapshot          // full checkpoint: every file, in slab order until write sorts it
	dirty     map[string]vfs.DirtyFile // delta checkpoint: the window since its base
	captured  *trace.Snapshot          // the CaptureAt sidecar, when this checkpoint carries it
	snaps     []*trace.Snapshot        // series files new to this checkpoint
	snapsFrom int                      // series index of snaps[0]
	state     checkpointState
	// prevStart is the chain start of the checkpoint before this one,
	// the lower bound of the prune after this one publishes.
	prevStart string
}

// saveCheckpoint is the capture half of a checkpoint, run on the
// applier at the trigger that just fired at `at`. It only copies
// state into memory: every file, unsorted, for a full checkpoint, the
// dirty window for a delta. It advances the run's checkpoint bookkeeping as
// if the checkpoint had already published, so the next capture can
// base a delta on it; write does the rest.
func (e *Emulator) saveCheckpoint(opts RunOptions, policy retention.Policy, st *runState, at timeutil.Time) *ckptCapture {
	c := &ckptCapture{
		dir: opts.CheckpointDir,
		// The checkpoint sequence number makes every save's name fresh
		// and sorting after the previous one — also the daemon's drain
		// checkpoint, taken under a trigger count that already has one.
		name:      fmt.Sprintf("t%06d-%06d", st.triggers, st.ckpts+1),
		users:     e.ds.Users,
		prevStart: st.chainStart,
	}
	kind := kindFull
	if opts.CheckpointFullEvery > 1 && st.ckpts%opts.CheckpointFullEvery != 0 && st.lastCkpt != "" {
		kind = kindDelta
	}
	if kind == kindFull {
		c.fs = st.fsys.SnapshotUnsorted(at)
		st.fsys.TakeDirty() // a full snapshot resets the delta window
		st.chainStart = c.name
	} else {
		c.dirty = st.fsys.TakeDirty()
		c.snapsFrom = st.snapsSaved // earlier series files live in the base chain
	}
	if st.res.Captured != nil && (kind == kindFull || !st.capturedSaved) {
		c.captured = st.res.Captured.Snapshot(e.cfg.CaptureAt)
	}
	c.snaps = slices.Clone(st.res.Snapshots[c.snapsFrom:])
	c.state = checkpointState{
		Version:       checkpointVersion,
		Policy:        policy.Name(),
		Config:        e.cfg.digest(),
		Kind:          kind,
		Ckpts:         st.ckpts + 1,
		At:            int64(at),
		Cursor:        st.cursor,
		NextTrigger:   int64(st.nextTrigger),
		RanksAt:       int64(st.ranking.cur.at),
		Captured:      st.captured,
		LastSnap:      int64(st.lastSnap),
		Triggers:      st.triggers,
		TotalAccesses: st.res.TotalAccesses,
		TotalMisses:   st.res.TotalMisses,
		RestoredFiles: st.res.RestoredFiles,
		RestoredBytes: st.res.RestoredBytes,
		MissesByGroup: st.res.MissesByGroup,
		// The replay keeps appending to both slices and counting into
		// the newest day while the write runs.
		Days:         slices.Clone(st.res.Days),
		Reports:      slices.Clone(st.res.Reports),
		HasCaptured:  st.res.Captured != nil,
		NumSnapshots: len(st.res.Snapshots),
	}
	if kind == kindDelta {
		c.state.Base = st.lastCkpt
	}
	if opts.Faults != nil {
		fs := opts.Faults.State()
		c.state.Faults = &fs
	}
	if reg := opts.Obs.Registry(); reg != nil {
		snap := reg.Snapshot()
		c.state.Metrics = &snap
	}
	st.ckpts++
	st.lastCkpt = c.name
	st.snapsSaved = len(st.res.Snapshots)
	st.capturedSaved = st.res.Captured != nil
	return c
}

// write is the second half of a checkpoint, run on the stream's
// writer. It formats and compresses the capture into a temporary
// directory and fsyncs it, then atomically publishes it via LATEST
// and prunes old checkpoints. A crash at any point leaves either the
// previous or the new checkpoint intact, never a torn one.
func (c *ckptCapture) write() error {
	tmp := filepath.Join(c.dir, c.name+".tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if c.fs != nil {
		sortByPath(c.fs.Entries)
		if err := trace.WriteSnapshotFile(filepath.Join(tmp, fsFile), c.users, c.fs); err != nil {
			return fmt.Errorf("fs: %w", err)
		}
	} else if err := writeDelta(tmp, c.users, timeutil.Time(c.state.At), c.dirty); err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	if c.captured != nil {
		if err := trace.WriteSnapshotFile(filepath.Join(tmp, capturedFile), c.users, c.captured); err != nil {
			return fmt.Errorf("captured: %w", err)
		}
	}
	if len(c.snaps) > 0 {
		sd := filepath.Join(tmp, snapsSubdir)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return err
		}
		for i, s := range c.snaps {
			if err := trace.WriteSnapshotFile(filepath.Join(sd, seriesName(c.snapsFrom+i)), c.users, s); err != nil {
				return fmt.Errorf("snapshot %d: %w", c.snapsFrom+i, err)
			}
		}
	}
	blob, err := json.MarshalIndent(&c.state, "", " ")
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, stateFile), blob, 0o644); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	// A durable rename does not make the files under it durable:
	// without these fsyncs a power cut after LATEST moves, and after
	// the daemon pruned its WAL up to this checkpoint, could leave its
	// files empty.
	if err := syncTree(tmp); err != nil {
		return err
	}
	if err := clearStale(c.dir, c.name); err != nil {
		return err
	}
	if err := fsx.RenameDurable(tmp, filepath.Join(c.dir, c.name)); err != nil {
		return err
	}
	// LATEST is the durability linchpin: fsx.WriteFileAtomic fsyncs
	// the pointer file before the rename and the directory after it,
	// so a crash can never resurrect a stale pointer to a pruned
	// checkpoint (see TestLatestPointerDurability).
	if err := fsx.WriteFileAtomic(filepath.Join(c.dir, latestFile), []byte(c.name+"\n"), 0o644); err != nil {
		return err
	}
	pruneCheckpoints(c.dir, c.prevStart, c.name)
	return nil
}

// sortByPath puts snapshot entries in path order, the order every
// snapshot a run emits holds.
func sortByPath(es []trace.SnapshotEntry) {
	slices.SortFunc(es, func(a, b trace.SnapshotEntry) int { return strings.Compare(a.Path, b.Path) })
}

// writeDelta persists a delta checkpoint's dirty window into dir: the
// upserts as a snapshot taken at `at`, the removals as a path list,
// each in path order.
func writeDelta(dir string, users []trace.User, at timeutil.Time, dirty map[string]vfs.DirtyFile) error {
	upserts := &trace.Snapshot{Taken: at, Entries: make([]trace.SnapshotEntry, 0, len(dirty))}
	var deleted []string
	for p, d := range dirty {
		if d.Removed {
			deleted = append(deleted, p)
			continue
		}
		m := d.Meta
		upserts.Entries = append(upserts.Entries, trace.SnapshotEntry{
			Path: p, User: m.User, Size: m.Size, Stripes: m.Stripes, ATime: m.ATime,
		})
	}
	slices.SortFunc(upserts.Entries, func(a, b trace.SnapshotEntry) int { return strings.Compare(a.Path, b.Path) })
	slices.Sort(deleted)
	if err := trace.WriteSnapshotFile(filepath.Join(dir, deltaFile), users, upserts); err != nil {
		return err
	}
	return trace.WritePathsFile(filepath.Join(dir, deletedFile), deleted)
}

// CheckpointError reports a checkpoint write that failed. The replay
// state it captured is intact in memory, but no checkpoint of the
// stream publishes after it: the chain on disk ends at the last one
// that did, and every later checkpoint or Wait returns this error.
type CheckpointError struct {
	Name string // the checkpoint that failed to publish
	Err  error
}

func (e *CheckpointError) Error() string { return fmt.Sprintf("sim: checkpoint %s: %v", e.Name, e.Err) }

func (e *CheckpointError) Unwrap() error { return e.Err }

// syncTree fsyncs every file under root, then every directory
// bottom-up, root last. The files were written by writers that do not
// sync (trace.WriteSnapshotFile also serves tracegen, which must not
// pay for it); an fsync through a fresh descriptor flushes the same
// inode.
func syncTree(root string) error {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, p)
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		serr := fsx.SyncFile(f)
		if cerr := f.Close(); serr == nil {
			serr = cerr
		}
		return serr
	})
	if err != nil {
		return err
	}
	for i := len(dirs) - 1; i >= 0; i-- {
		if err := fsx.SyncDir(dirs[i]); err != nil {
			return err
		}
	}
	return nil
}

// clearStale removes a directory already holding name: debris of a
// save killed between its rename and LATEST, or of a run abandoned in
// this directory. Within one run names never repeat, so only an
// abandoned run's LATEST can still name it; that pointer is withdrawn
// first, because LATEST must never name a missing checkpoint.
func clearStale(dir, name string) error {
	final := filepath.Join(dir, name)
	if _, err := os.Stat(final); err != nil {
		return nil
	}
	if cur, err := readLatest(dir); err == nil && cur == name {
		if err := os.Remove(filepath.Join(dir, latestFile)); err != nil {
			return err
		}
		if err := fsx.SyncDir(dir); err != nil {
			return err
		}
	}
	return os.RemoveAll(final)
}

// seriesName numbers checkpointed snapshot-series files; an index
// keeps same-day snapshots distinct, unlike the date-based public
// series naming.
func seriesName(i int) string { return fmt.Sprintf("s%05d.tsv.gz", i) }

// pruneCheckpoints runs after `to` was published and deletes every
// checkpoint directory outside [from, to], where from is the chain
// start of the checkpoint published before it ("" when there was
// none: only to's own chain, itself, is then kept). A delta bases on
// the checkpoint written just before it, so the range holds both
// checkpoints' chains; names below it are superseded, names above it
// and *.tmp directories are debris of killed saves or of a run
// abandoned here. Best-effort: a failed removal costs disk, never the
// run.
func pruneCheckpoints(dir, from, to string) {
	if from == "" {
		from = to
	}
	if from > to {
		// Only a version-2 state stored under a name of this format,
		// which no writer produces, gets here: v2 carries no sequence,
		// so a save under its trigger count sorts below it. Keep
		// everything.
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		n := ent.Name()
		if !ent.IsDir() || !strings.HasPrefix(n, "t") {
			continue
		}
		if strings.HasSuffix(n, ".tmp") || n < from || n > to {
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
// emulator configuration match the ones that wrote it. The restored
// namespace is the one lane of a group with handle slots for pathCap
// path ids.
func (e *Emulator) loadCheckpoint(policy retention.Policy, opts RunOptions, pathCap int) (*runState, error) {
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
	// Likewise the ranks are those of the last trigger (or the
	// snapshot), strictly before the next one; the resumed ranker
	// evaluates forward from there.
	if cs.RanksAt >= cs.NextTrigger {
		return nil, fmt.Errorf("sim: checkpoint %s is internally inconsistent: ranked at t=%d but next trigger t=%d is not later", name, cs.RanksAt, cs.NextTrigger)
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
	fsys, err := vfs.FromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint %s: %w", full, err)
	}
	for i := len(chain) - 2; i >= 0; i-- {
		dn := chain[i]
		deleted, err := trace.ReadPathsFile(filepath.Join(dir, dn, deletedFile))
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: delta %s: %w", name, dn, err)
		}
		for _, p := range deleted {
			fsys.Remove(p)
		}
		up, err := trace.ReadSnapshotFile(filepath.Join(dir, dn, deltaFile), idx)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint %s: delta %s: %w", name, dn, err)
		}
		for i := range up.Entries {
			ue := &up.Entries[i]
			if err := fsys.Insert(ue.Path, vfs.FileMeta{User: ue.User, Size: ue.Size, Stripes: ue.Stripes, ATime: ue.ATime}); err != nil {
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
	group := vfs.AdoptLaneGroup(fsys, 1, pathCap)
	st := &runState{
		group:       group,
		fsys:        group.Lane(0),
		res:         res,
		cursor:      cs.Cursor,
		nextTrigger: timeutil.Time(cs.NextTrigger),
		captured:    cs.Captured,
		lastSnap:    timeutil.Time(cs.LastSnap),
		triggers:    cs.Triggers,
		ranking:     e.newRanker(),
		// Deltas written after this resume base on the checkpoint we
		// just loaded, with the sidecars it already accounts for.
		ckpts:         cs.Ckpts,
		lastCkpt:      name,
		chainStart:    chain[len(chain)-1],
		snapsSaved:    cs.NumSnapshots,
		capturedSaved: cs.HasCaptured,
	}
	// The rank table is not serialized: it is a pure function of the
	// (identically rebuilt) activeness evaluator and the evaluation
	// time recorded in the checkpoint. The fresh cursors fast-forward
	// to RanksAt here, without a worker, and advance with the resumed
	// triggers: a batch replay's worker starts at the next one.
	st.ranking.evalAll(timeutil.Time(cs.RanksAt))
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
// The checkpoint's cursor may fall inside a day batch (a drain
// checkpoint, Stream.Checkpoint); the replay then starts with the
// rest of that batch.
func (e *Emulator) Resume(policy retention.Policy, opts RunOptions) (*Result, error) {
	if opts.CheckpointDir == "" {
		return nil, errors.New("sim: Resume requires RunOptions.CheckpointDir")
	}
	feed, err := e.columnar()
	if err != nil {
		return nil, err
	}
	st, err := e.loadCheckpoint(policy, opts, len(feed.paths))
	if err != nil {
		return nil, err
	}
	st.ranking.start(st.nextTrigger, lastEvent(e.ds), e.cfg.TriggerInterval)
	defer st.ranking.halt()
	return e.runLane(policy, opts, st, feed)
}
