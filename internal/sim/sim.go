// Package sim implements the emulation-based evaluation procedure of
// the paper's §4.1.3: load the reference metadata snapshot into the
// virtual file system, replay the application (file
// access) log day by day, trigger the retention policy on a fixed
// interval (the paper: every 7 days), and count a file miss whenever
// a replayed access touches a path the policy has purged. Misses are
// attributed to the owner's activeness group as classified at the
// most recent trigger, which yields the per-group series of
// Figures 6–8.
package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"activedr/internal/activeness"
	"activedr/internal/archive"
	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/profiling"
	"activedr/internal/retention"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// Config parameterizes an emulation run.
type Config struct {
	// Lifetime is the initial file lifetime d (paper: 90 days, with
	// 7/30/60-day variants).
	Lifetime timeutil.Duration
	// PeriodLength is the activeness period; the paper couples it to
	// the lifetime setting, which Defaults reproduces when unset.
	PeriodLength timeutil.Duration
	// TriggerInterval separates purge runs (paper: 7 days).
	TriggerInterval timeutil.Duration
	// TargetUtilization and Capacity define ActiveDR's purge target
	// (paper: 50% of the reference snapshot's total bytes). Capacity
	// 0 derives it from the loaded snapshot.
	TargetUtilization float64
	Capacity          int64
	// RetroPasses / RetroDecay configure ActiveDR's retrospective
	// scans (paper: 5 passes, 20% decay).
	RetroPasses int
	RetroDecay  float64
	// Reserved is the purge exemption list applied by both policies.
	Reserved *vfs.ReservedSet
	// CaptureAt, when non-zero, snapshots the file system state at the
	// first trigger ≥ CaptureAt into Result.Captured (used to rebuild
	// the paper's mid-2016 snapshot for Figures 9–11).
	CaptureAt timeutil.Time
	// SnapshotEvery, when positive, captures a metadata snapshot of
	// the evolving file system at every trigger whose spacing from the
	// previous capture is at least this long — the weekly snapshot
	// series a facility like OLCF archives. The snapshots land in
	// Result.Snapshots.
	SnapshotEvery timeutil.Duration
	// UseLogins / UseTransfers add the dataset's optional shell-login
	// and data-transfer logs as extra operation activity types (Table
	// 2 of the paper; the reference configuration uses jobs and
	// publications only).
	UseLogins    bool
	UseTransfers bool
	// StrictEq7 and Order pass through to ActiveDR (ablations).
	StrictEq7 bool
	Order     retention.ScanOrder
}

// Defaults fills unset knobs with the paper's values.
func (c Config) Defaults() Config {
	if c.Lifetime == 0 {
		c.Lifetime = timeutil.Days(90)
	}
	if c.PeriodLength == 0 {
		c.PeriodLength = c.Lifetime
	}
	if c.TriggerInterval == 0 {
		c.TriggerInterval = timeutil.Days(7)
	}
	if c.RetroPasses == 0 {
		c.RetroPasses = 5
	}
	if c.RetroDecay == 0 {
		c.RetroDecay = 0.8
	}
	return c
}

// DayStats aggregates one replay day.
type DayStats struct {
	Day      timeutil.Time
	Accesses int64
	Misses   int64
	ByGroup  [activeness.NumGroups]struct {
		Accesses int64
		Misses   int64
	}
}

// MissRatio returns misses/accesses for the day (0 when idle).
func (d DayStats) MissRatio() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return float64(d.Misses) / float64(d.Accesses)
}

// Result is the outcome of one emulation run.
type Result struct {
	Policy        string
	Days          []DayStats
	Reports       []*retention.Report
	TotalAccesses int64
	TotalMisses   int64
	// RestoredFiles/RestoredBytes tally the archive recalls misses
	// forced (each missed file is restored once per miss).
	RestoredFiles int64
	RestoredBytes int64
	// MissesByGroup sums misses per activeness group.
	MissesByGroup [activeness.NumGroups]int64
	// Captured is the file-system state at Config.CaptureAt (nil
	// unless requested).
	Captured *vfs.FS
	// Snapshots is the periodic metadata snapshot series (empty unless
	// Config.SnapshotEvery is set). Snapshots are taken at purge
	// triggers, after the purge ran — exactly what a post-retention
	// metadata scan would record.
	Snapshots []*trace.Snapshot
	// Final is the file-system state at the end of the replay: the
	// run's lane view, read-only.
	Final *vfs.FS
	// Elapsed is the wall-clock emulation time.
	Elapsed time.Duration
}

// RestoreCost estimates the wall-clock time users spent recalling
// missed files from the archive under the given model — the paper's
// "hours to days" re-transmission cost.
func (r *Result) RestoreCost(m archive.Model) time.Duration {
	return m.RestoreTime(r.RestoredFiles, r.RestoredBytes)
}

// MissRatioDays buckets the per-day miss ratios for histogram
// figures; only days with accesses count.
func (r *Result) MissRatioDays() []float64 {
	out := make([]float64, 0, len(r.Days))
	for _, d := range r.Days {
		if d.Accesses > 0 {
			out = append(out, d.MissRatio())
		}
	}
	return out
}

// Emulator replays a dataset against retention policies. Build one
// per dataset and call Run once per policy: each run clones the
// initial file system, so runs are independent and comparable.
type Emulator struct {
	ds    *trace.Dataset
	cfg   Config
	base  *vfs.FS
	eval  *activeness.Evaluator
	users int
	// feed is the columnar view of the access log on the trigger grid.
	// The first batch replay builds it and the later ones reuse it; an
	// emulator that only streams (activedrd) never builds it.
	feedOnce sync.Once
	feed     *colFeed
	feedErr  error
}

// New prepares an emulator: loads the snapshot and indexes the
// activity traces (job submissions as the operation type,
// publications as the outcome type — the paper's configuration).
func New(ds *trace.Dataset, cfg Config) (*Emulator, error) {
	base, err := vfs.FromSnapshot(&ds.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("sim: load snapshot: %w", err)
	}
	return NewWithBase(ds, base, cfg)
}

// NewWithBase prepares an emulator over a pre-built initial file
// system instead of parsing ds.Snapshot's entries — the entry point
// for snapfile-backed startup (vfs.LoadSnapfileFS), where the namespace
// is decoded straight from the binary format. ds.Snapshot.Taken must
// carry the state's capture time (it anchors the trigger grid and the
// predate checks); the snapshot's Entries slice is never consulted
// and may be empty.
func NewWithBase(ds *trace.Dataset, base *vfs.FS, cfg Config) (*Emulator, error) {
	cfg, err := cfg.normalize(base)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	eval := NewEvaluator(ds, cfg)
	return &Emulator{ds: ds, cfg: cfg, base: base, eval: eval, users: len(ds.Users)}, nil
}

// normalize is the effective configuration of a replay over base:
// Defaults filled in, durations checked, and a zero Capacity taken
// from base's total bytes.
func (c Config) normalize(base *vfs.FS) (Config, error) {
	c = c.Defaults()
	if c.TriggerInterval <= 0 || c.Lifetime <= 0 || c.PeriodLength <= 0 {
		return c, errors.New("non-positive durations in config")
	}
	if c.Capacity == 0 {
		c.Capacity = base.TotalBytes()
	}
	return c, nil
}

// NewEvaluator indexes the dataset's activity traces for one
// configuration: job submissions as the operation type, publications
// as the outcome type, plus logins and transfers when cfg asks. The
// result depends only on (PeriodLength, UseLogins, UseTransfers),
// which is what the multiplexed runner keys its evaluator cache by;
// cfg.PeriodLength must be set (Defaults fills it).
func NewEvaluator(ds *trace.Dataset, cfg Config) *activeness.Evaluator {
	eval := activeness.NewEvaluator(cfg.PeriodLength)
	jobT := eval.AddType("job-submission", activeness.Operation)
	pubT := eval.AddType("publication", activeness.Outcome)
	eval.RecordJobs(jobT, ds.Jobs)
	eval.RecordPublications(pubT, ds.Publications)
	if cfg.UseLogins {
		lt := eval.AddType("shell-login", activeness.Operation)
		eval.RecordLogins(lt, ds.Logins)
	}
	if cfg.UseTransfers {
		tt := eval.AddType("data-transfer", activeness.Operation)
		eval.RecordTransfers(tt, ds.Transfers)
	}
	return eval
}

// Config returns the effective configuration.
func (e *Emulator) Config() Config { return e.cfg }

// BaseFS returns a copy of the initial file system.
func (e *Emulator) BaseFS() *vfs.FS { return e.base.Clone() }

// Evaluator exposes the prepared activeness evaluator (shared,
// read-only after construction).
func (e *Emulator) Evaluator() *activeness.Evaluator { return e.eval }

// PolicyFLT and PolicyActiveDR name the policies NewPolicy builds.
const (
	PolicyFLT      = "flt"
	PolicyActiveDR = "activedr"
)

// NewPolicy builds the named policy, PolicyFLT or PolicyActiveDR,
// matching this emulator's configuration.
func (e *Emulator) NewPolicy(name string) (retention.Policy, error) {
	switch name {
	case PolicyFLT:
		return e.NewFLT(), nil
	case PolicyActiveDR:
		return e.NewActiveDR()
	}
	return nil, fmt.Errorf("sim: unknown policy %q (want %q or %q)", name, PolicyFLT, PolicyActiveDR)
}

// NewActiveDR builds the ActiveDR policy matching this emulator's
// configuration. A purge target needs a capacity, which defaults to the
// initial namespace's bytes, so a target over an empty namespace (and
// no Capacity) is refused by naming the namespace.
func (e *Emulator) NewActiveDR() (*retention.ActiveDR, error) {
	if e.cfg.TargetUtilization > 0 && e.cfg.Capacity == 0 {
		return nil, fmt.Errorf("sim: the initial namespace holds no bytes, so the purge target %g has nothing to apply to", e.cfg.TargetUtilization)
	}
	return retention.NewActiveDR(retention.Config{
		Lifetime:          e.cfg.Lifetime,
		Capacity:          e.cfg.Capacity,
		TargetUtilization: e.cfg.TargetUtilization,
		RetroPasses:       e.cfg.RetroPasses,
		RetroDecay:        e.cfg.RetroDecay,
		MinLifetime:       e.cfg.TriggerInterval,
		Reserved:          e.cfg.Reserved,
		StrictEq7:         e.cfg.StrictEq7,
		Order:             e.cfg.Order,
	})
}

// NewFLT builds the fixed-lifetime baseline matching this emulator's
// configuration.
func (e *Emulator) NewFLT() *retention.FLT {
	return &retention.FLT{
		Lifetime: e.cfg.Lifetime,
		Reserved: e.cfg.Reserved,
	}
}

// RunOptions extends a replay with fault injection, checkpointing,
// and deterministic interruption (kill-and-resume drills).
type RunOptions struct {
	// CheckpointDir, when non-empty, persists a resumable checkpoint
	// of the run state at trigger boundaries; Resume picks up from
	// the latest one.
	CheckpointDir string
	// CheckpointEvery spaces checkpoints to one every N triggers.
	// Zero or negative means every trigger.
	CheckpointEvery int
	// CheckpointFullEvery makes only every Kth checkpoint a full
	// snapshot; the ones between persist a delta against the previous
	// checkpoint, so checkpoint cost scales with the mutation rate
	// instead of the namespace size. ≤ 1 keeps every checkpoint full (the
	// historical format).
	CheckpointFullEvery int
	// Faults threads a deterministic fault injector through the
	// policy (via retention.FaultSink) and through the checkpoint
	// layer, which saves and restores its stream position.
	Faults *faults.Injector
	// StopAfterTriggers, when positive, aborts the replay with
	// ErrInterrupted right after that many purge triggers (counted
	// from the run's start, including triggers replayed before a
	// resume) have fired and been checkpointed — a reproducible kill
	// for resume tests.
	StopAfterTriggers int
	// Obs attaches the observability layer (internal/obs): hot-path
	// counters, per-trigger and per-miss events, the sampled purge
	// audit, and per-phase timing. Purely observational — the Result
	// is bit-identical with or without it — and nil costs nothing.
	// Checkpoints persist the registry state so a resumed run's
	// counters continue exactly where the original's left off.
	Obs *obs.Observer
	// OnCheckpoint, when set, runs after each checkpoint publishes,
	// with the number of events the persisted state contains. The
	// daemon uses it to prune its write-ahead log up to that event.
	// Checkpoints are written in the background, but OnCheckpoint
	// always runs on the goroutine driving the replay, from inside a
	// Stream call, in publish order.
	OnCheckpoint func(applied int)
}

// ErrInterrupted reports a replay stopped early by
// RunOptions.StopAfterTriggers. The partial Result is still returned.
var ErrInterrupted = errors.New("sim: run interrupted")

// runState is the mutable replay state between accesses; checkpoints
// serialize it and Resume reconstructs it mid-year.
type runState struct {
	group       *vfs.LaneGroup // the namespace; fsys is the run's lane of it
	fsys        *vfs.FS
	res         *Result
	cursor      int // index of the next unreplayed access
	nextTrigger timeutil.Time
	captured    bool
	lastSnap    timeutil.Time
	triggers    int // purge triggers fired so far
	// Checkpoint-cadence state: how many checkpoints this run has
	// written (keys the full/delta rotation), the name of the newest
	// one (a delta's base) and of the full checkpoint its chain starts
	// at (the prune's lower bound), and which sidecars it already
	// carries so deltas only ship what is new since then.
	ckpts         int
	lastCkpt      string
	chainStart    string
	snapsSaved    int
	capturedSaved bool
	// ranking's current table ranks the users as of the latest trigger,
	// at the run's period index. A stream's ranker is its own, so runs
	// off one emulator stay independent; multiplexed lanes with
	// identical evaluator inputs share one.
	ranking *sharedRanker
	period  int
}

// newRanker returns a lane's ranker: one period and cursors of its
// own, so runs off one emulator stay independent. Until start launches
// its worker, each table is computed when a trigger asks for it.
func (e *Emulator) newRanker() *sharedRanker {
	return &sharedRanker{cursors: e.eval.NewCursors(), users: e.users, periods: []timeutil.Duration{e.cfg.PeriodLength}}
}

// startState is the replay state at the reference snapshot on lane
// lane of group, ranked at each trigger by period pi of r.
func (e *Emulator) startState(policy string, group *vfs.LaneGroup, lane int, r *sharedRanker, pi int) *runState {
	t0 := e.ds.Snapshot.Taken
	r.evalAll(t0)
	return &runState{
		group:       group,
		fsys:        group.Lane(lane),
		res:         &Result{Policy: policy},
		nextTrigger: t0.Add(e.cfg.TriggerInterval),
		captured:    e.cfg.CaptureAt == 0,
		ranking:     r,
		period:      pi,
	}
}

// freshState initializes a lane at the reference snapshot: the one
// lane of a group over a clone of the base with handle slots for
// pathCap path ids, ranked by r.
func (e *Emulator) freshState(policy retention.Policy, pathCap int, r *sharedRanker) *runState {
	return e.startState(policy.Name(), vfs.AdoptLaneGroup(e.base.Clone(), 1, pathCap), 0, r, 0)
}

// columnar returns the emulator's columnar feed, building it on the
// first call. It is safe for concurrent use.
func (e *Emulator) columnar() (*colFeed, error) {
	e.feedOnce.Do(func() { e.feed, e.feedErr = buildColFeed(e.ds, e.cfg.TriggerInterval) })
	return e.feed, e.feedErr
}

// Run replays the access log against one policy.
func (e *Emulator) Run(policy retention.Policy) (*Result, error) {
	return e.RunWith(policy, RunOptions{})
}

// RunWith replays the access log against one policy with fault
// injection and checkpointing options: a one-lane batch replay over
// the emulator's columnar feed (replayFeed). A log the feed refuses
// fails before anything is applied.
func (e *Emulator) RunWith(policy retention.Policy, opts RunOptions) (*Result, error) {
	// The ranker works while the feed and the namespace are built.
	r := e.newRanker()
	r.start(e.ds.Snapshot.Taken, lastEvent(e.ds), e.cfg.TriggerInterval)
	defer r.halt()
	feed, err := e.columnar()
	if err != nil {
		return nil, err
	}
	return e.runLane(policy, opts, e.freshState(policy, len(feed.paths), r), feed)
}

// runLane replays st, the one lane of its group, from its cursor to
// the end of the log and completes its Result. A replay stopped by
// RunOptions.StopAfterTriggers or a kill point returns its partial
// Result with ErrInterrupted, once every checkpoint has published.
func (e *Emulator) runLane(policy retention.Policy, opts RunOptions, st *runState, feed *colFeed) (*Result, error) {
	timer := profiling.StartTimer()
	s := e.newStream(policy, opts, st)
	if _, err := replayFeed(e.ds.Accesses, feed, []*Stream{s}); err != nil {
		if !errors.Is(err, ErrInterrupted) {
			return nil, err
		}
		st.res.Elapsed = timer.Elapsed()
		return st.res, err
	}
	return s.finish(timer.Elapsed()), nil
}

// runObs caches the replay's metric handles so the per-access hot
// path records through pre-resolved pointers instead of registry
// lookups. The zero value (observability off) is fully inert: nil
// counters and histograms discard everything.
type runObs struct {
	o         *obs.Observer
	accesses  *obs.Counter
	misses    *obs.Counter
	missBytes *obs.Counter
	byGroup   [activeness.NumGroups]*obs.Counter
	triggers  *obs.Counter
	snaps     *obs.Counter
	ckpts     *obs.Counter
	missSize  *obs.Histogram
	freedPct  *obs.Histogram
}

func newRunObs(o *obs.Observer) runObs {
	if o == nil {
		return runObs{}
	}
	reg := o.Registry()
	ro := runObs{
		o:         o,
		accesses:  reg.Counter(obs.MetricAccesses),
		misses:    reg.Counter(obs.MetricMisses),
		missBytes: reg.Counter(obs.MetricMissBytes),
		triggers:  reg.Counter(obs.MetricTriggers),
		snaps:     reg.Counter(obs.MetricSnapshots),
		ckpts:     reg.Counter(obs.MetricCheckpoints),
		missSize:  reg.Histogram(obs.MetricMissSizeBytes, 1<<10, 1<<20, 1<<30, 1<<40),
		freedPct:  reg.Histogram(obs.MetricTriggerFreed, 0, 25, 50, 75, 90, 99, 100),
	}
	for g := range ro.byGroup {
		ro.byGroup[g] = reg.Counter(obs.MetricMissesGroup(g))
	}
	return ro
}

// noteTrigger derives the per-trigger event from the purge report and
// the probe's scratch tally, and feeds the freed-of-target histogram.
// Everything here is a pure function of replay state, so the metrics
// snapshot stays deterministic and checkpoint-safe.
func (ro *runObs) noteTrigger(rep *retention.Report, seq int64) {
	if ro.o == nil {
		return
	}
	if rep.TargetBytes > 0 {
		ro.freedPct.Observe(rep.PurgedBytes * 100 / rep.TargetBytes)
	}
	examined, retroFiles, retroBytes := ro.o.TriggerTally()
	groups := make([]int64, activeness.NumGroups)
	for g := range rep.Groups {
		groups[g] = rep.Groups[g].PurgedFiles
	}
	ro.o.EmitTrigger(&obs.TriggerEvent{
		Kind:          obs.KindTrigger,
		Policy:        rep.Policy,
		Seq:           seq,
		At:            int64(rep.At),
		Date:          rep.At.DateString(),
		FilesBefore:   rep.FilesBefore,
		BytesBefore:   rep.BytesBefore,
		TargetBytes:   rep.TargetBytes,
		PurgedFiles:   rep.PurgedFiles,
		PurgedBytes:   rep.PurgedBytes,
		FailedFiles:   rep.FailedPurges,
		FailedBytes:   rep.FailedBytes,
		Exempt:        rep.SkippedExempt,
		Examined:      examined,
		Incomplete:    rep.Incomplete,
		TargetReached: rep.TargetReached,
		RetroPasses:   int64(rep.RetroPasses),
		RetroFiles:    retroFiles,
		RetroBytes:    retroBytes,
		PurgedByGroup: groups,
		AffectedUsers: int64(len(rep.AffectedIDs)),
	})
}

// noteMiss records one file miss on the counters and the event
// stream.
func (ro *runObs) noteMiss(policy string, a *trace.Access, g activeness.Group) {
	ro.misses.Inc()
	ro.byGroup[g].Inc()
	ro.missBytes.Add(a.Size)
	ro.missSize.Observe(a.Size)
	if ro.o != nil {
		ro.o.EmitMiss(&obs.MissEvent{
			Kind:   obs.KindMiss,
			Policy: policy,
			At:     int64(a.TS),
			Date:   a.TS.DateString(),
			User:   int64(a.User),
			Group:  int64(g),
			Path:   a.Path,
			Bytes:  a.Size,
		})
	}
}

// Comparison bundles an FLT and an ActiveDR run over identical input.
type Comparison struct {
	FLT      *Result
	ActiveDR *Result
}

// RunComparison executes both policies on clones of the same state.
func (e *Emulator) RunComparison() (*Comparison, error) {
	adr, err := e.NewActiveDR()
	if err != nil {
		return nil, err
	}
	fltRes, err := e.Run(e.NewFLT())
	if err != nil {
		return nil, err
	}
	adrRes, err := e.Run(adr)
	if err != nil {
		return nil, err
	}
	return &Comparison{FLT: fltRes, ActiveDR: adrRes}, nil
}

// MissReduction returns the overall file-miss reduction ratio of
// ActiveDR versus FLT.
func (c *Comparison) MissReduction() float64 {
	if c.FLT.TotalMisses == 0 {
		return 0
	}
	return float64(c.FLT.TotalMisses-c.ActiveDR.TotalMisses) / float64(c.FLT.TotalMisses)
}

// RestoreSavings returns how much archive-recall time ActiveDR saves
// users over the replay under the given archive model.
func (c *Comparison) RestoreSavings(m archive.Model) time.Duration {
	return c.FLT.RestoreCost(m) - c.ActiveDR.RestoreCost(m)
}
