// Package retention implements the data-retention (purge) policies
// the paper evaluates: the fixed-lifetime baseline (FLT) used across
// HPC facilities (Table 1) and the activeness-based ActiveDR
// procedure of §3.4 — activeness-ordered user scans, per-user file
// lifetime adjustment (Eq. 7), purge-target stop, retrospective group
// passes with rank decay, and purge exemption via a reserved-path
// prefix tree.
package retention

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"activedr/internal/activeness"
	"activedr/internal/obs"
	"activedr/internal/profiling"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// Policy is a purge procedure over the virtual file system. ranks
// holds the activeness rank of every user (indexed by UserID) as
// evaluated at tc; policies that do not use activeness (FLT) still
// receive it so reports can attribute purges to activeness groups.
type Policy interface {
	Name() string
	Purge(fsys *vfs.FS, ranks []activeness.Rank, tc timeutil.Time) *Report
}

// FaultInjector simulates storage-layer failures during a purge pass.
// Both built-in policies consult it (when set) so a run can rehearse
// deletion failures and interrupted scans; internal/faults provides
// the deterministic, seed-driven implementation. The interface is
// structural on purpose: retention does not import faults.
type FaultInjector interface {
	// BeginScan is called once at the start of a purge pass with the
	// trigger time and the namespace size. It returns how many files
	// the scan may examine before being interrupted, or a negative
	// value for an uninterrupted scan. An interrupted pass reports
	// Incomplete; the shortfall is made up at the next trigger because
	// stale files stay stale and targets are recomputed from live
	// usage.
	BeginScan(at timeutil.Time, files int64) int64
	// UnlinkFails reports whether deleting the victim at path fails.
	// The file then stays in place and its bytes are not reclaimed;
	// the pass reports it under FailedPurges/FailedBytes.
	UnlinkFails(path string) bool
}

// FaultSink is implemented by policies that accept a fault injector
// after construction; the emulator uses it to thread one injector
// through a run.
type FaultSink interface {
	SetFaults(FaultInjector)
}

// ProbeSink is implemented by policies that accept an observability
// probe after construction; the emulator uses it to thread one
// per-run probe through both policies (the FaultSink pattern). All
// probe calls are nil-safe, so an unprobed policy pays only dead
// branches at the decision points.
type ProbeSink interface {
	SetProbe(*obs.PurgeProbe)
}

// GroupStats aggregates one activeness group's slice of a purge pass.
type GroupStats struct {
	Users         int   // users classified into the group
	FilesBefore   int64 // files owned by the group before the pass
	BytesBefore   int64 // bytes owned by the group before the pass
	PurgedFiles   int64
	PurgedBytes   int64
	AffectedUsers int // users who lost at least one file
}

// RetainedFiles returns the files surviving the pass.
func (g GroupStats) RetainedFiles() int64 { return g.FilesBefore - g.PurgedFiles }

// RetainedBytes returns the bytes surviving the pass.
func (g GroupStats) RetainedBytes() int64 { return g.BytesBefore - g.PurgedBytes }

// Report is the outcome of one purge pass.
type Report struct {
	Policy        string
	At            timeutil.Time
	FilesBefore   int64
	BytesBefore   int64
	TargetBytes   int64 // bytes the pass had to free; 0 = no target
	PurgedFiles   int64
	PurgedBytes   int64
	SkippedExempt int64 // reserved files skipped
	TargetReached bool  // true when a set target was met (or none was set)
	RetroPasses   int   // retrospective passes actually executed
	// FailedPurges/FailedBytes count victims whose deletion failed
	// (injected or real unlink errors): the files stay in place and
	// their bytes are not reclaimed until a later trigger retries.
	FailedPurges int64
	FailedBytes  int64
	// Incomplete marks a pass whose scan was interrupted before
	// examining its full order; the shortfall carries to the next
	// trigger.
	Incomplete bool
	Groups     [activeness.NumGroups]GroupStats
	// AffectedIDs lists every user who lost at least one file in this
	// pass, in ascending order (Figure 11 counts distinct affected
	// users across a run).
	AffectedIDs []trace.UserID
	// Victims lists every purged path in purge order. It is only
	// collected when the policy's CollectVictims knob is set (dry-run
	// and audit workflows); nil otherwise.
	Victims []string
	Elapsed time.Duration
}

// RetainedBytes returns the bytes surviving the pass.
func (r *Report) RetainedBytes() int64 { return r.BytesBefore - r.PurgedBytes }

// RetainedFiles returns the files surviving the pass.
func (r *Report) RetainedFiles() int64 { return r.FilesBefore - r.PurgedFiles }

// String summarizes the report in one line.
func (r *Report) String() string {
	return fmt.Sprintf("%s@%s: purged %d files (%.2f GB) of %d, target reached=%v",
		r.Policy, r.At.DateString(), r.PurgedFiles,
		float64(r.PurgedBytes)/1e9, r.FilesBefore, r.TargetReached)
}

// rankOf returns the user's rank, defaulting to the protective
// new-user rank when the rank table is short or nil.
func rankOf(ranks []activeness.Rank, u trace.UserID) activeness.Rank {
	if int(u) < len(ranks) {
		return ranks[u]
	}
	return activeness.NewUserRank()
}

// groupTotals seeds the per-group before-pass accounting from the
// per-user counters the FS maintains — O(users), no namespace walk.
func groupTotals(fsys *vfs.FS, ranks []activeness.Rank, report *Report, users []trace.UserID) {
	for _, u := range users {
		g := rankOf(ranks, u).Group()
		report.Groups[g].Users++
		report.Groups[g].FilesBefore += fsys.UserFiles(u)
		report.Groups[g].BytesBefore += fsys.UserBytes(u)
	}
}

// FLT is the fixed-lifetime baseline: purge every non-reserved file
// whose age exceeds Lifetime, consuming candidates oldest-first in
// the global (ATime, Path) selection order. Production FLT purges
// have no space target — staleness alone decides — but StopAtTarget
// enables a target-stopped variant for ablation.
type FLT struct {
	Lifetime     timeutil.Duration
	Reserved     *vfs.ReservedSet
	StopAtTarget bool
	TargetBytes  func(used int64) int64 // optional; used with StopAtTarget
	// CollectVictims records every purged path in Report.Victims.
	CollectVictims bool
	// Faults, when set, injects deletion failures and scan interrupts.
	Faults FaultInjector
	// Probe, when set, receives every per-file purge decision
	// (internal/obs: counters plus the sampled audit stream). Purely
	// observational: it never changes what gets purged.
	Probe *obs.PurgeProbe

	// scratch holds the per-user candidate buffers feeding the k-way
	// merge, reused across triggers so a replay's hundreds of passes
	// stop reallocating them. Makes an FLT value single-goroutine,
	// which Purge already was (setCollectVictims, fault state).
	scratch [][]vfs.Candidate
	// merge is the reusable heap over the scratch slots; reset rebuilds
	// it each trigger without reallocating its arrays.
	merge candidateMerge
	// affected marks which scratch slots (user positions) had a file
	// purged this trigger, replacing a per-trigger map: slot order is
	// user order, so flattening the marks reproduces the ascending
	// AffectedIDs contract without a sort.
	affected []bool
}

// Name identifies the policy.
func (f *FLT) Name() string { return fmt.Sprintf("FLT-%s", f.Lifetime) }

// SetFaults installs a fault injector for subsequent purge passes.
func (f *FLT) SetFaults(fi FaultInjector) { f.Faults = fi }

// SetProbe installs an observability probe for subsequent passes.
func (f *FLT) SetProbe(p *obs.PurgeProbe) { f.Probe = p }

// Purge runs one fixed-lifetime purge pass at time tc.
func (f *FLT) Purge(fsys *vfs.FS, ranks []activeness.Rank, tc timeutil.Time) *Report {
	timer := profiling.StartTimer()
	report := &Report{
		Policy:      f.Name(),
		At:          tc,
		FilesBefore: int64(fsys.Count()),
		BytesBefore: fsys.TotalBytes(),
	}
	var target int64
	if f.StopAtTarget && f.TargetBytes != nil {
		target = f.TargetBytes(fsys.TotalBytes())
		if target < 0 {
			target = 0
		}
		report.TargetBytes = target
	}
	users := fsys.Users()
	groupTotals(fsys, ranks, report, users)
	budget := int64(-1)
	if f.Faults != nil {
		budget = f.Faults.BeginScan(tc, int64(fsys.Count()))
	}
	// Materialize each user's stale list (already sorted) into its
	// reusable scratch slot and merge them lazily: only the consumed
	// prefix is ordered globally. The merge reads the slots without
	// mutating their headers, so the capacity survives to the next
	// trigger.
	cutoff := staleCutoff(tc, f.Lifetime)
	if cap(f.scratch) < len(users) {
		f.scratch = append(f.scratch[:cap(f.scratch)],
			make([][]vfs.Candidate, len(users)-cap(f.scratch))...)
	}
	f.scratch = f.scratch[:len(users)]
	for i, u := range users {
		f.scratch[i] = fsys.AppendStaleFiles(f.scratch[i][:0], u, cutoff)
	}
	f.merge.reset(f.scratch)
	merge := &f.merge
	if cap(f.affected) < len(users) {
		f.affected = make([]bool, len(users))
	}
	f.affected = f.affected[:len(users)]
	clear(f.affected)
	var examined int64
	for merge.len() > 0 {
		if budget >= 0 && examined >= budget {
			report.Incomplete = true
			f.Probe.Interrupted()
			break
		}
		examined++
		f.Probe.Examined()
		if f.StopAtTarget && target > 0 && report.PurgedBytes >= target {
			break
		}
		c, slot := merge.pop()
		g := rankOf(ranks, c.Meta.User).Group()
		if f.Reserved.Covers(c.Path) {
			report.SkippedExempt++
			f.Probe.Exempt(c.Path, int64(c.Meta.User), int(g), 0, c.Meta.Size)
			continue
		}
		if f.Faults != nil && f.Faults.UnlinkFails(c.Path) {
			report.FailedPurges++
			report.FailedBytes += c.Meta.Size
			f.Probe.Failed(c.Path, int64(c.Meta.User), int(g), 0, c.Meta.Size)
			continue
		}
		fsys.RemoveCandidate(c)
		if f.CollectVictims {
			report.Victims = append(report.Victims, c.Path)
		}
		f.Probe.Purged(c.Path, int64(c.Meta.User), int(g), 0, c.Meta.Size)
		report.PurgedFiles++
		report.PurgedBytes += c.Meta.Size
		report.Groups[g].PurgedFiles++
		report.Groups[g].PurgedBytes += c.Meta.Size
		if !f.affected[slot] {
			f.affected[slot] = true
			report.Groups[g].AffectedUsers++
		}
	}
	// users is ascending (FS.Users), so flattening the slot marks
	// in order reproduces exactly what sortedIDs built from a set.
	n := 0
	for _, hit := range f.affected {
		if hit {
			n++
		}
	}
	ids := make([]trace.UserID, 0, n)
	for i, hit := range f.affected {
		if hit {
			ids = append(ids, users[i])
		}
	}
	report.AffectedIDs = ids
	report.TargetReached = !f.StopAtTarget || target == 0 || report.PurgedBytes >= target
	report.Elapsed = timer.Elapsed()
	return report
}

// sortedIDs flattens an affected-user set.
func sortedIDs(set map[trace.UserID]bool) []trace.UserID {
	ids := make([]trace.UserID, 0, len(set))
	for u := range set {
		ids = append(ids, u)
	}
	slices.Sort(ids)
	return ids
}

// ScanOrder selects how ActiveDR sequences users (DESIGN.md §3 item 8).
type ScanOrder int

const (
	// ScanOrderGroups processes the four groups strictly in ascending
	// activeness order, users within a group ascending by (Φ_op, Φ_oc).
	ScanOrderGroups ScanOrder = iota
	// ScanOrderMergedByOutcome is the alternative reading of §3.4:
	// both-inactive then outcome-active-only, then the two
	// operation-active groups merged and sorted ascending by Φ_oc.
	ScanOrderMergedByOutcome
)

// Config parameterizes ActiveDR.
type Config struct {
	// Lifetime is the initial file lifetime d handed to new and
	// both-inactive users; active users' lifetimes scale from it
	// (Eq. 7).
	Lifetime timeutil.Duration
	// Capacity is the scratch capacity in bytes; the paper uses the
	// total size of the reference snapshot.
	Capacity int64
	// TargetUtilization is the fraction of Capacity the purge must
	// bring usage down to (the paper: 0.5). Zero disables the target,
	// making every stale file eligible.
	TargetUtilization float64
	// RetroPasses bounds the retrospective re-scans per group
	// (paper: 5).
	RetroPasses int
	// RetroDecay is the per-pass rank decay (paper: 0.8, i.e. −20%).
	RetroDecay float64
	// MinLifetime, when positive, protects any file accessed within
	// it from ActiveDR purges regardless of the owner's rank — a
	// hygiene floor so rank-zero users' in-flight files survive
	// between purge triggers. The replay emulator sets it to the
	// trigger interval.
	MinLifetime timeutil.Duration
	// Reserved is the purge-exemption list.
	Reserved *vfs.ReservedSet
	// StrictEq7 applies the literal Eq. (7) product with no
	// inactive-class flooring (ablation).
	StrictEq7 bool
	// Order selects the user scan order.
	Order ScanOrder
	// CollectVictims records every purged path in Report.Victims
	// (dry-run and audit workflows).
	CollectVictims bool
	// Faults, when set, injects deletion failures and scan interrupts.
	Faults FaultInjector
	// Probe, when set, receives every per-file purge decision
	// (internal/obs: counters plus the sampled audit stream). Purely
	// observational: it never changes what gets purged.
	Probe *obs.PurgeProbe
}

// Defaults fills unset knobs with the paper's values.
func (c Config) Defaults() Config {
	if c.Lifetime == 0 {
		c.Lifetime = timeutil.Days(90)
	}
	if c.RetroPasses == 0 {
		c.RetroPasses = 5
	}
	if c.RetroDecay == 0 {
		c.RetroDecay = 0.8
	}
	return c
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.Lifetime <= 0 {
		return fmt.Errorf("retention: non-positive lifetime %v", c.Lifetime)
	}
	if c.TargetUtilization < 0 || c.TargetUtilization > 1 {
		return fmt.Errorf("retention: target utilization %v outside [0,1]", c.TargetUtilization)
	}
	if c.TargetUtilization > 0 && c.Capacity <= 0 {
		return fmt.Errorf("retention: target utilization set without capacity")
	}
	if c.RetroPasses < 0 {
		return fmt.Errorf("retention: negative retro passes")
	}
	if c.RetroDecay <= 0 || c.RetroDecay > 1 {
		return fmt.Errorf("retention: retro decay %v outside (0,1]", c.RetroDecay)
	}
	return nil
}

// ActiveDR is the activeness-based data-retention policy (§3.4).
type ActiveDR struct {
	cfg Config
}

// NewActiveDR builds the policy, applying defaults and validating.
func NewActiveDR(cfg Config) (*ActiveDR, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ActiveDR{cfg: cfg}, nil
}

// Name identifies the policy.
func (a *ActiveDR) Name() string { return fmt.Sprintf("ActiveDR-%s", a.cfg.Lifetime) }

// Config returns the effective configuration.
func (a *ActiveDR) Config() Config { return a.cfg }

// SetFaults installs a fault injector for subsequent purge passes.
func (a *ActiveDR) SetFaults(fi FaultInjector) { a.cfg.Faults = fi }

// SetProbe installs an observability probe for subsequent passes.
func (a *ActiveDR) SetProbe(p *obs.PurgeProbe) { a.cfg.Probe = p }

// scanUser is one user's position in the scan sequence.
type scanUser struct {
	id   trace.UserID
	rank activeness.Rank
}

// orderUsers buckets users into scan phases. Each phase is processed
// to exhaustion (including retrospective passes) before the next.
// Both comparators fall through to UserID so users with equal ranks
// (common for the inactive groups, where both ranks are zero) scan in
// one deterministic order regardless of how the user list was built —
// serial and parallel replays must agree bit for bit.
func (a *ActiveDR) orderUsers(users []trace.UserID, ranks []activeness.Rank) [][]scanUser {
	byGroup := make([][]scanUser, activeness.NumGroups)
	for _, u := range users {
		r := rankOf(ranks, u)
		g := r.Group()
		byGroup[g] = append(byGroup[g], scanUser{id: u, rank: r})
	}
	// slices.SortFunc avoids sort.Slice's reflection-based swapper; the
	// comparators are total orders (unique id tiebreak), so the result
	// is algorithm-independent and the switch cannot reorder ties.
	ascOpOc := func(us []scanUser) {
		slices.SortFunc(us, func(a, b scanUser) int {
			if c := cmp.Compare(a.rank.Op, b.rank.Op); c != 0 {
				return c
			}
			if c := cmp.Compare(a.rank.Oc, b.rank.Oc); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id) // stable tiebreak: never rely on input order
		})
	}
	ascOcOp := func(us []scanUser) {
		slices.SortFunc(us, func(a, b scanUser) int {
			if c := cmp.Compare(a.rank.Oc, b.rank.Oc); c != 0 {
				return c
			}
			if c := cmp.Compare(a.rank.Op, b.rank.Op); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id) // stable tiebreak: never rely on input order
		})
	}
	switch a.cfg.Order {
	case ScanOrderMergedByOutcome:
		merged := append(append([]scanUser(nil),
			byGroup[activeness.OperationActiveOnly]...),
			byGroup[activeness.BothActive]...)
		ascOcOp(merged)
		ascOpOc(byGroup[activeness.BothInactive])
		ascOpOc(byGroup[activeness.OutcomeActiveOnly])
		return [][]scanUser{
			byGroup[activeness.BothInactive],
			byGroup[activeness.OutcomeActiveOnly],
			merged,
		}
	default:
		phases := make([][]scanUser, 0, activeness.NumGroups)
		for _, g := range activeness.Groups() {
			ascOpOc(byGroup[g])
			phases = append(phases, byGroup[g])
		}
		return phases
	}
}

// lifetime computes the user's adjusted file lifetime ε (Eq. 7) for a
// given retrospective pass.
func (a *ActiveDR) lifetime(r activeness.Rank, pass int) timeutil.Duration {
	mult := r.LifetimeMultiplier()
	if a.cfg.StrictEq7 {
		mult = r.StrictEq7Multiplier()
	}
	decayed := mult * math.Pow(a.cfg.RetroDecay, float64(pass))
	eps := float64(a.cfg.Lifetime) * decayed
	if eps >= float64(math.MaxInt64) {
		return timeutil.Duration(math.MaxInt64)
	}
	e := timeutil.Duration(eps)
	// Retrospective decay claws back the activeness *reward*, never
	// the baseline: an active user (multiplier ≥ 1) is never treated
	// worse than under plain FLT.
	if mult >= 1 && e < a.cfg.Lifetime {
		e = a.cfg.Lifetime
	}
	if e < a.cfg.MinLifetime {
		e = a.cfg.MinLifetime
	}
	return e
}

// Purge runs one ActiveDR retention pass at time tc.
func (a *ActiveDR) Purge(fsys *vfs.FS, ranks []activeness.Rank, tc timeutil.Time) *Report {
	timer := profiling.StartTimer()
	report := &Report{
		Policy:      a.Name(),
		At:          tc,
		FilesBefore: int64(fsys.Count()),
		BytesBefore: fsys.TotalBytes(),
	}
	var target int64
	if a.cfg.TargetUtilization > 0 {
		target = fsys.TotalBytes() - int64(a.cfg.TargetUtilization*float64(a.cfg.Capacity))
		if target < 0 {
			target = 0
		}
		report.TargetBytes = target
	}
	users := fsys.Users()
	groupTotals(fsys, ranks, report, users)
	if a.cfg.TargetUtilization > 0 && target == 0 {
		// Usage is already at or below the target: nothing to purge.
		report.TargetReached = true
		report.Elapsed = timer.Elapsed()
		return report
	}
	reached := func() bool { return target > 0 && report.PurgedBytes >= target }
	affected := make(map[trace.UserID]bool)
	budget := int64(-1)
	if a.cfg.Faults != nil {
		budget = a.cfg.Faults.BeginScan(tc, int64(fsys.Count()))
	}
	var examined int64
	var cands []vfs.Candidate // reused across per-user queries

	phases := a.orderUsers(users, ranks)
phaseLoop:
	for _, phase := range phases {
		for pass := 0; pass <= a.cfg.RetroPasses; pass++ {
			if pass > 0 && len(phase) > 0 {
				report.RetroPasses++
			}
			for _, su := range phase {
				// The pass-adjusted lifetime becomes an atime cutoff, so
				// each retro pass queries only the files it can purge
				// instead of re-walking the user's whole holding.
				eps := a.lifetime(su.rank, pass)
				g := su.rank.Group()
				cands = fsys.AppendStaleFiles(cands[:0], su.id, staleCutoff(tc, eps))
				for _, c := range cands {
					if budget >= 0 && examined >= budget {
						report.Incomplete = true
						a.cfg.Probe.Interrupted()
						break phaseLoop
					}
					examined++
					a.cfg.Probe.Examined()
					if a.cfg.Reserved.Covers(c.Path) {
						if pass == 0 {
							report.SkippedExempt++
							a.cfg.Probe.Exempt(c.Path, int64(c.Meta.User), int(g), pass, c.Meta.Size)
						}
						continue
					}
					if a.cfg.Faults != nil && a.cfg.Faults.UnlinkFails(c.Path) {
						report.FailedPurges++
						report.FailedBytes += c.Meta.Size
						a.cfg.Probe.Failed(c.Path, int64(c.Meta.User), int(g), pass, c.Meta.Size)
						continue
					}
					fsys.RemoveCandidate(c)
					if a.cfg.CollectVictims {
						report.Victims = append(report.Victims, c.Path)
					}
					a.cfg.Probe.Purged(c.Path, int64(c.Meta.User), int(g), pass, c.Meta.Size)
					report.PurgedFiles++
					report.PurgedBytes += c.Meta.Size
					report.Groups[g].PurgedFiles++
					report.Groups[g].PurgedBytes += c.Meta.Size
					if !affected[su.id] {
						affected[su.id] = true
						report.Groups[g].AffectedUsers++
					}
					if reached() {
						break phaseLoop
					}
				}
			}
			if target == 0 {
				break // no target: a single pass per phase suffices
			}
			if reached() {
				break phaseLoop
			}
		}
	}
	report.AffectedIDs = sortedIDs(affected)
	report.TargetReached = target == 0 || report.PurgedBytes >= target
	report.Elapsed = timer.Elapsed()
	return report
}

// Plan runs a policy against a throwaway copy of the file system and
// returns the purge report with the victim list populated — a dry
// run: the input file system is left untouched. The policy's own
// CollectVictims knob is not required; Plan forces collection via the
// planner interface both built-in policies implement.
func Plan(p Policy, fsys *vfs.FS, ranks []activeness.Rank, tc timeutil.Time) *Report {
	clone := fsys.Clone()
	if c, ok := p.(victimCollector); ok {
		restore := c.setCollectVictims(true)
		defer restore()
	}
	return p.Purge(clone, ranks, tc)
}

// victimCollector lets Plan force victim collection on a policy.
type victimCollector interface {
	setCollectVictims(bool) (restore func())
}

func (f *FLT) setCollectVictims(v bool) func() {
	prev := f.CollectVictims
	f.CollectVictims = v
	return func() { f.CollectVictims = prev }
}

func (a *ActiveDR) setCollectVictims(v bool) func() {
	prev := a.cfg.CollectVictims
	a.cfg.CollectVictims = v
	return func() { a.cfg.CollectVictims = prev }
}

var (
	_ Policy          = (*FLT)(nil)
	_ Policy          = (*ActiveDR)(nil)
	_ victimCollector = (*FLT)(nil)
	_ victimCollector = (*ActiveDR)(nil)
	_ FaultSink       = (*FLT)(nil)
	_ FaultSink       = (*ActiveDR)(nil)
	_ ProbeSink       = (*FLT)(nil)
	_ ProbeSink       = (*ActiveDR)(nil)
)
