// Package activeness implements the paper's core contribution: the
// user-activeness evaluation model of §3.2 (Equations 1–6), the
// publication impact of Eq. (8), and the four-way user
// classification matrix of §3.3.
//
// The model is deliberately simple: every user activity — of any type
// an administrator cares to track (Table 2 of the paper) — reduces to
// a (timestamp, impact) pair. For an activity type λ the activities
// are bucketed into m periods of length d ending at the evaluation
// time t_c; each period's activeness ratio b_e is its impact share
// relative to the per-period average, and the type's rank is
// Φ_λ = Π b_e^e, weighting recent periods exponentially harder. Ranks
// multiply across types within the two classes, operations and
// outcomes, yielding (Φ_op, Φ_oc), and a user is active on a class
// iff its rank is ≥ 1.
package activeness

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// Class distinguishes the two dimensions of the activeness matrix.
type Class int

const (
	// Operation activities are things users do on the system (job
	// submissions, logins, file accesses, data transfers).
	Operation Class = iota
	// Outcome activities are what users achieve with the system
	// (completed jobs, generated datasets, publications).
	Outcome
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Operation:
		return "operation"
	case Outcome:
		return "outcome"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Activity is the unified activeness measurement of §3.2: any user
// activity reduced to a timestamp and a non-negative impact.
type Activity struct {
	TS     timeutil.Time
	Impact float64
}

// TypeID identifies a registered activity type within an Evaluator.
type TypeID int

// TypeSpec describes a registered activity type.
type TypeSpec struct {
	Name  string
	Class Class
}

// Group is one quadrant of the §3.3 classification matrix. The order
// is the ascending-activeness scan order of the data-retention
// procedure: both-inactive first, both-active last.
type Group int

const (
	BothInactive Group = iota
	OutcomeActiveOnly
	OperationActiveOnly
	BothActive
	NumGroups = 4
)

// String names the group as the paper does.
func (g Group) String() string {
	switch g {
	case BothInactive:
		return "Both Inactive"
	case OutcomeActiveOnly:
		return "Outcome Active Only"
	case OperationActiveOnly:
		return "Operation Active Only"
	case BothActive:
		return "Both Active"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// Groups lists all groups in scan order.
func Groups() [NumGroups]Group {
	return [NumGroups]Group{BothInactive, OutcomeActiveOnly, OperationActiveOnly, BothActive}
}

// Rank is a user's evaluated activeness. Op and Oc are the combined
// class ranks Φ_op and Φ_oc of Eq. (6); HasOp/HasOc record whether the
// user had any activity of that class at all — users without recorded
// activity keep the protective initial rank 1.0 (§3.4) but are
// classified inactive, so their files receive the initial lifetime
// and the earliest scan priority.
type Rank struct {
	Op, Oc       float64
	HasOp, HasOc bool
}

// NewUserRank is the rank assigned to users with no recorded
// activity: initial rank 1.0 on both classes (paper §3.4).
func NewUserRank() Rank { return Rank{Op: 1, Oc: 1} }

// OpActive reports operation-class activeness (Φ_op ≥ 1 with data).
func (r Rank) OpActive() bool { return r.HasOp && r.Op >= 1 }

// OcActive reports outcome-class activeness (Φ_oc ≥ 1 with data).
func (r Rank) OcActive() bool { return r.HasOc && r.Oc >= 1 }

// Group classifies the rank into the §3.3 matrix.
func (r Rank) Group() Group {
	switch {
	case r.OpActive() && r.OcActive():
		return BothActive
	case r.OpActive():
		return OperationActiveOnly
	case r.OcActive():
		return OutcomeActiveOnly
	default:
		return BothInactive
	}
}

// LifetimeMultiplier is the factor applied to the initial file
// lifetime in Eq. (7), resolved per classification group:
//
//   - both-active users multiply both ranks (Φ_op·Φ_oc ≥ 1);
//   - partially active users are adjusted by the active class alone
//     (matching the paper's §4.3 observation that for
//     operation-active-only users "only operational activities are
//     considered"), so an inactive outcome rank cannot erase an
//     earned operations reward;
//   - both-inactive users have their lifetime cut back by the raw
//     product (< 1, often 0) — this is the §3.4 "cuts back the file
//     lifetime of inactive users", and it is what lets ActiveDR
//     reach the purge target from inactive users' files alone
//     (paper Tables 4–6, where ActiveDR retains petabytes less for
//     the both-inactive group);
//   - users with no recorded activity keep the protective initial
//     rank 1.0 (§3.4's initial file lifetime for new users).
func (r Rank) LifetimeMultiplier() float64 {
	var m float64
	switch {
	case r.OpActive() && r.OcActive():
		m = r.Op * r.Oc
	case r.OpActive():
		m = r.Op
	case r.OcActive():
		m = r.Oc
	default:
		m = 1.0
		if r.HasOp {
			m *= r.Op
		}
		if r.HasOc {
			m *= r.Oc
		}
	}
	if math.IsInf(m, 1) || m > math.MaxFloat64 {
		return math.MaxFloat64
	}
	return m
}

// StrictEq7Multiplier is the literal Eq. (7) product Φ_op·Φ_oc with
// no inactive-class flooring, kept for the ablation benchmarks. Under
// it, a user inactive on either class can see the lifetime collapse
// to zero.
func (r Rank) StrictEq7Multiplier() float64 {
	m := r.Op * r.Oc
	if math.IsInf(m, 1) {
		return math.MaxFloat64
	}
	return m
}

// TypeRank computes Φ_λ (Eqs 1–5) for one activity type of one user
// at evaluation time tc with period length d. acts must be sorted by
// timestamp; activities after tc are ignored. An empty (or fully
// future) history yields the initial rank 1.0. A history whose total
// impact is zero, or with any empty period inside the m-period
// window, yields 0 (inactive).
func TypeRank(acts []Activity, tc timeutil.Time, d timeutil.Duration) float64 {
	if d <= 0 {
		panic("activeness: non-positive period length")
	}
	// Cut off future activities (sorted input → binary search).
	k := sort.Search(len(acts), func(i int) bool { return acts[i].TS > tc })
	acts = acts[:k]
	if len(acts) == 0 {
		return 1.0
	}
	var total float64
	for i := range acts {
		if acts[i].Impact < 0 {
			panic(fmt.Sprintf("activeness: negative impact at %v", acts[i].TS))
		}
		total += acts[i].Impact
	}
	var s rankScratch
	return typeRankCore(acts, len(acts), total, tc, d, &s)
}

// rankScratch is the period-bucket buffer typeRankCore reuses across
// calls. Buckets are claimed lazily: a bucket is live for the current
// call iff its stamp equals the current epoch, so a call pays for the
// periods its window actually contains activity in instead of zeroing
// the whole window — the window span m grows with the history length,
// while most users touch only a handful of recent periods.
type rankScratch struct {
	dp    []float64
	stamp []int64
	epoch int64
}

// typeRankCore is the Φ_λ computation shared by TypeRank and the
// memoized cursor paths: acts[:k] is the pre-cut history (k ≥ 1),
// total its impact sum (accumulated first-to-last, so all callers
// produce bit-identical floats), s the reusable bucket scratch.
func typeRankCore(acts []Activity, k int, total float64, tc timeutil.Time, d timeutil.Duration, s *rankScratch) float64 {
	first, last := acts[0].TS, acts[k-1].TS
	m := timeutil.PeriodCount(first, last, d) // Eq. (1)
	if total <= 0 {
		return 0
	}
	avg := total / float64(m) // Eq. (2)
	// Only the window [tc − m·d, tc] contributes (older activities get
	// PeriodIndex < 1), so skip straight to its start instead of
	// scanning the whole history.
	lo := 0
	spanOK := int64(m) <= math.MaxInt64/int64(d)
	if spanOK {
		if ws := int64(tc) - int64(m)*int64(d); ws <= int64(tc) {
			lo = sort.Search(k, func(i int) bool { return int64(acts[i].TS) >= ws })
		}
	}
	// Fewer window activities than periods leaves some period empty by
	// pigeonhole, which zeroes the product (Eq. 5) — skip the scan.
	if k-lo < m {
		return 0
	}
	// Bucket impacts into the m-period window ending at tc (Eq. 4).
	if cap(s.dp) < m+1 || cap(s.stamp) < m+1 {
		s.dp = make([]float64, m+1) // 1-based; fresh stamps read as unclaimed
		s.stamp = make([]int64, m+1)
	} else {
		s.dp = s.dp[:m+1]
		s.stamp = s.stamp[:m+1]
	}
	s.epoch++
	filled := 0
	if spanOK {
		// Ascending timestamps visit period indices monotonically
		// (PeriodIndex is non-decreasing in ts), so one division prices
		// the first window activity and the rest advance by boundary
		// comparison: period e < m holds ts ∈ [tc−(m−e+1)·d, tc−(m−e)·d),
		// period m holds everything up to tc.
		e := timeutil.PeriodIndex(tc, acts[lo].TS, m, d)
		var hiEx int64 // exclusive upper ts bound of period e (e < m only)
		if e < m {
			hiEx = int64(tc) - int64(m-e)*int64(d)
		}
		for i := lo; i < k; i++ {
			ts := int64(acts[i].TS)
			for e < m && ts >= hiEx {
				e++
				hiEx += int64(d)
			}
			if s.stamp[e] == s.epoch {
				s.dp[e] += acts[i].Impact
			} else {
				s.stamp[e] = s.epoch
				s.dp[e] = acts[i].Impact // first claim: exactly 0 + Impact
				filled++
			}
		}
	} else {
		// m·d overflows: no window start to search or step boundaries
		// from; price every activity individually.
		for i := lo; i < k; i++ {
			e := timeutil.PeriodIndex(tc, acts[i].TS, m, d)
			if e >= 1 && e <= m {
				if s.stamp[e] == s.epoch {
					s.dp[e] += acts[i].Impact
				} else {
					s.stamp[e] = s.epoch
					s.dp[e] = acts[i].Impact
					filled++
				}
			}
		}
	}
	if filled < m {
		return 0 // some period in the window saw no activity (Eq. 5)
	}
	// Φ_λ = Π_{e=1..m} (D_e/avg)^e, in log space (Eq. 3 + Eq. 5). A
	// claimed period can still hold zero total impact, which zeroes the
	// product just like an empty one.
	logSum := 0.0
	for e := 1; e <= m; e++ {
		if s.dp[e] == 0 {
			return 0
		}
		logSum += float64(e) * math.Log(s.dp[e]/avg)
	}
	phi := math.Exp(logSum)
	if math.IsInf(phi, 1) {
		return math.MaxFloat64
	}
	return phi
}

// Evaluator accumulates activities per (type, user) and evaluates
// ranks at arbitrary times. It is built once from traces and then
// queried at every purge trigger; Record calls may arrive in any
// order, and the per-user histories are sorted lazily.
type Evaluator struct {
	period timeutil.Duration
	types  []TypeSpec
	// data[t][u] is the activity history of user u for type t.
	data []map[trace.UserID][]Activity
	// prefix[t][u][i] is the impact sum of the first i activities of
	// (t, u), accumulated in history order. Maintained alongside the
	// sort so cursor-based evaluation reads any cut's total in O(1)
	// with the exact float value the sequential sum would produce.
	prefix []map[trace.UserID][]float64

	mu     sync.Mutex // guards sorted / the one-time history sort
	sorted bool
	// ready is the lock-free fast-path gate of ensureSorted: true once
	// the sorted histories and prefix sums are published. Evaluation
	// calls ensureSorted per (user, trigger), so the steady state must
	// not take the mutex.
	ready atomic.Bool
}

// NewEvaluator builds an Evaluator with the given period length d
// (the paper sweeps d ∈ {7, 30, 60, 90} days).
func NewEvaluator(period timeutil.Duration) *Evaluator {
	if period <= 0 {
		panic("activeness: non-positive period length")
	}
	return &Evaluator{period: period, sorted: true}
}

// Period returns the configured period length.
func (e *Evaluator) Period() timeutil.Duration { return e.period }

// AddType registers an activity type and returns its ID.
func (e *Evaluator) AddType(name string, class Class) TypeID {
	e.types = append(e.types, TypeSpec{Name: name, Class: class})
	e.data = append(e.data, make(map[trace.UserID][]Activity))
	e.ready.Store(false)
	return TypeID(len(e.types) - 1)
}

// Types returns the registered type specs.
func (e *Evaluator) Types() []TypeSpec { return append([]TypeSpec(nil), e.types...) }

// Record appends one activity for a user.
func (e *Evaluator) Record(t TypeID, u trace.UserID, ts timeutil.Time, impact float64) {
	if impact < 0 {
		panic("activeness: negative impact")
	}
	e.data[t][u] = append(e.data[t][u], Activity{TS: ts, Impact: impact})
	e.sorted = false
	e.ready.Store(false)
}

// RecordJobs feeds a job-scheduler log as one operation type; the
// impact of a job is its core-hours (§4.1.3).
func (e *Evaluator) RecordJobs(t TypeID, jobs []trace.Job) {
	for i := range jobs {
		e.Record(t, jobs[i].User, jobs[i].Submit, jobs[i].CoreHours())
	}
}

// RecordLogins feeds a shell-login log as one operation type; every
// login has impact 1 (frequency is the signal).
func (e *Evaluator) RecordLogins(t TypeID, logins []trace.Login) {
	for i := range logins {
		e.Record(t, logins[i].User, logins[i].TS, 1)
	}
}

// RecordTransfers feeds a data-transfer log as one operation type;
// the impact of a transfer is the moved gigabytes.
func (e *Evaluator) RecordTransfers(t TypeID, xs []trace.Transfer) {
	for i := range xs {
		e.Record(t, xs[i].User, xs[i].TS, xs[i].Impact())
	}
}

// RecordPublications feeds a publication list as one outcome type;
// each author receives the Eq. (8) impact (c+1)·(n−i+1).
func (e *Evaluator) RecordPublications(t TypeID, pubs []trace.Publication) {
	for i := range pubs {
		p := &pubs[i]
		n := len(p.Authors)
		for idx, a := range p.Authors {
			impact := float64(p.Citations+1) * float64(n-idx)
			e.Record(t, a, p.TS, impact)
		}
	}
}

// ensureSorted sorts every history once. It is safe to call from
// concurrent EvaluateUser goroutines; Record must not run
// concurrently with evaluation.
func (e *Evaluator) ensureSorted() {
	if e.ready.Load() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.sorted || len(e.prefix) != len(e.data) {
		e.prefix = make([]map[trace.UserID][]float64, len(e.data))
		for t, byUser := range e.data {
			e.prefix[t] = make(map[trace.UserID][]float64, len(byUser))
			for u, acts := range byUser {
				sort.SliceStable(acts, func(i, j int) bool { return acts[i].TS < acts[j].TS })
				byUser[u] = acts
				ps := make([]float64, len(acts)+1)
				for i := range acts {
					ps[i+1] = ps[i] + acts[i].Impact
				}
				e.prefix[t][u] = ps
			}
		}
		e.sorted = true
	}
	e.ready.Store(true)
}

// EvaluateUser computes the user's rank at time tc.
func (e *Evaluator) EvaluateUser(u trace.UserID, tc timeutil.Time) Rank {
	e.ensureSorted()
	r := Rank{Op: 1, Oc: 1}
	for t := range e.types {
		acts := e.data[t][u]
		// Does the user have any activity of this type at or before tc?
		k := sort.Search(len(acts), func(i int) bool { return acts[i].TS > tc })
		if k == 0 {
			continue
		}
		phi := TypeRank(acts, tc, e.period)
		switch e.types[t].Class {
		case Operation:
			r.HasOp = true
			r.Op *= phi
		case Outcome:
			r.HasOc = true
			r.Oc *= phi
		}
	}
	if math.IsInf(r.Op, 1) {
		r.Op = math.MaxFloat64
	}
	if math.IsInf(r.Oc, 1) {
		r.Oc = math.MaxFloat64
	}
	return r
}

// EvaluateAll ranks every user in the population at time tc. The
// result is indexed by UserID.
func (e *Evaluator) EvaluateAll(numUsers int, tc timeutil.Time) []Rank {
	ranks := make([]Rank, numUsers)
	for u := 0; u < numUsers; u++ {
		ranks[u] = e.EvaluateUser(trace.UserID(u), tc)
	}
	return ranks
}

// Cursors memoizes per-user history cut positions across evaluation
// times: the replay evaluates every user at each purge trigger with
// tc advancing monotonically, so instead of re-searching each sorted
// history from scratch every 7 simulated days, the cursor resumes
// from the previous trigger's position and walks forward over the new
// activities only. Ranks are bit-identical to Evaluator.EvaluateUser
// (TestCursorsMatchEvaluate). A Cursors belongs to one goroutine; the
// shared Evaluator underneath stays read-only after the first sort.
type Cursors struct {
	e      *Evaluator
	lastTC timeutil.Time
	valid  bool
	// cuts[t][u] is the count of (t, u)-activities with TS ≤ lastTC.
	cuts    []map[trace.UserID]int
	scratch rankScratch // period-bucket buffer reused across users
}

// NewCursors returns a fresh cursor set over the evaluator's data.
func (e *Evaluator) NewCursors() *Cursors {
	c := &Cursors{e: e, cuts: make([]map[trace.UserID]int, len(e.data))}
	for t := range c.cuts {
		c.cuts[t] = make(map[trace.UserID]int)
	}
	return c
}

// EvaluateUser computes the user's rank at tc under the evaluator's
// period: EvaluateUserMulti with that one period.
func (c *Cursors) EvaluateUser(u trace.UserID, tc timeutil.Time) Rank {
	var r [1]Rank
	c.EvaluateUserMulti(u, tc, []timeutil.Duration{c.e.period}, r[:])
	return r[0]
}

// EvaluateAll ranks every user in the population at time tc, indexed
// by UserID.
func (c *Cursors) EvaluateAll(numUsers int, tc timeutil.Time) []Rank {
	ranks := make([]Rank, numUsers)
	for u := 0; u < numUsers; u++ {
		ranks[u] = c.EvaluateUser(trace.UserID(u), tc)
	}
	return ranks
}

// EvaluateUserMulti computes the user's rank at tc under each of the
// given period lengths in one pass, advancing the user's cursors and
// writing the rank for periods[i] to out[i] (out must have
// len(periods) elements). The per-type cursor advance, history cut and
// impact total — the parts independent of the period length — are
// done once and shared across all periods; only the Φ_λ bucketing runs
// per period. Each out[i] is bit-identical to Evaluator.EvaluateUser
// on an evaluator with period periods[i]: the cut k and the prefix
// total are period-independent, and the per-type multiply order into
// the rank is the same. Evaluation times should be non-decreasing; a
// backward jump is handled by restarting the cursors (correct, just
// not memoized).
func (c *Cursors) EvaluateUserMulti(u trace.UserID, tc timeutil.Time, periods []timeutil.Duration, out []Rank) {
	e := c.e
	e.ensureSorted()
	if c.valid && tc < c.lastTC {
		for t := range c.cuts {
			c.cuts[t] = make(map[trace.UserID]int, len(c.cuts[t]))
		}
	}
	c.lastTC, c.valid = tc, true
	for len(c.cuts) < len(e.data) {
		c.cuts = append(c.cuts, make(map[trace.UserID]int))
	}
	for i := range out {
		out[i] = Rank{Op: 1, Oc: 1}
	}
	for t := range e.types {
		acts := e.data[t][u]
		k := c.cuts[t][u]
		for k < len(acts) && acts[k].TS <= tc {
			k++
		}
		c.cuts[t][u] = k
		if k == 0 {
			continue
		}
		total := e.prefix[t][u][k]
		cls := e.types[t].Class
		for pi, d := range periods {
			phi := typeRankCore(acts, k, total, tc, d, &c.scratch)
			switch cls {
			case Operation:
				out[pi].HasOp = true
				out[pi].Op *= phi
			case Outcome:
				out[pi].HasOc = true
				out[pi].Oc *= phi
			}
		}
	}
	for i := range out {
		if math.IsInf(out[i].Op, 1) {
			out[i].Op = math.MaxFloat64
		}
		if math.IsInf(out[i].Oc, 1) {
			out[i].Oc = math.MaxFloat64
		}
	}
}

// Matrix counts users per classification group — the content of the
// paper's Figure 5.
type Matrix struct {
	Counts [NumGroups]int
	Total  int
}

// NewMatrix classifies a rank slice.
func NewMatrix(ranks []Rank) Matrix {
	var m Matrix
	for _, r := range ranks {
		m.Counts[r.Group()]++
		m.Total++
	}
	return m
}

// Share returns the fraction of users in group g.
func (m Matrix) Share(g Group) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Counts[g]) / float64(m.Total)
}
