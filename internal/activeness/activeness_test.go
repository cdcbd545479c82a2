package activeness

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

var (
	tc = timeutil.Date(2016, time.July, 1)
	p7 = timeutil.Days(7)
)

// acts builds a sorted activity list from (days-before-tc, impact)
// pairs.
func acts(pairs ...[2]float64) []Activity {
	out := make([]Activity, 0, len(pairs))
	for _, pr := range pairs { // pairs are oldest-first → ascending TS
		out = append(out, Activity{
			TS:     tc.Add(-timeutil.Duration(pr[0] * float64(timeutil.Day))),
			Impact: pr[1],
		})
	}
	return out
}

func TestTypeRankEmptyHistory(t *testing.T) {
	if got := TypeRank(nil, tc, p7); got != 1.0 {
		t.Fatalf("empty history rank = %v, want 1.0 (initial rank)", got)
	}
}

func TestTypeRankFutureOnly(t *testing.T) {
	future := []Activity{{TS: tc.Add(timeutil.Days(3)), Impact: 5}}
	if got := TypeRank(future, tc, p7); got != 1.0 {
		t.Fatalf("future-only history rank = %v, want 1.0", got)
	}
}

func TestTypeRankZeroImpact(t *testing.T) {
	a := acts([2]float64{1, 0}, [2]float64{3, 0})
	if got := TypeRank(a, tc, p7); got != 0 {
		t.Fatalf("zero-impact rank = %v, want 0", got)
	}
}

func TestTypeRankSingleRecentActivity(t *testing.T) {
	// One activity: m = 1, its own period average, b = 1 → Φ = 1.
	a := acts([2]float64{2, 50})
	if got := TypeRank(a, tc, p7); got != 1 {
		t.Fatalf("single recent activity rank = %v, want 1", got)
	}
}

func TestTypeRankStaleHistoryIsInactive(t *testing.T) {
	// Activities spanning 2 periods but ending 10 periods before tc:
	// the 2-period window ending at tc is empty → Φ = 0.
	a := acts([2]float64{80, 10}, [2]float64{75, 10})
	if got := TypeRank(a, tc, p7); got != 0 {
		t.Fatalf("stale history rank = %v, want 0", got)
	}
}

func TestTypeRankTrendDirection(t *testing.T) {
	// Rising impact (recent period heavier) → active (Φ > 1).
	rising := acts([2]float64{12, 1}, [2]float64{3, 3}) // span 9d → m = 2
	phiUp := TypeRank(rising, tc, p7)
	if phiUp <= 1 {
		t.Errorf("rising trend Φ = %v, want > 1", phiUp)
	}
	// Φ = b1·b2² with b1 = 0.5, b2 = 1.5 → 1.125.
	if math.Abs(phiUp-1.125) > 1e-9 {
		t.Errorf("rising trend Φ = %v, want 1.125", phiUp)
	}
	// Falling impact → inactive (Φ < 1).
	falling := acts([2]float64{12, 3}, [2]float64{3, 1})
	phiDown := TypeRank(falling, tc, p7)
	if phiDown >= 1 {
		t.Errorf("falling trend Φ = %v, want < 1", phiDown)
	}
	if math.Abs(phiDown-0.375) > 1e-9 {
		t.Errorf("falling trend Φ = %v, want 0.375", phiDown)
	}
	// Uniform impact → exactly 1 (boundary: active).
	uniform := acts([2]float64{12, 2}, [2]float64{3, 2})
	if phi := TypeRank(uniform, tc, p7); math.Abs(phi-1) > 1e-9 {
		t.Errorf("uniform trend Φ = %v, want 1", phi)
	}
}

func TestTypeRankEmptyPeriodZeroes(t *testing.T) {
	// Three periods with the middle one empty → Φ = 0.
	a := acts([2]float64{17, 5}, [2]float64{2, 5})
	if got := TypeRank(a, tc, p7); got != 0 {
		t.Fatalf("gapped history rank = %v, want 0", got)
	}
}

func TestTypeRankIgnoresFutureActivities(t *testing.T) {
	base := acts([2]float64{12, 1}, [2]float64{3, 3})
	withFuture := append(append([]Activity(nil), base...),
		Activity{TS: tc.Add(timeutil.Days(2)), Impact: 1e9})
	if TypeRank(base, tc, p7) != TypeRank(withFuture, tc, p7) {
		t.Fatal("future activity changed the rank")
	}
}

func TestTypeRankOverflowClamps(t *testing.T) {
	// ~150 weekly periods with impact growing linearly toward the
	// present: the log-weighted product Σ e·ln(b_e) exceeds 709, so a
	// raw float64 product overflows and must clamp.
	var a []Activity
	for back := 149; back >= 0; back-- {
		a = append(a, Activity{
			TS:     tc.Add(-timeutil.Duration(back)*p7 - timeutil.Hour),
			Impact: float64(150 - back),
		})
	}
	got := TypeRank(a, tc, p7)
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("rank overflowed: %v", got)
	}
	if got != math.MaxFloat64 {
		t.Fatalf("rank = %v, want MaxFloat64 clamp", got)
	}
}

func TestTypeRankPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero period":     func() { TypeRank(nil, tc, 0) },
		"negative impact": func() { TypeRank(acts([2]float64{1, -3}), tc, p7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: Φ is invariant under uniform scaling of impacts (only
// relative per-period shares matter).
func TestTypeRankScaleInvariance(t *testing.T) {
	f := func(raw [6]uint8, scaleRaw uint8) bool {
		scale := 1 + float64(scaleRaw)
		var base, scaled []Activity
		for i, v := range raw {
			impact := float64(v) + 1
			ts := tc.Add(-timeutil.Duration(i) * p7 / 2)
			base = append(base, Activity{TS: ts, Impact: impact})
			scaled = append(scaled, Activity{TS: ts, Impact: impact * scale})
		}
		// Lists are built newest-first; sort by construction order.
		reverse(base)
		reverse(scaled)
		a, b := TypeRank(base, tc, p7), TypeRank(scaled, tc, p7)
		if a == 0 && b == 0 {
			return true
		}
		return math.Abs(a-b) <= 1e-9*math.Max(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func reverse(a []Activity) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}

// Property: the sum of activeness ratios over the window never
// exceeds m (it equals m exactly when every activity falls inside
// the window). Verified indirectly: a history fully inside one
// period has Φ = 1.
func TestTypeRankSinglePeriodAlwaysOne(t *testing.T) {
	f := func(impacts [4]uint8) bool {
		var a []Activity
		total := 0.0
		for i, v := range impacts {
			impact := float64(v) + 1
			total += impact
			a = append(a, Activity{TS: tc.Add(-timeutil.Duration(i+1) * timeutil.Hour), Impact: impact})
		}
		reverse(a)
		phi := TypeRank(a, tc, p7)
		return math.Abs(phi-1) < 1e-9 && total > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCombineTypeRanks pins Eq. 6 where ranks are computed: a class
// with no recorded type keeps the empty product 1, and a product of
// type ranks that overflows clamps to MaxFloat64, on the evaluator and
// on the cursor walk alike. The plain product is
// TestEvaluatorMultipleTypesMultiply.
func TestCombineTypeRanks(t *testing.T) {
	e := NewEvaluator(p7)
	jobs := e.AddType("job", Operation)
	logins := e.AddType("login", Operation)
	e.AddType("pub", Outcome)
	// Each type alone already clamps (TestTypeRankOverflowClamps), so
	// their product overflows.
	for back := 149; back >= 0; back-- {
		at := tc.Add(-timeutil.Duration(back)*p7 - timeutil.Hour)
		e.Record(jobs, 0, at, float64(150-back))
		e.Record(logins, 0, at, float64(150-back))
	}
	r := e.EvaluateUser(0, tc)
	if r.Op != math.MaxFloat64 || !r.HasOp {
		t.Errorf("overflowing Φ_op = %v (has=%v), want MaxFloat64", r.Op, r.HasOp)
	}
	if r.Oc != 1 || r.HasOc {
		t.Errorf("empty outcome class Φ_oc = %v (has=%v), want 1", r.Oc, r.HasOc)
	}
	if got := e.NewCursors().EvaluateUser(0, tc); got != r {
		t.Errorf("cursor walk = %+v, evaluator = %+v", got, r)
	}
}

func TestRankClassification(t *testing.T) {
	cases := []struct {
		r    Rank
		want Group
	}{
		{Rank{Op: 2, Oc: 2, HasOp: true, HasOc: true}, BothActive},
		{Rank{Op: 2, Oc: 0.5, HasOp: true, HasOc: true}, OperationActiveOnly},
		{Rank{Op: 0.5, Oc: 2, HasOp: true, HasOc: true}, OutcomeActiveOnly},
		{Rank{Op: 0.5, Oc: 0.5, HasOp: true, HasOc: true}, BothInactive},
		{Rank{Op: 1, Oc: 1, HasOp: true, HasOc: true}, BothActive}, // boundary Φ=1 is active
		{NewUserRank(), BothInactive},                              // no data → inactive despite rank 1.0
		{Rank{Op: 5, Oc: 1}, BothInactive},                         // rank without data doesn't count
		{Rank{Op: 2, HasOp: true, Oc: 1}, OperationActiveOnly},
	}
	for i, c := range cases {
		if got := c.r.Group(); got != c.want {
			t.Errorf("case %d: Group = %v, want %v", i, got, c.want)
		}
	}
}

func TestLifetimeMultiplier(t *testing.T) {
	cases := []struct {
		r    Rank
		want float64
	}{
		{Rank{Op: 3, Oc: 2, HasOp: true, HasOc: true}, 6},       // both active: product
		{Rank{Op: 3, Oc: 0, HasOp: true, HasOc: true}, 3},       // op-only: operations alone
		{Rank{Op: 0, Oc: 4, HasOp: true, HasOc: true}, 4},       // oc-only: outcomes alone
		{Rank{Op: 0.2, Oc: 0, HasOp: true, HasOc: true}, 0},     // both inactive: cut back to 0
		{Rank{Op: 0.4, Oc: 0.5, HasOp: true, HasOc: true}, 0.2}, // both inactive: raw product
		{Rank{Op: 0.5, Oc: 1, HasOp: true}, 0.5},                // inactive with op data only
		{NewUserRank(), 1},                                      // new user: initial lifetime
	}
	for i, c := range cases {
		if got := c.r.LifetimeMultiplier(); got != c.want {
			t.Errorf("case %d: multiplier = %v, want %v", i, got, c.want)
		}
	}
	inf := Rank{Op: math.MaxFloat64, Oc: math.MaxFloat64, HasOp: true, HasOc: true}
	if got := inf.LifetimeMultiplier(); got != math.MaxFloat64 {
		t.Errorf("overflow multiplier = %v", got)
	}
}

func TestStrictEq7Multiplier(t *testing.T) {
	r := Rank{Op: 3, Oc: 0, HasOp: true, HasOc: true}
	if got := r.StrictEq7Multiplier(); got != 0 {
		t.Errorf("strict Eq7 = %v, want 0", got)
	}
	inf := Rank{Op: math.MaxFloat64, Oc: 2}
	if got := inf.StrictEq7Multiplier(); got != math.MaxFloat64 {
		t.Errorf("strict Eq7 overflow = %v", got)
	}
}

func TestEvaluatorEndToEnd(t *testing.T) {
	e := NewEvaluator(p7)
	jobT := e.AddType("job-submission", Operation)
	pubT := e.AddType("publication", Outcome)
	if len(e.Types()) != 2 || e.Types()[0].Name != "job-submission" {
		t.Fatal("type registry wrong")
	}
	// User 0: steadily rising job activity over the last 2 weeks and a
	// recent publication → both active.
	e.Record(jobT, 0, tc.Add(-timeutil.Days(12)), 10)
	e.Record(jobT, 0, tc.Add(-timeutil.Days(8)), 20)
	e.Record(jobT, 0, tc.Add(-timeutil.Days(2)), 40)
	e.RecordPublications(pubT, []trace.Publication{
		{TS: tc.Add(-timeutil.Days(3)), Citations: 4, Authors: []trace.UserID{0}},
	})
	// User 1: one burst of jobs months ago → operation-inactive, no
	// outcome data.
	e.Record(jobT, 1, tc.Add(-timeutil.Days(200)), 100)
	e.Record(jobT, 1, tc.Add(-timeutil.Days(195)), 100)
	// User 2: nothing.
	ranks := e.EvaluateAll(3, tc)
	if g := ranks[0].Group(); g != BothActive {
		t.Errorf("user 0 group = %v (rank %+v), want BothActive", g, ranks[0])
	}
	if !ranks[1].HasOp || ranks[1].HasOc {
		t.Errorf("user 1 flags wrong: %+v", ranks[1])
	}
	if g := ranks[1].Group(); g != BothInactive {
		t.Errorf("user 1 group = %v, want BothInactive (stale)", g)
	}
	if ranks[2] != NewUserRank() {
		t.Errorf("user 2 rank = %+v, want new-user rank", ranks[2])
	}
	// Recency drift: re-evaluating user 0 four months later flips them
	// inactive.
	later := tc.Add(timeutil.Days(120))
	r := e.EvaluateUser(0, later)
	if r.Group() != BothInactive {
		t.Errorf("user 0 four months later = %v (rank %+v), want BothInactive", r.Group(), r)
	}
}

func TestEvaluatorRecordJobs(t *testing.T) {
	e := NewEvaluator(p7)
	jobT := e.AddType("job", Operation)
	e.RecordJobs(jobT, []trace.Job{
		{User: 0, Submit: tc.Add(-timeutil.Days(1)), Duration: 2 * timeutil.Hour, Cores: 8},
	})
	r := e.EvaluateUser(0, tc)
	if !r.HasOp || r.Op != 1 {
		t.Fatalf("rank = %+v, want single-period active", r)
	}
}

func TestEvaluatorUnsortedInput(t *testing.T) {
	e := NewEvaluator(p7)
	jt := e.AddType("job", Operation)
	// Deliberately out of order.
	e.Record(jt, 0, tc.Add(-timeutil.Days(2)), 40)
	e.Record(jt, 0, tc.Add(-timeutil.Days(12)), 10)
	e.Record(jt, 0, tc.Add(-timeutil.Days(8)), 20)
	r := e.EvaluateUser(0, tc)
	if r.Op <= 1 {
		t.Fatalf("rising trend not detected from unsorted input: %+v", r)
	}
}

func TestEvaluatorMultipleTypesMultiply(t *testing.T) {
	e := NewEvaluator(p7)
	a := e.AddType("job", Operation)
	b := e.AddType("login", Operation)
	// Rising trend on both op types → Φ_op is the product of two
	// ranks > 1.
	for _, tt := range []TypeID{a, b} {
		e.Record(tt, 0, tc.Add(-timeutil.Days(12)), 1)
		e.Record(tt, 0, tc.Add(-timeutil.Days(3)), 3)
	}
	r := e.EvaluateUser(0, tc)
	if math.Abs(r.Op-1.125*1.125) > 1e-9 {
		t.Fatalf("Φ_op = %v, want 1.125²", r.Op)
	}
}

func TestMatrix(t *testing.T) {
	ranks := []Rank{
		{Op: 2, Oc: 2, HasOp: true, HasOc: true},
		{Op: 2, Oc: 0, HasOp: true, HasOc: true},
		{Op: 0, Oc: 0, HasOp: true, HasOc: true},
		NewUserRank(),
	}
	m := NewMatrix(ranks)
	if m.Total != 4 {
		t.Fatalf("Total = %d", m.Total)
	}
	if m.Counts[BothActive] != 1 || m.Counts[OperationActiveOnly] != 1 || m.Counts[BothInactive] != 2 {
		t.Fatalf("Counts = %v", m.Counts)
	}
	if m.Share(BothInactive) != 0.5 {
		t.Fatalf("Share = %v", m.Share(BothInactive))
	}
	if (Matrix{}).Share(BothActive) != 0 {
		t.Fatal("empty matrix share should be 0")
	}
}

func TestGroupStrings(t *testing.T) {
	want := map[Group]string{
		BothInactive:        "Both Inactive",
		OutcomeActiveOnly:   "Outcome Active Only",
		OperationActiveOnly: "Operation Active Only",
		BothActive:          "Both Active",
	}
	for g, s := range want {
		if g.String() != s {
			t.Errorf("%d.String() = %q, want %q", g, g.String(), s)
		}
	}
	if Operation.String() != "operation" || Outcome.String() != "outcome" {
		t.Error("Class strings wrong")
	}
	if len(Groups()) != NumGroups {
		t.Error("Groups() wrong length")
	}
}

func TestAuthorImpactMatchesRecordPublications(t *testing.T) {
	pub := trace.Publication{TS: tc.Add(-timeutil.Days(1)), Citations: 9, Authors: []trace.UserID{3, 4}}
	e := NewEvaluator(p7)
	pt := e.AddType("pub", Outcome)
	e.RecordPublications(pt, []trace.Publication{pub})
	// Both authors have a single activity in a single period → Φ = 1,
	// but the recorded impacts must match Eq. (8).
	for _, u := range pub.Authors {
		r := e.EvaluateUser(u, tc)
		if !r.HasOc || r.Oc != 1 {
			t.Errorf("user %d rank = %+v", u, r)
		}
	}
}

func TestRecordLoginsAndTransfers(t *testing.T) {
	e := NewEvaluator(p7)
	lt := e.AddType("shell-login", Operation)
	tt := e.AddType("data-transfer", Operation)
	e.RecordLogins(lt, []trace.Login{
		{User: 0, TS: tc.Add(-timeutil.Days(2))},
		{User: 0, TS: tc.Add(-timeutil.Days(1))},
	})
	e.RecordTransfers(tt, []trace.Transfer{
		{User: 0, TS: tc.Add(-timeutil.Days(3)), Dir: trace.TransferIn, Bytes: 10e9},
	})
	r := e.EvaluateUser(0, tc)
	if !r.HasOp {
		t.Fatal("logins/transfers not recorded as operations")
	}
	// Both histories sit in single periods → each Φ = 1 → product 1.
	if r.Op != 1 {
		t.Fatalf("Φ_op = %v, want 1", r.Op)
	}
	if r.HasOc {
		t.Fatal("operations leaked into outcomes")
	}
}
