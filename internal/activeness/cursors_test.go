package activeness

import (
	"math/rand"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// buildRandomEvaluator seeds an evaluator with two operation types
// and one outcome type of random histories for users [0, n).
func buildRandomEvaluator(rng *rand.Rand, n int) *Evaluator {
	e := NewEvaluator(timeutil.Days(90))
	jobs := e.AddType("jobs", Operation)
	logins := e.AddType("logins", Operation)
	pubs := e.AddType("pubs", Outcome)
	year := int64(timeutil.Days(365))
	for u := 0; u < n; u++ {
		for i, t := range []TypeID{jobs, logins, pubs} {
			if rng.Intn(4) == i { // some users lack some types
				continue
			}
			for j := 0; j < rng.Intn(40); j++ {
				e.Record(t, trace.UserID(u), timeutil.Time(rng.Int63n(2*year)), rng.Float64()*100)
			}
		}
	}
	return e
}

// TestCursorsMatchEvaluate is the memoization contract: across a
// monotone trigger schedule (and one backward jump), cursor-based
// ranks must be bit-identical to the direct evaluation — the replay's
// determinism proof depends on it.
func TestCursorsMatchEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const users = 40
	e := buildRandomEvaluator(rng, users)
	c := e.NewCursors()
	year := timeutil.Time(timeutil.Days(365))
	schedule := []timeutil.Time{0, year / 4, year / 2, year, year + 1, year / 3 /* backward */, 2 * year}
	for _, tc := range schedule {
		direct := e.EvaluateAll(users, tc)
		cursor := c.EvaluateAll(users, tc)
		for u := range direct {
			if direct[u] != cursor[u] {
				t.Fatalf("tc=%d user=%d: cursor rank %+v != direct %+v", tc, u, cursor[u], direct[u])
			}
		}
	}
}

// TestEvaluateUserMultiMatchesDedicated is the multiplexed-ranking
// contract: one cursor set answering N periods in a single pass must
// be bit-identical to N dedicated evaluators (one per period, same
// histories) ranking without cursors, across a monotone trigger
// schedule and one backward jump — the shared ranker in the
// multiplexed replay depends on it.
func TestEvaluateUserMultiMatchesDedicated(t *testing.T) {
	const users = 40
	periods := []timeutil.Duration{
		timeutil.Days(7), timeutil.Days(30), timeutil.Days(60),
		timeutil.Days(90), timeutil.Days(365),
	}
	// Identical histories in the multi-period evaluator and every
	// dedicated one: regenerate with the same seed.
	build := func(period timeutil.Duration) *Evaluator {
		rng := rand.New(rand.NewSource(31))
		e := NewEvaluator(period)
		jobs := e.AddType("jobs", Operation)
		logins := e.AddType("logins", Operation)
		pubs := e.AddType("pubs", Outcome)
		year := int64(timeutil.Days(365))
		for u := 0; u < users; u++ {
			for i, ty := range []TypeID{jobs, logins, pubs} {
				if rng.Intn(4) == i {
					continue
				}
				for j := 0; j < rng.Intn(40); j++ {
					e.Record(ty, trace.UserID(u), timeutil.Time(rng.Int63n(2*year)), rng.Float64()*100)
				}
			}
		}
		return e
	}

	multi := build(periods[0]).NewCursors()
	dedicated := make([]*Evaluator, len(periods))
	for i, d := range periods {
		dedicated[i] = build(d)
	}

	year := timeutil.Time(timeutil.Days(365))
	schedule := []timeutil.Time{0, year / 4, year / 2, year, year + 1, year / 3 /* backward */, 2 * year}
	out := make([]Rank, len(periods))
	for _, tc := range schedule {
		for u := 0; u < users; u++ {
			multi.EvaluateUserMulti(trace.UserID(u), tc, periods, out)
			for pi := range periods {
				want := dedicated[pi].EvaluateUser(trace.UserID(u), tc)
				if out[pi] != want {
					t.Fatalf("tc=%d user=%d period=%v: multi rank %+v != dedicated %+v",
						tc, u, periods[pi], out[pi], want)
				}
			}
		}
	}
}

// TestCursorsSingleUserAdvance checks per-user evaluation (the
// concurrent sharding entry point uses the direct path, but cursors
// must agree when driven user by user too).
func TestCursorsSingleUserAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := buildRandomEvaluator(rng, 10)
	c := e.NewCursors()
	for step := 0; step < 30; step++ {
		tc := timeutil.Time(int64(step) * int64(timeutil.Days(25)))
		u := trace.UserID(step % 10)
		if got, want := c.EvaluateUser(u, tc), e.EvaluateUser(u, tc); got != want {
			t.Fatalf("step %d user %d: %+v != %+v", step, u, got, want)
		}
	}
}
