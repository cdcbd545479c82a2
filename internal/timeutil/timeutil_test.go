package timeutil

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDateRoundTrip(t *testing.T) {
	d := Date(2016, time.January, 1)
	if got := d.Go(); got.Year() != 2016 || got.Month() != time.January || got.Day() != 1 {
		t.Fatalf("Date round trip = %v", got)
	}
	if d.DateString() != "2016-01-01" {
		t.Fatalf("DateString = %q", d.DateString())
	}
	if d.MonthString() != "2016-01" {
		t.Fatalf("MonthString = %q", d.MonthString())
	}
}

func TestAddSub(t *testing.T) {
	a := Date(2016, time.March, 1)
	b := a.Add(Days(10))
	if b.Sub(a) != Days(10) {
		t.Fatalf("Sub = %v, want 10d", b.Sub(a))
	}
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After inconsistent")
	}
}

func TestStartOfDay(t *testing.T) {
	d := Date(2016, time.June, 15).Add(13*Hour + 2345)
	if got := d.StartOfDay(); got != Date(2016, time.June, 15) {
		t.Fatalf("StartOfDay = %v", got)
	}
	// Midnight is a fixed point.
	m := Date(2016, time.June, 15)
	if m.StartOfDay() != m {
		t.Fatal("StartOfDay not idempotent at midnight")
	}
}

func TestDayIndexMonotone(t *testing.T) {
	a := Date(2015, time.December, 31)
	b := Date(2016, time.January, 1)
	if b.DayIndex()-a.DayIndex() != 1 {
		t.Fatalf("DayIndex delta = %d", b.DayIndex()-a.DayIndex())
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 7, 0},
		{1, 7, 1},
		{7, 7, 1},
		{8, 7, 2},
		{14, 7, 2},
		{15, 7, 3},
		{-1, 7, 0},
		{-7, 7, -1},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilDiv(1,0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestPeriodCount(t *testing.T) {
	base := Date(2016, time.January, 1)
	cases := []struct {
		first, last Time
		p           Duration
		want        int
	}{
		{base, base, Days(7), 1},                 // zero span
		{base, base.Add(Days(1)), Days(7), 1},    // sub-period span
		{base, base.Add(Days(7)), Days(7), 1},    // exact period
		{base, base.Add(Days(8)), Days(7), 2},    // just over
		{base, base.Add(Days(365)), Days(7), 53}, // year of weeks
		{base.Add(Days(3)), base, Days(7), 1},    // inverted span clamps
		{base, base.Add(Days(365)), Days(90), 5}, // quarters
	}
	for i, c := range cases {
		if got := PeriodCount(c.first, c.last, c.p); got != c.want {
			t.Errorf("case %d: PeriodCount = %d, want %d", i, got, c.want)
		}
	}
}

// TestPeriodIndexFigure3 reproduces the worked example of the paper's
// Figure 3: m = 5 periods ending at tc, and activities at tc−5…tc−1
// period offsets receive indices 1…5.
func TestPeriodIndexFigure3(t *testing.T) {
	p := Days(7)
	tc := Date(2016, time.July, 1)
	m := 5
	for back := 1; back <= 5; back++ {
		// An activity in the middle of the period (tc−back·p, tc−(back−1)·p].
		ts := tc.Add(-Duration(back)*p + p/2)
		want := m - back + 1
		if got := PeriodIndex(tc, ts, m, p); got != want {
			t.Errorf("back=%d: PeriodIndex = %d, want %d", back, got, want)
		}
	}
}

func TestPeriodIndexEdges(t *testing.T) {
	p := Days(7)
	tc := Date(2016, time.July, 1)
	m := 4
	if got := PeriodIndex(tc, tc, m, p); got != m {
		t.Errorf("activity at tc: index = %d, want %d (newest period)", got, m)
	}
	// Exactly one period old: boundary belongs to the newest period
	// because ceil(P/P) = 1.
	if got := PeriodIndex(tc, tc.Add(-p), m, p); got != m {
		t.Errorf("activity at tc−P: index = %d, want %d", got, m)
	}
	// Older than the window: index ≤ 0.
	if got := PeriodIndex(tc, tc.Add(-Duration(m+2)*p), m, p); got > 0 {
		t.Errorf("stale activity: index = %d, want ≤ 0", got)
	}
	// Future activity clamps to m+1.
	if got := PeriodIndex(tc, tc.Add(p), m, p); got != m+1 {
		t.Errorf("future activity: index = %d, want %d", got, m+1)
	}
}

// Property: the period index is always within [m−ceil(age/p)+1] and
// monotonically non-decreasing in ts.
func TestPeriodIndexMonotoneProperty(t *testing.T) {
	p := Days(7)
	tc := Date(2016, time.July, 1)
	f := func(off1, off2 uint32) bool {
		a := tc.Add(-Duration(off1 % (400 * uint32(Day))))
		b := tc.Add(-Duration(off2 % (400 * uint32(Day))))
		if a > b {
			a, b = b, a
		}
		m := 30
		ia := PeriodIndex(tc, a, m, p)
		ib := PeriodIndex(tc, b, m, p)
		return ia <= ib && ib <= m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{Days(90), "90d"},
		{5 * Hour, "5h"},
		{42, "42s"},
		{0, "0s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestStartOfDayPreEpoch(t *testing.T) {
	// Pre-epoch times floor toward the earlier midnight.
	pre := Time(-1)
	if got := pre.StartOfDay(); got != Time(-int64(Day)) {
		t.Fatalf("StartOfDay(-1) = %d, want %d", got, -int64(Day))
	}
	exact := Time(-2 * int64(Day))
	if exact.StartOfDay() != exact {
		t.Fatal("pre-epoch midnight not a fixed point")
	}
}

func TestTimeString(t *testing.T) {
	d := Date(2016, time.March, 4).Add(5 * Hour)
	if got := d.String(); got != "2016-03-04 05:00:00" {
		t.Fatalf("String = %q", got)
	}
}

func TestPeriodCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PeriodCount with zero period did not panic")
		}
	}()
	PeriodCount(0, 1, 0)
}

func TestPeriodIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PeriodIndex with zero period did not panic")
		}
	}()
	PeriodIndex(0, 0, 1, 0)
}
