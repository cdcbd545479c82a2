package timeutil

import (
	"testing"
	"time"
)

func mustLoc(t *testing.T, name string) *time.Location {
	t.Helper()
	loc, err := Location(name)
	if err != nil {
		t.Fatalf("Location(%q): %v", name, err)
	}
	return loc
}

// TestParseLocalNormalizesToUTC pins the parse-edge contract: local
// wall clocks in, UTC Unix seconds out, with the zone's offset (winter
// vs summer) applied.
func TestParseLocalNormalizesToUTC(t *testing.T) {
	paris := mustLoc(t, "Europe/Paris")
	cases := []struct {
		in   string
		want Time
	}{
		// Winter: CET = UTC+1, so 00:30 local is 23:30 the previous UTC day.
		{"2024-01-15 00:30:00", 1705275000},
		// Summer: CEST = UTC+2.
		{"2024-07-15 00:30:00", 1720996200},
		// Alternate layouts.
		{"2024-01-15T00:30:00", 1705275000},
		{"2024-01-15 00:30", 1705275000},
		{"2024-01-15", 1705273200}, // bare date → local midnight = 23:00Z prior day
	}
	for _, c := range cases {
		got, err := ParseLocal(c.in, paris)
		if err != nil {
			t.Fatalf("ParseLocal(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseLocal(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestParseLocalDayBoundary is the day-bucketing regression: a record
// stamped shortly after local midnight belongs to the *previous* UTC
// day bucket, and StartOfDay/DayIndex must agree with each other about
// which one.
func TestParseLocalDayBoundary(t *testing.T) {
	paris := mustLoc(t, "Europe/Paris")
	ts, err := ParseLocal("2024-01-15 00:30:00", paris)
	if err != nil {
		t.Fatal(err)
	}
	wantDay := Date(2024, time.January, 14)
	if got := ts.StartOfDay(); got != wantDay {
		t.Fatalf("StartOfDay = %v, want %v", got, wantDay)
	}
	if got, want := ts.DayIndex(), wantDay.DayIndex(); got != want {
		t.Fatalf("DayIndex = %d, want %d", got, want)
	}
	// A record 30 minutes earlier (23:00 local, 22:00Z) stays in the
	// same UTC day; one at 01:30 local (00:30Z) moves to the next.
	before, _ := ParseLocal("2024-01-14 23:00:00", paris)
	after, _ := ParseLocal("2024-01-15 01:30:00", paris)
	if before.DayIndex() != wantDay.DayIndex() {
		t.Fatalf("23:00 local fell out of UTC day %v", wantDay)
	}
	if after.DayIndex() != wantDay.DayIndex()+1 {
		t.Fatalf("01:30 local did not advance a UTC day")
	}
}

// TestParseLocalDST pins Go's (deterministic-given-tzdata) handling of
// the two DST corners, so an upstream behavior change breaks loudly
// here rather than silently reshuffling day buckets.
func TestParseLocalDST(t *testing.T) {
	paris := mustLoc(t, "Europe/Paris")
	cases := []struct {
		name string
		in   string
		want Time
	}{
		{"before spring gap", "2024-03-31 01:59:59", 1711846799},   // 00:59:59Z
		{"inside spring gap", "2024-03-31 02:30:00", 1711848600},   // normalized to 03:30 CEST = 01:30Z
		{"after spring gap", "2024-03-31 03:00:00", 1711846800},    // 01:00Z
		{"ambiguous fall-back", "2024-10-27 02:30:00", 1729992600}, // post-transition CET = 01:30Z
		{"after fall-back", "2024-10-27 03:30:00", 1729996200},
	}
	for _, c := range cases {
		got, err := ParseLocal(c.in, paris)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: ParseLocal(%q) = %d, want %d", c.name, c.in, got, c.want)
		}
	}
	// The spring-gap normalization lands *after* the 03:00 wall clock on
	// the Unix line: ingestion must re-sort, not trust wall order.
	gap, _ := ParseLocal("2024-03-31 02:30:00", paris)
	post, _ := ParseLocal("2024-03-31 03:00:00", paris)
	if !post.Before(gap) {
		t.Fatalf("expected gap-normalized time (%d) to land after 03:00 (%d)", gap, post)
	}
	// Every timestamp on a DST day still buckets into exactly the UTC
	// day its normalized instant falls in.
	for _, ts := range []Time{gap, post} {
		if ts.StartOfDay() != Date(2024, time.March, 31) {
			t.Fatalf("DST-day timestamp %d bucketed to %v", ts, ts.StartOfDay())
		}
	}
}

// TestParseLocalRejects covers the malformed shapes the lenient
// ingestion edge must quarantine rather than crash on.
func TestParseLocalRejects(t *testing.T) {
	paris := mustLoc(t, "Europe/Paris")
	for _, s := range []string{
		"", "   ", "garbage", "2024-13-40 99:99:99", "15/01/2024 00:30:00",
		"2024-01-15 00:30:00 CET", "1705275000",
	} {
		if _, err := ParseLocal(s, paris); err == nil {
			t.Errorf("ParseLocal(%q) accepted", s)
		}
	}
}

// TestParseLocalNilLocation means UTC.
func TestParseLocalNilLocation(t *testing.T) {
	got, err := ParseLocal("2024-01-15 00:30:00", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := Date(2024, time.January, 15).Add(30 * Minute); got != want {
		t.Fatalf("ParseLocal nil loc = %d, want %d", got, want)
	}
}

// TestDayIndexFloorsPreEpoch is the regression for the DayIndex /
// StartOfDay divergence: truncating division put -1s in day 0 while
// StartOfDay (and the vfs atime-day buckets) floored it into day -1.
func TestDayIndexFloorsPreEpoch(t *testing.T) {
	cases := []struct {
		t    Time
		want int
	}{
		{0, 0},
		{Time(Day) - 1, 0},
		{Time(Day), 1},
		{-1, -1},
		{-Time(Day), -1},
		{-Time(Day) - 1, -2},
	}
	for _, c := range cases {
		if got := c.t.DayIndex(); got != c.want {
			t.Errorf("DayIndex(%d) = %d, want %d", c.t, got, c.want)
		}
		// Consistency with StartOfDay, the invariant that actually matters.
		if got := int(int64(c.t.StartOfDay()) / int64(Day)); got != c.t.DayIndex() {
			t.Errorf("DayIndex(%d)=%d disagrees with StartOfDay-derived %d", c.t, c.t.DayIndex(), got)
		}
	}
}
