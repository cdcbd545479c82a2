// Package timeutil provides the timestamp and period arithmetic shared
// by the activeness model, the retention policies, and the replay
// emulator.
//
// All timestamps are Unix seconds held in the Time type. The package
// deliberately avoids time.Time in hot paths: the emulator replays
// millions of events and the activeness model buckets them into
// periods, both of which are pure integer arithmetic.
package timeutil

import (
	"fmt"
	"time"
)

// Time is a Unix timestamp in seconds. The zero value is the epoch.
type Time int64

// Duration is a span of time in seconds.
type Duration int64

// Common durations, in seconds.
const (
	Second Duration = 1
	Minute Duration = 60
	Hour   Duration = 3600
	Day    Duration = 86400
	Week   Duration = 7 * Day
)

// Days returns a Duration of n days.
func Days(n int) Duration { return Duration(n) * Day }

// FromGo converts a time.Time to a Time.
//
//lint:allow nondeterminism FromGo is the conversion boundary from Go time
func FromGo(t time.Time) Time { return Time(t.Unix()) }

// Date builds a Time from a UTC calendar date.
func Date(year int, month time.Month, day int) Time {
	return FromGo(time.Date(year, month, day, 0, 0, 0, 0, time.UTC))
}

// Go converts t to a time.Time in UTC.
//
//lint:allow nondeterminism Go is the conversion boundary to Go time
func (t Time) Go() time.Time { return time.Unix(int64(t), 0).UTC() }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t − u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// DayIndex returns the number of whole days since the epoch. Floor
// division keeps it consistent with StartOfDay (and vfs's atime-day
// buckets) for pre-epoch times: DayIndex(-1s) is -1, not 0.
func (t Time) DayIndex() int { return int(int64(t.StartOfDay()) / int64(Day)) }

// StartOfDay truncates t to midnight UTC.
func (t Time) StartOfDay() Time {
	if t >= 0 {
		return t - t%Time(Day)
	}
	// Floor division for pre-epoch times.
	r := t % Time(Day)
	if r == 0 {
		return t
	}
	return t - r - Time(Day)
}

// String formats t as a UTC date-time.
func (t Time) String() string { return t.Go().Format("2006-01-02 15:04:05") }

// DateString formats t as a UTC date.
func (t Time) DateString() string { return t.Go().Format("2006-01-02") }

// MonthString formats t as YYYY-MM.
func (t Time) MonthString() string { return t.Go().Format("2006-01") }

// String formats a duration in a compact human form (e.g. "90d",
// "36h", "45s").
func (d Duration) String() string {
	switch {
	case d%Day == 0 && d != 0:
		return fmt.Sprintf("%dd", d/Day)
	case d%Hour == 0 && d != 0:
		return fmt.Sprintf("%dh", d/Hour)
	default:
		return fmt.Sprintf("%ds", d)
	}
}

// CeilDiv returns ceil(a/b) for b > 0. It is the ⌈·⌉ of the paper's
// Eq. (1) and Eq. (4).
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("timeutil: CeilDiv with non-positive divisor")
	}
	if a <= 0 {
		// Floor toward zero is already the ceiling for a ≤ 0 when the
		// quotient is non-positive; the activeness model never asks
		// for negative spans, but be exact anyway.
		return -((-a) / b)
	}
	return (a + b - 1) / b
}

// PeriodCount implements Eq. (1): the number of periods of length p
// spanned by activities from first to last. A zero (or negative) span
// still occupies one period.
func PeriodCount(first, last Time, p Duration) int {
	if p <= 0 {
		panic("timeutil: PeriodCount with non-positive period")
	}
	span := int64(last - first)
	if span <= 0 {
		return 1
	}
	return int(CeilDiv(span, int64(p)))
}

// PeriodIndex implements Eq. (4): the 1-based index, within a window
// of m periods ending at tc, of the period containing ts. The most
// recent period has index m; an activity exactly at tc belongs to it.
// Indices ≤ 0 mean the activity predates the window and must be
// ignored; indices > m (ts in the future of tc) are clamped to m+1 so
// callers can detect them.
func PeriodIndex(tc, ts Time, m int, p Duration) int {
	if p <= 0 {
		panic("timeutil: PeriodIndex with non-positive period")
	}
	age := int64(tc - ts)
	if age < 0 {
		return m + 1
	}
	q := CeilDiv(age, int64(p))
	if q == 0 {
		q = 1 // ts == tc lands in the newest period
	}
	e := m - int(q) + 1
	return e
}
