// Package profiling holds the wall-clock probe the replay packages
// time themselves with.
package profiling

import "time"

// Stopwatch is a wall-clock probe for performance reporting. It
// exists so the deterministic replay packages never touch time.Now
// directly: elapsed-time fields in reports are measurement metadata,
// and every read of the wall clock is funneled through this package
// where the nondeterminism lint rule (DESIGN.md §9) permits it.
type Stopwatch struct {
	start time.Time
}

// StartTimer starts a wall-clock stopwatch.
func StartTimer() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed returns the wall-clock time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }
