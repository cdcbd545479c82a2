//go:build race

package daemon

// The race detector's instrumentation allocates where the compiler's
// normal output does not (the WAL's append of a zeroed record, once per
// event), so allocation bounds are checked in builds without it.
func init() { raceEnabled = true }
