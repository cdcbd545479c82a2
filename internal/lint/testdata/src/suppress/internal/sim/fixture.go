// Package sim is the suppression fixture: //lint:allow directives in
// every position and state of repair. The golden test asserts the
// exact surviving diagnostics programmatically, since want-comments
// cannot trail directive comments.
package sim

import "time"

// TrailingAllow suppresses on the offending line itself.
func TrailingAllow() time.Duration {
	start := time.Now()      //lint:allow nondeterminism timing probe justified for the fixture
	return time.Since(start) //lint:allow nondeterminism timing probe justified for the fixture
}

// PrecedingAllow suppresses from the line above.
func PrecedingAllow() int64 {
	//lint:allow nondeterminism timing probe justified for the fixture
	return time.Now().UnixNano()
}

// MissingReason must not suppress: the directive below has no
// justification, so both the directive and the finding surface.
func MissingReason() int64 {
	//lint:allow nondeterminism
	return time.Now().UnixNano()
}

// UnknownRule must not suppress either.
func UnknownRule() int64 {
	//lint:allow nosuchrule because reasons
	return time.Now().UnixNano()
}

// StaleAllow carries a well-formed directive over a line with no
// finding: the directive itself surfaces.
func StaleAllow() int64 {
	//lint:allow nondeterminism the clock read this excused is gone
	return 42
}
