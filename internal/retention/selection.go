package retention

import (
	"math"

	"activedr/internal/timeutil"
	"activedr/internal/vfs"
)

// staleCutoff converts the policy condition "age > life at tc" into
// the equivalent index bound "ATime < cutoff", saturating instead of
// wrapping when the lifetime exceeds the representable span.
func staleCutoff(tc timeutil.Time, life timeutil.Duration) timeutil.Time {
	c := int64(tc) - int64(life)
	if int64(life) > 0 && c > int64(tc) {
		return timeutil.Time(math.MinInt64) // nothing can be stale
	}
	if int64(life) < 0 && c < int64(tc) {
		return timeutil.Time(math.MaxInt64) // everything is stale
	}
	return timeutil.Time(c)
}

// candLess is the global candidate order: oldest first, path as the
// deterministic tiebreak.
func candLess(a, b vfs.Candidate) bool {
	if a.Meta.ATime != b.Meta.ATime {
		return a.Meta.ATime < b.Meta.ATime
	}
	return a.Path < b.Path
}

// candidateMerge lazily merges per-user candidate lists (each already
// in (ATime, Path) order) into one global (ATime, Path) stream: a
// min-heap over list heads, so a target- or budget-stopped pass only
// pays to order the prefix it actually consumes.
type candidateMerge struct {
	lists [][]vfs.Candidate // non-empty cursors, heap-ordered by head
	slots []int32           // slots[i] is lists[i]'s position in the input
}

// reset rebuilds the heap over a fresh set of input lists, reusing the
// holder's backing arrays so a policy can keep one merge across
// triggers without re-allocating it.
func (m *candidateMerge) reset(lists [][]vfs.Candidate) {
	m.lists = m.lists[:0]
	m.slots = m.slots[:0]
	for si, l := range lists {
		if len(l) > 0 {
			m.lists = append(m.lists, l)
			m.slots = append(m.slots, int32(si))
		}
	}
	for i := len(m.lists)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

func (m *candidateMerge) len() int { return len(m.lists) }

// pop removes and returns the globally smallest remaining candidate
// and the input slot (user position) it came from.
func (m *candidateMerge) pop() (vfs.Candidate, int32) {
	c, slot := m.lists[0][0], m.slots[0]
	if rest := m.lists[0][1:]; len(rest) > 0 {
		m.lists[0] = rest
	} else {
		last := len(m.lists) - 1
		m.lists[0] = m.lists[last]
		m.slots[0] = m.slots[last]
		m.lists = m.lists[:last]
		m.slots = m.slots[:last]
	}
	m.siftDown(0)
	return c, slot
}

func (m *candidateMerge) siftDown(i int) {
	for {
		small := i
		if l := 2*i + 1; l < len(m.lists) && candLess(m.lists[l][0], m.lists[small][0]) {
			small = l
		}
		if r := 2*i + 2; r < len(m.lists) && candLess(m.lists[r][0], m.lists[small][0]) {
			small = r
		}
		if small == i {
			return
		}
		m.lists[i], m.lists[small] = m.lists[small], m.lists[i]
		m.slots[i], m.slots[small] = m.slots[small], m.slots[i]
		i = small
	}
}
