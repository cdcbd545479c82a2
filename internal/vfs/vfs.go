package vfs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"activedr/internal/obs"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// FileMeta is the per-file metadata the retention policies consult.
type FileMeta struct {
	User    trace.UserID
	Size    int64
	Stripes int
	ATime   timeutil.Time
}

// fileRecord is what a terminal tree node stores: the metadata plus
// the file's canonical path string. Interning the path here means
// walks, snapshots and candidate queries hand out the stored string
// instead of rebuilding one byte slice per file per scan.
//
// The dropped/ovr/pid1 fields only carry state when the record lives
// in a LaneGroup's shared tree (lanes.go); in a private FS they stay
// zero, which reads as "every lane holds the file, no overrides" — so
// a freshly cloned tree needs no per-record initialization.
type fileRecord struct {
	meta FileMeta
	path string
	// dropped is the inverted lane mask: bit i set means lane i purged
	// the file. 0 = held by every lane. When all lane bits are set the
	// record is deleted from the shared tree.
	dropped uint64
	// ovr marks lanes holding a metadata override for this path in
	// their FS.overrides map (divergent owner/size after a per-lane
	// miss re-insert).
	ovr uint64
	// pid1 is the columnar path id + 1 (0 = none), used to invalidate
	// the LaneGroup's path-id→node handle table on delete.
	pid1 int32
}

// Candidate is one purge candidate emitted by StaleFiles.
type Candidate struct {
	Path string
	Meta FileMeta
	// node is the tree node the emitting scan validated for this
	// candidate, letting RemoveCandidate on a lane view skip the
	// lookup. Never trusted blindly: consumers revalidate it and fall
	// back to a path lookup (it goes stale if the record is deleted
	// between emission and removal).
	node *rnode[fileRecord]
}

// idxEntry is one (path, atime-at-index-time) pair in a day bucket.
// An entry is live iff the file still exists, still belongs to the
// bucket's user, and still has exactly this atime; anything else is a
// tombstone dropped at the next compaction. node caches the terminal
// tree node the entry was indexed from — valid as long as the node is
// terminal with a matching path (the radix tree keeps a key's node
// object stable for the key's lifetime), nil or stale falls back to
// the lane group's node map or, on a private FS, findNode. Compactions
// refresh it; Clone nils it (the copy's entries would otherwise point
// into the source tree).
type idxEntry struct {
	path  string
	atime timeutil.Time
	node  *rnode[fileRecord]
}

// userIndex is one user's purge-candidate index: entries bucketed by
// atime day, with the populated day keys kept sorted so a stale-file
// query visits only buckets older than the cutoff. days and buckets
// are parallel slices (buckets[i] holds the entries of days[i]):
// replays append mostly to the newest day, and a sorted slice makes
// that an index assignment where a map key write was the hot spot.
type userIndex struct {
	days    []int64      // sorted ascending
	buckets [][]idxEntry // buckets[i] pairs with days[i]
	// compacted[i] marks bucket i as compacted in place by a lane-group
	// scan (see appendStaleScan): sorted, deduplicated, unique per
	// (path, atime), with node caches that were live at compaction
	// time. Appends clear the mark. A marked bucket is scanned without
	// rebuilding — each entry is revalidated with three loads off the
	// record it already points at, and the first stale entry observed
	// clears the mark so the next scan compacts the churn away.
	compacted []bool
	// skip[i] is a per-lane exhaustion mask over bucket i, maintained
	// only for group-shared indexes. Bit L set means a full fast-path
	// scan of bucket i emitted nothing for lane L and tripped no
	// guard: every entry was either dropped by the lane or hidden by
	// a foreign-owner override. Both states are permanent for an
	// old-bucket entry — re-materializing a dropped file and every
	// override mutation re-stamp the shared ATime with the current
	// (monotone) event time, tombstoning the entry for good — so the
	// lane's future scans skip the bucket with one bit test instead
	// of re-walking history it already purged. Appends clear the
	// mask, since a fresh entry may yield.
	skip []uint64
}

// searchDays returns the insertion point of day in the sorted key
// slice (hand-rolled: called per index update).
func searchDays(days []int64, day int64) int {
	lo, hi := 0, len(days)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if days[mid] < day {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// liveEntry pairs a validated index entry with its current metadata
// during bucket compaction.
type liveEntry struct {
	e    idxEntry
	meta FileMeta
}

const daySeconds = int64(24 * 60 * 60)

// dayOf maps a timestamp to its bucket key (floor division, so the
// mapping stays monotone for pre-epoch times too).
func dayOf(t timeutil.Time) int64 {
	s := int64(t)
	d := s / daySeconds
	if s%daySeconds != 0 && s < 0 {
		d--
	}
	return d
}

// FS is the virtual file system: a compact prefix tree over absolute
// paths with byte and count accounting, overall and per user, plus an
// incrementally maintained per-user atime index that answers purge
// candidate queries without walking the namespace (DESIGN.md §8). FS
// is not safe for concurrent mutation, and StaleFiles mutates
// (it compacts index buckets); the parallel scan pool shards work
// over read-only walks only.
type FS struct {
	tree      *radix[fileRecord]
	bytes     int64
	userBytes map[trace.UserID]int64
	userFiles map[trace.UserID]int64
	// Lane views account per user in dense slices instead of the maps
	// above (which stay nil): UserIDs are dense indices assigned at
	// trace load, purge passes hit the accounting on every removal in
	// every lane, and a slice index beats a map probe there. A user
	// with dFiles[u] == 0 owns nothing in this lane — the same
	// observable state the private maps express by deleting the key.
	dBytes  []int64
	dFiles  []int64
	index   map[trace.UserID]*userIndex
	scratch []liveEntry // reused across StaleFiles bucket compactions
	// probe holds the optional hot-path observability counters. The
	// zero value is fully inert (nil counters discard increments), so
	// an unobserved FS pays one predictable branch per operation.
	probe obs.VFSProbe
	// dirty, when non-nil, is a lane view's open dirty window: every
	// path whose state this lane changed since the last TakeDirty,
	// mapped to that state as of its latest change — the working set of
	// a delta checkpoint. Keys are the interned record paths.
	dirty map[string]DirtyFile

	// Lane-view state. A private FS leaves all of this zero. A lane
	// view shares tree and index with its sibling lanes through group
	// and owns only its accounting maps, overrides and extra index;
	// see lanes.go.
	group     *LaneGroup
	laneBit   uint64
	laneFiles int64
	// overrides holds per-lane metadata (User/Size/Stripes only — the
	// ATime of a lane-held file is always the shared record's, since
	// every lane applies the same touches) for paths whose lane copy
	// diverged from the shared record via a miss re-insert.
	overrides map[string]FileMeta
	// extra indexes override entries whose owner differs from the
	// shared record's owner, so lane stale-file queries still find
	// them under the override owner.
	extra map[trace.UserID]*userIndex

	// hidden is non-nil only on a dry-run view (DryRun): the terminal
	// nodes of the source tree the view has removed. Everything the
	// view answers skips them; the source never sees them.
	hidden map[*rnode[fileRecord]]struct{}
}

// SetProbe installs observability counters for a lane view's
// mutations and any FS's stale-file queries. Clones and dry-run views
// do not inherit the probe: captured states and plans stay unobserved
// so instrumentation never double-counts.
func (f *FS) SetProbe(p obs.VFSProbe) { f.probe = p }

// New returns an empty FS.
func New() *FS {
	return &FS{
		tree:      newRadix[fileRecord](),
		userBytes: make(map[trace.UserID]int64),
		userFiles: make(map[trace.UserID]int64),
		index:     make(map[trace.UserID]*userIndex),
	}
}

// FromSnapshot builds an FS holding every entry of a metadata
// snapshot.
func FromSnapshot(s *trace.Snapshot) (*FS, error) {
	fs := New()
	for i := range s.Entries {
		e := &s.Entries[i]
		if err := fs.Insert(e.Path, FileMeta{User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime}); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// Insert adds or replaces the file at path. Replacement adjusts the
// byte accounting by the size difference.
func (f *FS) Insert(path string, m FileMeta) error {
	if len(path) == 0 || path[0] != '/' {
		return fmt.Errorf("vfs: path %q is not absolute", path)
	}
	if m.Size < 0 {
		return fmt.Errorf("vfs: negative size for %q", path)
	}
	if f.group != nil {
		panic("vfs: lane views are mutated via LaneGroup.ApplyRun, not Insert")
	}
	if f.hidden != nil {
		panic("vfs: a dry-run view only supports Remove, not Insert")
	}
	n, prev, existed := f.tree.put(path, fileRecord{meta: m, path: path})
	if existed {
		f.unaccount(prev.meta)
	}
	f.bytes += m.Size
	f.userBytes[m.User] += m.Size
	f.userFiles[m.User]++
	// The old index entry stays valid only if owner and atime are both
	// unchanged; otherwise it becomes a tombstone and a fresh entry is
	// indexed.
	if !existed || prev.meta.User != m.User || prev.meta.ATime != m.ATime {
		f.indexAdd(m.User, n.value.path, m.ATime, n)
	}
	return nil
}

// Lookup returns the metadata stored at path.
func (f *FS) Lookup(path string) (FileMeta, bool) {
	if f.group != nil {
		n := f.laneResolve(path)
		if n == nil || n.value.dropped&f.laneBit != 0 {
			return FileMeta{}, false
		}
		return f.laneMeta(&n.value), true
	}
	n := f.tree.findNode(path)
	if n == nil || !n.terminal {
		return FileMeta{}, false
	}
	if f.hidden != nil && f.isHidden(n) {
		return FileMeta{}, false
	}
	return n.value.meta, true
}

// isHidden reports whether a dry-run view has removed the file at n.
func (f *FS) isHidden(n *rnode[fileRecord]) bool {
	_, gone := f.hidden[n]
	return gone
}

// Contains reports whether path holds a file.
func (f *FS) Contains(path string) bool {
	_, ok := f.Lookup(path)
	return ok
}

// Touch renews the access time of path, reporting whether the file
// exists.
func (f *FS) Touch(path string, at timeutil.Time) bool {
	if f.group != nil {
		panic("vfs: lane views are mutated via LaneGroup.ApplyRun, not Touch")
	}
	if f.hidden != nil {
		panic("vfs: a dry-run view only supports Remove, not Touch")
	}
	n := f.tree.findNode(path)
	if n == nil || !n.terminal {
		return false
	}
	// An unchanged atime keeps the index entry valid.
	if n.value.meta.ATime != at {
		n.value.meta.ATime = at
		f.indexAdd(n.value.meta.User, n.value.path, at, n)
	}
	return true
}

// Remove purges the file at path, reporting its metadata. Index
// entries are invalidated lazily: the next StaleFiles compaction of
// their bucket drops them. On a lane view only this lane's copy is
// dropped; the shared record dies when the last holder removes it. On
// a dry-run view the file is only hidden from the view.
func (f *FS) Remove(path string) (FileMeta, bool) {
	if f.group != nil {
		return f.laneRemoveNode(f.laneResolve(path), path)
	}
	if f.hidden != nil {
		return f.hide(f.tree.findNode(path))
	}
	r, ok := f.tree.delete(path)
	if !ok {
		return FileMeta{}, false
	}
	f.unaccount(r.meta)
	return r.meta, true
}

// unaccount takes a file's bytes and count off a private FS's (or a
// dry-run view's) totals, dropping users left with nothing.
func (f *FS) unaccount(m FileMeta) {
	f.bytes -= m.Size
	f.userBytes[m.User] -= m.Size
	f.userFiles[m.User]--
	if f.userFiles[m.User] == 0 {
		delete(f.userFiles, m.User)
		delete(f.userBytes, m.User)
	}
}

// RemoveCandidate is Remove for a candidate an earlier StaleFiles
// call emitted: on a lane or dry-run view the candidate's cached node
// replaces the lookup when it still describes the path, and Remove's
// lookup (the node map or the tree) resolves it otherwise. On a
// private FS it is exactly Remove (the radix delete re-descends for
// node merging either way).
func (f *FS) RemoveCandidate(c Candidate) (FileMeta, bool) {
	if f.group == nil && f.hidden == nil {
		return f.Remove(c.Path)
	}
	n := c.node
	valid := n != nil && n.terminal && n.value.path == c.Path
	if f.group != nil {
		if !valid {
			n = f.laneResolve(c.Path)
		}
		return f.laneRemoveNode(n, c.Path)
	}
	if !valid {
		n = f.tree.findNode(c.Path)
	}
	return f.hide(n)
}

// hide removes the file at n from a dry-run view: the view's
// accounting drops it and its queries skip it, while the source's tree,
// index and totals stay as they were.
func (f *FS) hide(n *rnode[fileRecord]) (FileMeta, bool) {
	if n == nil || !n.terminal || f.isHidden(n) {
		return FileMeta{}, false
	}
	f.hidden[n] = struct{}{}
	f.unaccount(n.value.meta)
	return n.value.meta, true
}

// indexAdd appends an entry to the owner's day bucket, registering the
// day key on first use. Buckets grow with a minimum capacity of 8:
// entries spread over hundreds of (user, day) buckets, and letting
// append crawl through caps 1→2→4 doubled the replay's allocation
// count.
func (f *FS) indexAdd(u trace.UserID, path string, at timeutil.Time, n *rnode[fileRecord]) {
	indexAddTo(f.index, u, path, at, n)
}

// indexAddTo is indexAdd against an explicit index map, shared with
// the per-lane extra indexes.
func indexAddTo(index map[trace.UserID]*userIndex, u trace.UserID, path string, at timeutil.Time, n *rnode[fileRecord]) {
	ui := index[u]
	if ui == nil {
		ui = &userIndex{}
		index[u] = ui
	}
	day := dayOf(at)
	i := len(ui.days) - 1
	if i < 0 || ui.days[i] != day { // fast path: replays touch the newest day
		i = searchDays(ui.days, day)
		if i == len(ui.days) || ui.days[i] != day {
			ui.days = append(ui.days, 0)
			copy(ui.days[i+1:], ui.days[i:])
			ui.days[i] = day
			ui.buckets = append(ui.buckets, nil)
			copy(ui.buckets[i+1:], ui.buckets[i:])
			ui.buckets[i] = nil
			ui.compacted = append(ui.compacted, false)
			copy(ui.compacted[i+1:], ui.compacted[i:])
			ui.skip = append(ui.skip, 0)
			copy(ui.skip[i+1:], ui.skip[i:])
		}
	}
	ui.compacted[i] = false // the bucket is no longer known-compacted
	ui.skip[i] = 0          // a fresh entry may yield for any lane
	b := ui.buckets[i]
	if len(b) == cap(b) {
		nb := make([]idxEntry, len(b), max(8, 2*cap(b)))
		copy(nb, b)
		b = nb
	}
	ui.buckets[i] = append(b, idxEntry{path: path, atime: at, node: n})
}

// Users returns every user owning at least one file, ascending. This
// is the deterministic iteration order purge passes scan users in.
func (f *FS) Users() []trace.UserID {
	if f.group != nil {
		out := make([]trace.UserID, 0, len(f.dFiles))
		for u, n := range f.dFiles {
			if n != 0 {
				out = append(out, trace.UserID(u))
			}
		}
		return out // ascending by construction
	}
	out := make([]trace.UserID, 0, len(f.userFiles))
	for u := range f.userFiles {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// StaleFiles returns the live files of user u with ATime < cutoff in
// (ATime, Path) ascending order: the selection contract the purge
// policies consume; see DESIGN.md §8.
func (f *FS) StaleFiles(u trace.UserID, cutoff timeutil.Time) []Candidate {
	return f.AppendStaleFiles(nil, u, cutoff)
}

// AppendStaleFiles is StaleFiles appending into dst, so a purge pass
// can reuse one buffer across users and triggers. As a side effect it
// compacts every bucket it visits: tombstones (removed, chowned or
// re-touched files) are dropped and the bucket is left sorted, so the
// index footprint stays proportional to the live file count.
func (f *FS) AppendStaleFiles(dst []Candidate, u trace.UserID, cutoff timeutil.Time) []Candidate {
	f.probe.StaleQueries.Inc()
	if f.group == nil {
		return f.appendStaleScan(dst, f.index[u], u, cutoff, stalePrivate)
	}
	var xui *userIndex
	if f.extra != nil {
		xui = f.extra[u]
	}
	if xui == nil {
		return f.appendStaleScan(dst, f.index[u], u, cutoff, staleShared)
	}
	// Rare path: this lane holds override entries for u. Candidates
	// from the shared index and the lane's override index are disjoint
	// (an override with the shared owner never reaches the extra
	// index, and a create re-unifies metadata and clears overrides),
	// so collecting both and re-sorting restores the contract order.
	mark := len(dst)
	dst = f.appendStaleScan(dst, f.index[u], u, cutoff, staleShared)
	dst = f.appendStaleScan(dst, xui, u, cutoff, staleExtra)
	merged := dst[mark:]
	slices.SortFunc(merged, func(a, b Candidate) int {
		if a.Meta.ATime != b.Meta.ATime {
			return cmp.Compare(a.Meta.ATime, b.Meta.ATime)
		}
		return strings.Compare(a.Path, b.Path)
	})
	return dst
}

// staleMode selects the liveness and visibility rules of one
// appendStaleScan pass.
type staleMode int

const (
	// stalePrivate: a private FS; the shared record is the record.
	stalePrivate staleMode = iota
	// staleShared: a lane view scanning the group-shared index.
	// Compaction keeps entries live for the *shared* record (so the
	// amortized compaction work is done once for all lanes) and the
	// lane's dropped bit and overrides filter at emission time.
	staleShared
	// staleExtra: a lane view scanning its private override index.
	staleExtra
)

// appendStaleScan is the bucket scan behind AppendStaleFiles: walk the
// day buckets older than cutoff, validate entries against the tree
// (through the cached node pointer when it is still current), compact
// the bucket in place, and emit the visible stale prefix.
func (f *FS) appendStaleScan(dst []Candidate, ui *userIndex, u trace.UserID, cutoff timeutil.Time, mode staleMode) []Candidate {
	if ui == nil {
		return dst
	}
	for di := 0; di < len(ui.days); {
		day := ui.days[di]
		if day*daySeconds >= int64(cutoff) {
			break // this bucket and all later ones start at or after cutoff
		}
		bucket := ui.buckets[di]
		// Fast path for lane groups: a compacted bucket is still sorted
		// and deduplicated (appends clear the mark), so the scan skips
		// the rebuild and revalidates each entry with three compares
		// against the record it already points at. The radix tree keeps
		// a key's node object stable for the key's lifetime (tree.go),
		// so a cached node either still describes the entry's file or
		// fails these checks; stale entries self-heal by clearing the
		// mark, queueing the bucket for compaction at the next scan.
		if mode == staleShared && ui.compacted[di] {
			if ui.skip[di]&f.laneBit != 0 {
				di++ // exhausted for this lane: nothing here can yield again
				continue
			}
			split := sort.Search(len(bucket), func(i int) bool { return bucket[i].atime >= cutoff })
			mark := len(dst)
			for i := 0; i < split; i++ {
				e := &bucket[i]
				n := e.node
				rec := &n.value
				if !n.terminal || rec.meta.ATime != e.atime || rec.meta.User != u || rec.path != e.path {
					// Re-touched, chowned or deleted since compaction:
					// a tombstone. Skip it and schedule a compaction.
					ui.compacted[di] = false
					continue
				}
				if rec.dropped&f.laneBit != 0 {
					continue
				}
				m := rec.meta
				if rec.ovr&f.laneBit != 0 {
					o := f.overrides[e.path]
					if o.User != u {
						continue
					}
					m.User, m.Size, m.Stripes = o.User, o.Size, o.Stripes
				}
				dst = append(dst, Candidate{Path: e.path, Meta: m, node: n})
			}
			// A clean full scan (no tombstones, whole bucket below the
			// cutoff) that emitted nothing proves the bucket exhausted
			// for this lane: see the skip field invariant.
			if len(dst) == mark && split == len(bucket) && ui.compacted[di] {
				ui.skip[di] |= f.laneBit
			}
			di++
			continue
		}
		live := f.scratch[:0]
		for _, e := range bucket {
			n := e.node
			if n == nil || !n.terminal || n.value.path != e.path {
				// Stale node cache: a lane view resolves the entry's
				// path through the group's node map, a private FS
				// descends the tree.
				if f.group != nil {
					n = f.laneResolve(e.path)
				} else {
					n = f.tree.findNode(e.path)
				}
				if n == nil || !n.terminal {
					continue
				}
			}
			rec := &n.value
			if rec.meta.ATime != e.atime {
				continue
			}
			switch mode {
			case stalePrivate, staleShared:
				if rec.meta.User != u {
					continue
				}
			case staleExtra:
				if rec.dropped&f.laneBit != 0 || rec.ovr&f.laneBit == 0 ||
					f.overrides[e.path].User != u {
					continue
				}
			}
			e.node = n
			live = append(live, liveEntry{e: e, meta: rec.meta})
		}
		if !liveSorted(live) {
			slices.SortFunc(live, func(a, b liveEntry) int {
				if a.e.atime != b.e.atime {
					return cmp.Compare(a.e.atime, b.e.atime)
				}
				return strings.Compare(a.e.path, b.e.path)
			})
		}
		// Drop duplicate entries (same path indexed twice at the same
		// atime, e.g. remove + re-insert): equal pairs are adjacent now.
		w := 0
		for i := range live {
			if i > 0 && live[i].e == live[i-1].e {
				continue
			}
			live[w] = live[i]
			w++
		}
		live = live[:w]
		f.scratch = live // retain grown capacity
		// Stale entries are a prefix: staleness depends only on atime.
		split := sort.Search(len(live), func(i int) bool { return live[i].e.atime >= cutoff })
		for i := 0; i < split; i++ {
			le := &live[i]
			m := le.meta
			switch mode {
			case stalePrivate:
				// A dry-run view compacts against the live tree, so the
				// bucket stays right for the source; its own removals
				// only filter what it emits.
				if f.hidden != nil && f.isHidden(le.e.node) {
					continue
				}
			case staleShared:
				rec := &le.e.node.value
				if rec.dropped&f.laneBit != 0 {
					continue
				}
				if rec.ovr&f.laneBit != 0 {
					o := f.overrides[le.e.path]
					if o.User != u {
						continue
					}
					m.User, m.Size, m.Stripes = o.User, o.Size, o.Stripes
				}
			case staleExtra:
				o := f.overrides[le.e.path]
				m.User, m.Size, m.Stripes = o.User, o.Size, o.Stripes
			}
			dst = append(dst, Candidate{Path: le.e.path, Meta: m, node: le.e.node})
		}
		if len(live) == 0 {
			ui.days = append(ui.days[:di], ui.days[di+1:]...)
			ui.buckets = append(ui.buckets[:di], ui.buckets[di+1:]...)
			ui.compacted = append(ui.compacted[:di], ui.compacted[di+1:]...)
			ui.skip = append(ui.skip[:di], ui.skip[di+1:]...)
			continue // di now names the next day
		}
		bucket = bucket[:0]
		for i := range live {
			bucket = append(bucket, live[i].e)
		}
		ui.buckets[di] = bucket
		// Only group-shared buckets are marked: the fast path's
		// revalidation leans on the group's exact node bookkeeping and
		// the append/compaction discipline, which private indexes (and
		// the per-lane extra indexes) do not maintain.
		ui.compacted[di] = mode == staleShared
		di++
	}
	return dst
}

// liveSorted reports whether live is already in (atime, path) order —
// the common case for a bucket compacted once and appended to in
// replay time order, letting the compaction skip the sort.
func liveSorted(live []liveEntry) bool {
	for i := 1; i < len(live); i++ {
		if live[i].e.atime < live[i-1].e.atime ||
			(live[i].e.atime == live[i-1].e.atime && live[i].e.path < live[i-1].e.path) {
			return false
		}
	}
	return true
}

// Count returns the number of files.
func (f *FS) Count() int {
	if f.group != nil {
		return int(f.laneFiles)
	}
	return f.tree.size() - len(f.hidden)
}

// TotalBytes returns the total stored bytes.
func (f *FS) TotalBytes() int64 { return f.bytes }

// UserBytes returns the bytes owned by u.
func (f *FS) UserBytes(u trace.UserID) int64 {
	if f.group != nil {
		if int(u) < len(f.dBytes) {
			return f.dBytes[u]
		}
		return 0
	}
	return f.userBytes[u]
}

// UserFiles returns the number of files owned by u.
func (f *FS) UserFiles(u trace.UserID) int64 {
	if f.group != nil {
		if int(u) < len(f.dFiles) {
			return f.dFiles[u]
		}
		return 0
	}
	return f.userFiles[u]
}

// Walk visits every file in lexicographic path order. fn returning
// false stops the walk early. Paths are the interned canonical
// strings, so a walk allocates nothing.
func (f *FS) Walk(fn func(path string, m FileMeta) bool) {
	switch {
	case f.group != nil:
		f.laneWalkRecords(f.tree.root, fn)
	case f.hidden != nil:
		f.viewWalkRecords(f.tree.root, fn)
	default:
		walkRecords(f.tree.root, fn)
	}
}

// viewWalkRecords is walkRecords skipping the files a dry-run view
// has removed.
func (f *FS) viewWalkRecords(n *rnode[fileRecord], fn func(path string, m FileMeta) bool) bool {
	if n.terminal && !f.isHidden(n) {
		if !fn(n.value.path, n.value.meta) {
			return false
		}
	}
	for _, c := range n.children {
		if !f.viewWalkRecords(c, fn) {
			return false
		}
	}
	return true
}

// laneWalkRecords is walkRecords restricted to the files this lane
// holds, with override metadata substituted.
func (f *FS) laneWalkRecords(n *rnode[fileRecord], fn func(path string, m FileMeta) bool) bool {
	if n.terminal && n.value.dropped&f.laneBit == 0 {
		if !fn(n.value.path, f.laneMeta(&n.value)) {
			return false
		}
	}
	for _, c := range n.children {
		if !f.laneWalkRecords(c, fn) {
			return false
		}
	}
	return true
}

// walkRecords visits terminal records in lexicographic order using
// their interned paths.
func walkRecords(n *rnode[fileRecord], fn func(path string, m FileMeta) bool) bool {
	if n.terminal {
		if !fn(n.value.path, n.value.meta) {
			return false
		}
	}
	for _, c := range n.children {
		if !walkRecords(c, fn) {
			return false
		}
	}
	return true
}

// Snapshot exports the current state as a metadata snapshot taken at
// the given time.
func (f *FS) Snapshot(taken timeutil.Time) *trace.Snapshot {
	s := &trace.Snapshot{Taken: taken}
	s.Entries = make([]trace.SnapshotEntry, 0, f.Count())
	f.Walk(func(path string, m FileMeta) bool {
		s.Entries = append(s.Entries, trace.SnapshotEntry{
			Path: path, User: m.User, Size: m.Size, Stripes: m.Stripes, ATime: m.ATime,
		})
		return true
	})
	return s
}

// Clone deep-copies the FS so FLT and ActiveDR can replay the same
// initial state independently. The tree is copied structurally (one
// allocation per node, labels and paths shared) and the candidate
// index is copied bucket by bucket. Cloning a lane or dry-run view
// materializes it as a private FS holding exactly the view's files
// and metadata.
func (f *FS) Clone() *FS {
	if f.group != nil || f.hidden != nil {
		c := New()
		f.Walk(func(path string, m FileMeta) bool {
			_ = c.Insert(path, m) // paths/sizes already validated on entry
			return true
		})
		return c
	}
	c := &FS{
		tree:      f.tree.clone(),
		bytes:     f.bytes,
		userBytes: make(map[trace.UserID]int64, len(f.userBytes)),
		userFiles: make(map[trace.UserID]int64, len(f.userFiles)),
		index:     cloneIndex(f.index),
	}
	for u, b := range f.userBytes {
		c.userBytes[u] = b
	}
	for u, n := range f.userFiles {
		c.userFiles[u] = n
	}
	return c
}

// DryRun returns a copy-free view of a private FS or of a one-lane
// view, for planning a purge against it. The view shares f's tree and
// candidate index and copies only the per-user totals, O(users): a
// one-lane group deletes a record once its lane drops it and never
// holds an override, so its tree is exactly the lane's files. Remove
// and RemoveCandidate hide a file from the view; Count, Lookup, Walk,
// the totals and the stale-file queries all answer for what is left,
// while f itself is not changed. The view's queries compact f's index
// buckets as a private FS's do, which changes no query's answer (on a
// lane group they clear compaction marks and set no skip mask). Insert
// and Touch panic, and the view has no probe and no dirty set. A view
// is valid until f's next mutation and is not safe to use concurrently
// with f. DryRun panics on a multi-lane or dry-run view.
func (f *FS) DryRun() *FS {
	if f.hidden != nil || f.group != nil && len(f.group.lanes) > 1 {
		panic("vfs: DryRun needs a private FS or a one-lane view")
	}
	users := f.Users()
	v := &FS{
		tree:      f.tree,
		bytes:     f.bytes,
		userBytes: make(map[trace.UserID]int64, len(users)),
		userFiles: make(map[trace.UserID]int64, len(users)),
		index:     f.index,
		scratch:   f.scratch,
		hidden:    make(map[*rnode[fileRecord]]struct{}),
	}
	for _, u := range users {
		v.userBytes[u], v.userFiles[u] = f.UserBytes(u), f.UserFiles(u)
	}
	return v
}

// cloneIndex deep-copies a candidate index. Cached node pointers are
// dropped: they point into the source tree, not the copy's.
func cloneIndex(index map[trace.UserID]*userIndex) map[trace.UserID]*userIndex {
	out := make(map[trace.UserID]*userIndex, len(index))
	for u, ui := range index {
		cu := &userIndex{
			days:    append([]int64(nil), ui.days...),
			buckets: make([][]idxEntry, len(ui.buckets)),
			// Compaction marks and skip masks are never inherited: the
			// copy's node caches are dropped below, so every bucket
			// must revalidate from scratch.
			compacted: make([]bool, len(ui.days)),
			skip:      make([]uint64, len(ui.days)),
		}
		// All of a user's buckets share one backing array, capped per
		// bucket so a later append reallocates instead of overwriting
		// the neighbor: one allocation per user, not one per day.
		total := 0
		for _, b := range ui.buckets {
			total += len(b)
		}
		backing := make([]idxEntry, total)
		off := 0
		for i, b := range ui.buckets {
			seg := backing[off : off+len(b) : off+len(b)]
			for j := range b {
				seg[j] = idxEntry{path: b[j].path, atime: b[j].atime}
			}
			cu.buckets[i] = seg
			off += len(b)
		}
		out[u] = cu
	}
	return out
}

// DirtyFile is one path's state in a dirty window, as of the path's
// latest mutation: its metadata, or its removal.
type DirtyFile struct {
	Meta    FileMeta
	Removed bool
}

// TrackDirty opens a dirty window on a lane view: from now on every
// mutation of the lane (ApplyRun effects and Removes) records its
// path's resulting state, the working set a delta checkpoint diffs
// against its base. A private FS records nothing, so it panics: a
// window that silently stayed empty would drop paths from a delta.
func (f *FS) TrackDirty() {
	if f.group == nil {
		panic("vfs: only a lane view records a dirty window")
	}
	if f.dirty == nil {
		f.dirty = make(map[string]DirtyFile)
	}
}

// TakeDirty hands over the dirty window and opens the next one, empty.
// The window maps every path mutated since tracking began or the last
// TakeDirty to its state now — exactly what Lookup reports for it —
// so the caller needs no tree lookups, and owns the map. It is
// unordered: a consumer that emits it sorts it first. Nil when
// tracking is off.
func (f *FS) TakeDirty() map[string]DirtyFile {
	w := f.dirty
	if w != nil {
		f.dirty = make(map[string]DirtyFile, len(w))
	}
	return w
}

// Stats summarizes the index footprint of the prefix tree — the
// memory-efficiency measure of the paper's Figure 12a.
type Stats struct {
	Files      int   // terminal nodes
	Nodes      int   // all tree nodes (compression quality indicator)
	LabelBytes int64 // bytes held in edge labels
}

// Stats walks the tree structure and reports its footprint.
func (f *FS) Stats() Stats {
	st := Stats{Files: f.Count()}
	var walk func(n *rnode[fileRecord])
	walk = func(n *rnode[fileRecord]) {
		st.Nodes++
		st.LabelBytes += int64(len(n.label))
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(f.tree.root)
	return st
}

// ReservedSet indexes purge-exempt paths. A reservation covers the
// exact path and, when the reserved path is a directory, its whole
// subtree (any stored prefix followed by '/').
type ReservedSet struct {
	tree *radix[struct{}]
}

// NewReservedSet returns an empty reservation index.
func NewReservedSet() *ReservedSet {
	return &ReservedSet{tree: newRadix[struct{}]()}
}

// Add reserves path (file or directory subtree).
func (r *ReservedSet) Add(path string) { r.tree.put(path, struct{}{}) }

// Len returns the number of reservations.
func (r *ReservedSet) Len() int { return r.tree.size() }

// Covers reports whether path is reserved, either exactly or via an
// ancestor directory reservation.
func (r *ReservedSet) Covers(path string) bool {
	if r == nil || r.tree.size() == 0 {
		return false
	}
	return r.tree.coveredBy(path)
}
