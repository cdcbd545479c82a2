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

// fileRecord is one slot of the record table: the metadata plus the
// file's canonical path string. Interning the path here means walks,
// snapshots and candidate queries hand out the stored string instead
// of rebuilding one byte slice per file per scan. A released slot is
// the zero record; live paths are absolute, so an empty path marks it.
//
// The dropped/ovr fields only carry state when the record lives in a
// LaneGroup's shared table (lanes.go); in a private FS they stay zero,
// which reads as "every lane holds the file, no overrides" — so a
// freshly cloned table needs no per-record initialization.
type fileRecord struct {
	meta FileMeta
	path string
	// dropped is the inverted lane mask: bit i set means lane i purged
	// the file. 0 = held by every lane. When all lane bits are set the
	// record is released from the shared table.
	dropped uint64
	// ovr marks lanes holding a metadata override for this path in
	// their FS.overrides map (divergent owner/size after a per-lane
	// miss re-insert).
	ovr uint64
}

// table is the namespace's record table: a slab of records addressed
// by dense ids, the path-to-id map of every live record, and the ids
// released since, which the next inserts reuse before the slab grows.
// The map's keys are the records' own path strings, so it holds no
// path bytes of its own. The slab never shrinks, so an id once issued
// stays in range, in a clone of the table too. Because an id can be
// reused for another path, every holder of one (index entries,
// candidates, the lane group's handles) checks it with holds before
// trusting it; a stale id falls back to the map.
type table struct {
	recs []fileRecord
	ids  map[string]int32
	free []int32
}

func newTable(n int) *table {
	return &table{recs: make([]fileRecord, 0, n), ids: make(map[string]int32, n)}
}

// holds reports whether id names the live record of path.
func (t *table) holds(id int32, path string) bool {
	return uint(id) < uint(len(t.recs)) && t.recs[id].path == path
}

// add stores a new record for path, which must not be live, and
// returns its id.
func (t *table) add(path string, m FileMeta) int32 {
	var id int32
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
		t.recs[id] = fileRecord{meta: m, path: path}
	} else {
		id = int32(len(t.recs))
		t.recs = append(t.recs, fileRecord{meta: m, path: path})
	}
	t.ids[path] = id
	return id
}

// release drops the live record id, clearing its slot so its path
// string can be collected, and frees the id for reuse.
func (t *table) release(id int32) {
	delete(t.ids, t.recs[id].path)
	t.recs[id] = fileRecord{}
	t.free = append(t.free, id)
}

// clone copies the table. Records copy by value and share their path
// strings with the source. The copy's map is filled from the slab:
// that takes a third of the time maps.Clone does.
func (t *table) clone() *table {
	c := &table{recs: slices.Clone(t.recs), ids: make(map[string]int32, len(t.ids)), free: slices.Clone(t.free)}
	for i := range c.recs {
		if p := c.recs[i].path; p != "" {
			c.ids[p] = int32(i)
		}
	}
	return c
}

// Candidate is one purge candidate emitted by StaleFiles.
type Candidate struct {
	Path string
	Meta FileMeta
	// id is the record the emitting scan validated for this candidate,
	// letting RemoveCandidate skip the map probe. Never trusted
	// blindly: it goes stale if the record is released between
	// emission and removal, so RemoveCandidate checks it against Path
	// and falls back to the path map.
	id int32
}

// idxEntry is one (path, atime-at-index-time) pair in a day bucket.
// An entry is live iff the file still exists, still belongs to the
// bucket's user, and still has exactly this atime; anything else is a
// tombstone dropped at the next compaction. id is the record the entry
// was indexed from, valid while the record holds the entry's path
// (table.holds); a stale id falls back to the path map. Compactions
// refresh it, and a cloned index keeps it, since the clone's slab holds
// the same records at the same ids.
type idxEntry struct {
	path  string
	atime timeutil.Time
	id    int32
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
	// (path, atime), with record ids that were live at compaction
	// time. Appends clear the mark. A marked bucket is scanned without
	// rebuilding — each entry is revalidated with three loads off the
	// record its id names, and the first stale entry observed clears
	// the mark so the next scan compacts the churn away.
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

// FS is the virtual file system: a record table over absolute paths
// with byte and count accounting, overall and per user, plus an
// incrementally maintained per-user atime index that answers purge
// candidate queries without walking the namespace (DESIGN.md §8). FS
// is not safe for concurrent mutation, and StaleFiles mutates (it
// compacts index buckets); Lookup, Walk and Snapshot only read, so an
// FS nobody mutates serves them from several goroutines.
type FS struct {
	tab       *table
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
	// view shares table and index with its sibling lanes through group
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

	// hidden is non-nil only on a dry-run view (DryRun): the ids of the
	// source's records the view has removed. Everything the view
	// answers skips them; the source never sees them.
	hidden map[int32]struct{}
}

// SetProbe installs observability counters for a lane view's
// mutations and any FS's stale-file queries. Clones and dry-run views
// do not inherit the probe: captured states and plans stay unobserved
// so instrumentation never double-counts.
func (f *FS) SetProbe(p obs.VFSProbe) { f.probe = p }

// New returns an empty FS.
func New() *FS { return newFS(0) }

// newFS returns an empty FS whose table is sized for n files.
func newFS(n int) *FS {
	return &FS{
		tab:       newTable(n),
		userBytes: make(map[trace.UserID]int64),
		userFiles: make(map[trace.UserID]int64),
		index:     make(map[trace.UserID]*userIndex),
	}
}

// FromSnapshot builds an FS holding every entry of a metadata
// snapshot.
func FromSnapshot(s *trace.Snapshot) (*FS, error) {
	fs := newFS(len(s.Entries))
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
	id, existed := f.tab.ids[path]
	var prev FileMeta
	if existed {
		rec := &f.tab.recs[id]
		prev, rec.meta = rec.meta, m
		f.unaccount(prev)
	} else {
		id = f.tab.add(path, m)
	}
	f.bytes += m.Size
	f.userBytes[m.User] += m.Size
	f.userFiles[m.User]++
	// The old index entry stays valid only if owner and atime are both
	// unchanged; otherwise it becomes a tombstone and a fresh entry is
	// indexed.
	if !existed || prev.User != m.User || prev.ATime != m.ATime {
		f.indexAdd(m.User, f.tab.recs[id].path, m.ATime, id)
	}
	return nil
}

// Lookup returns the metadata stored at path.
func (f *FS) Lookup(path string) (FileMeta, bool) {
	id, ok := f.tab.ids[path]
	if !ok || !f.sees(id) {
		return FileMeta{}, false
	}
	return f.metaOf(&f.tab.recs[id]), true
}

// sees reports whether the live record id is one of f's files: a lane
// view skips the records its lane dropped, a dry-run view the ones it
// removed.
func (f *FS) sees(id int32) bool {
	switch {
	case f.group != nil:
		return f.tab.recs[id].dropped&f.laneBit == 0
	case f.hidden != nil:
		_, gone := f.hidden[id]
		return !gone
	}
	return true
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
	id, ok := f.tab.ids[path]
	if !ok {
		return false
	}
	// An unchanged atime keeps the index entry valid.
	if rec := &f.tab.recs[id]; rec.meta.ATime != at {
		rec.meta.ATime = at
		f.indexAdd(rec.meta.User, rec.path, at, id)
	}
	return true
}

// Remove purges the file at path, reporting its metadata. Index
// entries are invalidated lazily: the next StaleFiles compaction of
// their bucket drops them. On a lane view only this lane's copy is
// dropped; the shared record dies when the last holder removes it. On
// a dry-run view the file is only hidden from the view.
func (f *FS) Remove(path string) (FileMeta, bool) {
	id, ok := f.tab.ids[path]
	if !ok {
		return FileMeta{}, false
	}
	return f.removeID(id)
}

// removeID is Remove of the live record id.
func (f *FS) removeID(id int32) (FileMeta, bool) {
	if !f.sees(id) {
		return FileMeta{}, false
	}
	if f.group != nil {
		return f.laneRemove(id), true
	}
	m := f.tab.recs[id].meta
	if f.hidden != nil {
		// A dry-run view only hides the file: the view's accounting
		// drops it, while the source's table, index and totals stay.
		f.hidden[id] = struct{}{}
	} else {
		f.tab.release(id)
	}
	f.unaccount(m)
	return m, true
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
// call emitted: the candidate's record id replaces the map probe while
// it still holds the candidate's path.
func (f *FS) RemoveCandidate(c Candidate) (FileMeta, bool) {
	if !f.tab.holds(c.id, c.Path) {
		return f.Remove(c.Path)
	}
	return f.removeID(c.id)
}

// indexAdd appends an entry to the owner's day bucket, registering the
// day key on first use. Buckets grow with a minimum capacity of 8:
// entries spread over hundreds of (user, day) buckets, and letting
// append crawl through caps 1→2→4 doubled the replay's allocation
// count.
func (f *FS) indexAdd(u trace.UserID, path string, at timeutil.Time, id int32) {
	indexAddTo(f.index, u, path, at, id)
}

// indexAddTo is indexAdd against an explicit index map, shared with
// the per-lane extra indexes.
func indexAddTo(index map[trace.UserID]*userIndex, u trace.UserID, path string, at timeutil.Time, id int32) {
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
	ui.buckets[i] = append(b, idxEntry{path: path, atime: at, id: id})
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
// day buckets older than cutoff, validate entries against the record
// table (through the entry's record id while it still holds the
// entry's path), compact the bucket in place, and emit the visible
// stale prefix.
func (f *FS) appendStaleScan(dst []Candidate, ui *userIndex, u trace.UserID, cutoff timeutil.Time, mode staleMode) []Candidate {
	if ui == nil {
		return dst
	}
	recs := f.tab.recs
	for di := 0; di < len(ui.days); {
		day := ui.days[di]
		if day*daySeconds >= int64(cutoff) {
			break // this bucket and all later ones start at or after cutoff
		}
		bucket := ui.buckets[di]
		// Fast path for lane groups: a compacted bucket is still sorted
		// and deduplicated (appends clear the mark), so the scan skips
		// the rebuild and revalidates each entry with three compares
		// against the record its id names. A released or reused id
		// fails the path compare; stale entries self-heal by clearing
		// the mark, queueing the bucket for compaction at the next scan.
		if mode == staleShared && ui.compacted[di] {
			if ui.skip[di]&f.laneBit != 0 {
				di++ // exhausted for this lane: nothing here can yield again
				continue
			}
			split := sort.Search(len(bucket), func(i int) bool { return bucket[i].atime >= cutoff })
			mark := len(dst)
			for i := 0; i < split; i++ {
				e := &bucket[i]
				rec := &recs[e.id]
				if rec.path != e.path || rec.meta.ATime != e.atime || rec.meta.User != u {
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
				dst = append(dst, Candidate{Path: e.path, Meta: m, id: e.id})
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
			if !f.tab.holds(e.id, e.path) {
				// Stale id: resolve the entry's path through the map.
				id, ok := f.tab.ids[e.path]
				if !ok {
					continue
				}
				e.id = id
			}
			rec := &recs[e.id]
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
				// A dry-run view compacts against the live table, so
				// the bucket stays right for the source; its own
				// removals only filter what it emits.
				if f.hidden != nil && !f.sees(le.e.id) {
					continue
				}
			case staleShared:
				rec := &recs[le.e.id]
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
			dst = append(dst, Candidate{Path: le.e.path, Meta: m, id: le.e.id})
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
		// revalidation leans on the group's append/compaction
		// discipline, which private indexes (and the per-lane extra
		// indexes) do not maintain.
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
	return len(f.tab.ids) - len(f.hidden)
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
// strings. The walk sorts the files' ids by path unless the slab is
// already in path order, as it is right after a load.
func (f *FS) Walk(fn func(path string, m FileMeta) bool) {
	recs := f.tab.recs
	ids := f.files()
	byPath := func(a, b int32) int { return strings.Compare(recs[a].path, recs[b].path) }
	if !slices.IsSortedFunc(ids, byPath) {
		slices.SortFunc(ids, byPath)
	}
	for _, id := range ids {
		if !fn(recs[id].path, f.metaOf(&recs[id])) {
			return
		}
	}
}

// files returns the ids of f's files in slab order.
func (f *FS) files() []int32 {
	ids := make([]int32, 0, f.Count())
	for i := range f.tab.recs {
		if id := int32(i); f.tab.recs[i].path != "" && f.sees(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// metaOf returns the metadata f sees for one of its records.
func (f *FS) metaOf(rec *fileRecord) FileMeta {
	if f.group != nil {
		return f.laneMeta(rec)
	}
	return rec.meta
}

// Snapshot exports the current state as a metadata snapshot taken at
// the given time, its entries in path order.
func (f *FS) Snapshot(taken timeutil.Time) *trace.Snapshot {
	s := &trace.Snapshot{Taken: taken, Entries: make([]trace.SnapshotEntry, 0, f.Count())}
	f.Walk(func(path string, m FileMeta) bool {
		s.Entries = append(s.Entries, snapshotEntry(path, m))
		return true
	})
	return s
}

// SnapshotUnsorted is Snapshot without the sort: its entries come in
// slab order, which depends on the table's history, so a caller sorts
// them by path before it emits them. It lets a caller that must not
// stall, such as a checkpoint capture on the replay's goroutine, leave
// the sort to a writer.
func (f *FS) SnapshotUnsorted(taken timeutil.Time) *trace.Snapshot {
	ids := f.files()
	s := &trace.Snapshot{Taken: taken, Entries: make([]trace.SnapshotEntry, len(ids))}
	for i, id := range ids {
		rec := &f.tab.recs[id]
		s.Entries[i] = snapshotEntry(rec.path, f.metaOf(rec))
	}
	return s
}

func snapshotEntry(path string, m FileMeta) trace.SnapshotEntry {
	return trace.SnapshotEntry{Path: path, User: m.User, Size: m.Size, Stripes: m.Stripes, ATime: m.ATime}
}

// Clone deep-copies the FS so FLT and ActiveDR can replay the same
// initial state independently. The record table is copied whole (paths
// shared) and the candidate index bucket by bucket. Cloning a lane or
// dry-run view materializes it as a private FS holding exactly the
// view's files and metadata.
func (f *FS) Clone() *FS {
	if f.group != nil || f.hidden != nil {
		c := newFS(f.Count())
		f.Walk(func(path string, m FileMeta) bool {
			_ = c.Insert(path, m) // paths/sizes already validated on entry
			return true
		})
		return c
	}
	c := &FS{
		tab:       f.tab.clone(),
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
// view, for planning a purge against it. The view shares f's table and
// candidate index and copies only the per-user totals, O(users): a
// one-lane group releases a record once its lane drops it and never
// holds an override, so its table is exactly the lane's files. Remove
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
		tab:       f.tab,
		bytes:     f.bytes,
		userBytes: make(map[trace.UserID]int64, len(users)),
		userFiles: make(map[trace.UserID]int64, len(users)),
		index:     f.index,
		scratch:   f.scratch,
		hidden:    make(map[int32]struct{}),
	}
	for _, u := range users {
		v.userBytes[u], v.userFiles[u] = f.UserBytes(u), f.UserFiles(u)
	}
	return v
}

// cloneIndex deep-copies a candidate index for a copy of its table.
func cloneIndex(index map[trace.UserID]*userIndex) map[trace.UserID]*userIndex {
	out := make(map[trace.UserID]*userIndex, len(index))
	for u, ui := range index {
		cu := &userIndex{
			days:    append([]int64(nil), ui.days...),
			buckets: make([][]idxEntry, len(ui.buckets)),
			// Compaction marks and skip masks are never inherited: a
			// private FS maintains neither, and a lane group adopting
			// the copy revalidates every bucket from scratch.
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
			copy(seg, b)
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
// so the caller needs no lookups, and owns the map. It is
// unordered: a consumer that emits it sorts it first. Nil when
// tracking is off.
func (f *FS) TakeDirty() map[string]DirtyFile {
	w := f.dirty
	if w != nil {
		f.dirty = make(map[string]DirtyFile, len(w))
	}
	return w
}

// ReservedSet indexes purge-exempt paths. A reservation covers the
// exact path and, when the reserved path is a directory, its whole
// subtree (any stored prefix followed by '/').
type ReservedSet struct {
	tree *radix
}

// NewReservedSet returns an empty reservation index.
func NewReservedSet() *ReservedSet {
	return &ReservedSet{tree: newRadix()}
}

// Add reserves path (file or directory subtree).
func (r *ReservedSet) Add(path string) { r.tree.put(path) }

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
