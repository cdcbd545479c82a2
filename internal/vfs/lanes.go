package vfs

import (
	"fmt"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// LaneGroup multiplexes up to 64 policy lanes over ONE shared record
// table and ONE shared candidate index (DESIGN.md §13). Every lane
// replays the same access stream, so the expensive per-event work —
// path resolution, atime update, index maintenance — is done once, and
// a lane holds only its divergence from the shared state:
//
//   - fileRecord.dropped is an inverted hold mask: bit i set means
//     lane i purged the file. A fresh clone needs no initialization
//     (0 = everyone holds), and the record is released from the table
//     when the last holder drops it.
//   - a lane that re-inserts a purged file on a miss whose metadata
//     differs from the shared record keeps a FileMeta override
//     (User/Size/Stripes only — the ATime of a held file is always
//     the shared record's, because every lane applies every touch).
//   - per-lane byte/file accounting maps back the unchanged
//     Users/UserBytes/UserFiles/TotalBytes surface.
//
// Lane views are *FS values, so retention policies run against them
// through the existing selection contract, unmodified. Lanes are
// mutated only via ApplyRun and Remove; Touch and Insert panic.
type LaneGroup struct {
	lanes   []*FS
	allMask uint64
	// tab holds exactly the records some lane holds. Its path map
	// resolves a file in one hash however the path string was made: a
	// feed's interned copy, a daemon event's fresh parse, a
	// candidate's alias of the record's path.
	tab   *table
	index map[trace.UserID]*userIndex
	// handles caches columnar path id → record id, skipping the map
	// probe for re-touched paths. A handle is checked against the
	// record's path on use (table.holds), so released and reused ids
	// need no invalidation.
	handles []int32
}

// RunEvent is one access applied by ApplyRun: a touch or create of a
// single path, in stream order.
type RunEvent struct {
	User   trace.UserID
	Size   int64
	TS     timeutil.Time
	Create bool
}

// NewLaneGroup clones base once and returns a group of n lane views
// over the copy. pathCap sizes the path-id handle table (the columnar
// feed's interned path count); it grows on demand if exceeded.
func NewLaneGroup(base *FS, n, pathCap int) (*LaneGroup, error) {
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("vfs: lane count %d out of range [1,64]", n)
	}
	if base.group != nil {
		return nil, fmt.Errorf("vfs: cannot build a lane group over a lane view")
	}
	return AdoptLaneGroup(base.Clone(), n, pathCap), nil
}

// AdoptLaneGroup is NewLaneGroup without the copy: the group takes
// over the record table and index of base, a private FS, and leaves
// base empty (a private index carries no compaction marks or skip
// masks). Streams adopt a clone of their base or a restored
// checkpoint. It panics where NewLaneGroup returns an error, and on a
// dry-run view.
func AdoptLaneGroup(base *FS, n, pathCap int) *LaneGroup {
	if n < 1 || n > 64 || base.group != nil || base.hidden != nil {
		panic("vfs: AdoptLaneGroup needs 1 to 64 lanes over a private FS")
	}
	g := &LaneGroup{
		lanes:   make([]*FS, n),
		tab:     base.tab,
		index:   base.index,
		handles: make([]int32, max(pathCap, 0)),
	}
	if n == 64 {
		g.allMask = ^uint64(0)
	} else {
		g.allMask = uint64(1)<<uint(n) - 1
	}
	files := int64(len(base.tab.ids))
	// Lane accounting is dense by UserID (trace loaders assign dense
	// non-negative ids); size every lane to the base population once.
	maxU := trace.UserID(-1)
	for u := range base.userFiles {
		if u > maxU {
			maxU = u
		}
	}
	for i := range g.lanes {
		lf := &FS{
			tab:       g.tab,
			bytes:     base.bytes,
			dBytes:    make([]int64, maxU+1),
			dFiles:    make([]int64, maxU+1),
			index:     g.index,
			group:     g,
			laneBit:   uint64(1) << uint(i),
			laneFiles: files,
		}
		for u, b := range base.userBytes {
			lf.dBytes[u] = b
		}
		for u, c := range base.userFiles {
			lf.dFiles[u] = c
		}
		g.lanes[i] = lf
	}
	*base = FS{}
	return g
}

// Lane returns lane i's FS view.
func (g *LaneGroup) Lane(i int) *FS { return g.lanes[i] }

// laneMeta resolves the metadata lane f sees for a held record.
func (f *FS) laneMeta(rec *fileRecord) FileMeta {
	m := rec.meta
	if rec.ovr&f.laneBit != 0 {
		if o, ok := f.overrides[rec.path]; ok {
			m.User, m.Size, m.Stripes = o.User, o.Size, o.Stripes
		}
	}
	return m
}

// acctAdd and acctSub maintain a lane's dense per-user accounting.
// Only lane views call them; private FS values account through their
// maps in Insert/Remove.
func (f *FS) acctAdd(m FileMeta) {
	f.bytes += m.Size
	if int(m.User) >= len(f.dBytes) {
		f.acctGrow(m.User)
	}
	f.dBytes[m.User] += m.Size
	f.dFiles[m.User]++
}

func (f *FS) acctSub(m FileMeta) {
	// No grow: a removal is always preceded by the add that grew the
	// slices past m.User.
	f.bytes -= m.Size
	f.dBytes[m.User] -= m.Size
	f.dFiles[m.User]--
}

// acctGrow extends the dense accounting to cover user u, for events
// that introduce a user unseen at group creation.
func (f *FS) acctGrow(u trace.UserID) {
	nb := make([]int64, int(u)+1)
	copy(nb, f.dBytes)
	f.dBytes = nb
	nf := make([]int64, int(u)+1)
	copy(nf, f.dFiles)
	f.dFiles = nf
}

// laneRemove drops this lane's copy of the file at record id, which
// the lane holds. The shared record stays for the remaining holders
// and is released with the last one.
func (f *FS) laneRemove(id int32) FileMeta {
	g := f.group
	rec := &g.tab.recs[id]
	m := f.laneMeta(rec)
	f.acctSub(m)
	f.laneFiles--
	if rec.ovr&f.laneBit != 0 {
		delete(f.overrides, rec.path)
		rec.ovr &^= f.laneBit
	}
	rec.dropped |= f.laneBit
	if f.dirty != nil {
		f.dirty[rec.path] = DirtyFile{Removed: true}
	}
	f.probe.Removes.Inc()
	if rec.dropped == g.allMask {
		g.tab.release(id)
	}
	return m
}

// ApplyRun applies one (day, path) run of events to every lane at
// once: the path's resolution, shared atime updates and
// candidate-index maintenance happen once, while per-lane effects
// reduce to bit operations, probe counters and (rarely) override
// bookkeeping.
// missMask reports which lanes missed (did not hold the file at the
// run's first non-create event) and re-inserted it. pid is the
// caller's interned id for path, keying the record handle cache; a
// stale handle resolves the path through the table's path map.
//
// Within a run, an event after the first can never miss: a miss or a
// create re-materializes the file for every lane, and lane removals
// only happen at purge triggers, which are batch boundaries.
func (g *LaneGroup) ApplyRun(pid int32, path string, evs []RunEvent) (missMask uint64) {
	if len(evs) == 0 {
		return 0
	}
	if int(pid) >= len(g.handles) {
		grown := make([]int32, int(pid)+1)
		copy(grown, g.handles)
		g.handles = grown
	}
	tab := g.tab
	id, existed0 := g.handles[pid], true
	if !tab.holds(id, path) {
		id, existed0 = tab.ids[path]
	}
	lanes := g.lanes

	// Fast path: every lane holds the file with shared metadata and
	// the run creates nothing — a pure touch for all lanes.
	if existed0 && tab.recs[id].dropped == 0 && tab.recs[id].ovr == 0 {
		pure := true
		for i := range evs {
			if evs[i].Create {
				pure = false
				break
			}
		}
		if pure {
			rec := &tab.recs[id]
			last := evs[len(evs)-1].TS
			if last != rec.meta.ATime {
				rec.meta.ATime = last
				lanes[0].indexAdd(rec.meta.User, rec.path, last, id)
			}
			for _, lf := range lanes {
				lf.probe.Touches.Add(int64(len(evs)))
				if lf.dirty != nil {
					lf.dirty[rec.path] = DirtyFile{Meta: rec.meta}
				}
			}
			g.handles[pid] = id
			return 0
		}
	}

	// rec points into the slab, which tab.add may move, so an add
	// re-takes it; a run adds at most one record, at its first event.
	var rec *fileRecord
	var owner0 trace.UserID
	var atime0 timeutil.Time
	if existed0 {
		rec = &tab.recs[id]
		owner0, atime0 = rec.meta.User, rec.meta.ATime
	}
	var newOvr uint64
	for ei := range evs {
		ev := &evs[ei]
		m := FileMeta{User: ev.User, Size: ev.Size, Stripes: 1, ATime: ev.TS}
		switch {
		case ev.Create:
			if rec == nil {
				id = tab.add(path, m)
				rec = &tab.recs[id]
				for _, lf := range lanes {
					lf.acctAdd(m)
					lf.laneFiles++
					lf.probe.Inserts.Inc()
				}
			} else {
				for _, lf := range lanes {
					if rec.dropped&lf.laneBit == 0 {
						lf.acctSub(lf.laneMeta(rec))
					} else {
						lf.laneFiles++
					}
					lf.acctAdd(m)
					lf.probe.Inserts.Inc()
				}
				if rec.ovr != 0 {
					for _, lf := range lanes {
						if rec.ovr&lf.laneBit != 0 {
							delete(lf.overrides, rec.path)
						}
					}
					rec.ovr = 0
					newOvr = 0
				}
				rec.dropped = 0
				rec.meta = m
			}
		case ei == 0:
			if rec == nil {
				// No lane holds the file: everyone misses.
				missMask = g.allMask
				id = tab.add(path, m)
				rec = &tab.recs[id]
				for _, lf := range lanes {
					lf.probe.TouchMisses.Inc()
					lf.probe.Inserts.Inc()
					lf.acctAdd(m)
					lf.laneFiles++
				}
			} else {
				for _, lf := range lanes {
					if rec.dropped&lf.laneBit == 0 {
						lf.probe.Touches.Inc()
						continue
					}
					// This lane purged the file: miss + re-insert
					// with the event's metadata, diverging from the
					// shared record when they differ.
					missMask |= lf.laneBit
					rec.dropped &^= lf.laneBit
					lf.probe.TouchMisses.Inc()
					lf.probe.Inserts.Inc()
					lf.acctAdd(m)
					lf.laneFiles++
					if m.User != rec.meta.User || m.Size != rec.meta.Size || rec.meta.Stripes != 1 {
						if lf.overrides == nil {
							lf.overrides = make(map[string]FileMeta)
						}
						lf.overrides[rec.path] = m
						rec.ovr |= lf.laneBit
						newOvr |= lf.laneBit
					}
				}
				rec.meta.ATime = ev.TS
			}
		default:
			for _, lf := range lanes {
				lf.probe.Touches.Inc()
			}
			rec.meta.ATime = ev.TS
		}
	}
	atimeChanged := !existed0 || rec.meta.ATime != atime0
	if atimeChanged || rec.meta.User != owner0 {
		lanes[0].indexAdd(rec.meta.User, rec.path, rec.meta.ATime, id)
	}
	if rec.ovr != 0 {
		for _, lf := range lanes {
			if rec.ovr&lf.laneBit == 0 {
				continue
			}
			if !atimeChanged && newOvr&lf.laneBit == 0 {
				continue // the existing override entry is still live
			}
			if o := lf.overrides[rec.path]; o.User != rec.meta.User {
				if lf.extra == nil {
					lf.extra = make(map[trace.UserID]*userIndex)
				}
				indexAddTo(lf.extra, o.User, rec.path, rec.meta.ATime, id)
			}
		}
	}
	g.handles[pid] = id
	// Every lane holds the file after a run (its first event re-inserts
	// it wherever it was dropped), each with its own view of it.
	for _, lf := range lanes {
		if lf.dirty != nil {
			lf.dirty[rec.path] = DirtyFile{Meta: lf.laneMeta(rec)}
		}
	}
	return missMask
}
