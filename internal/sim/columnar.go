package sim

// Columnar day-batched access feed (DESIGN.md §13). The access log is
// pre-sliced into batches whose interiors contain no purge trigger and
// no day boundary, and each batch's events are regrouped into per-path
// runs (struct-of-arrays: one interned path id, a contiguous range of
// event indexes). replayFeed, the one loop every batch replay runs
// (Emulator.RunWith and Resume on one lane, Multiplexer.Run on N),
// then fires triggers once per batch boundary and applies each run
// with a single path resolution for all lanes, instead of one per
// event per lane.
//
// The feed is a pure index over ds.Accesses — it never copies event
// payloads — and is built once per dataset and trigger interval, then
// shared by every batch replay over them.

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// colRun is one (path, batch) run: events order[off : off+n] all touch
// paths[pid], in stream order.
type colRun struct {
	pid int32
	off int32
	n   int32
}

// colBatch covers ds.Accesses[start:end). Its interior crosses no day
// boundary and no trigger-grid point, so the replay's per-event
// bookkeeping (trigger firing, day bucketing, rank table) is constant
// within it: due triggers fire at-or-before its first event's time,
// exactly like Stream.Apply.
type colBatch struct {
	start, end int
	runs       []colRun
}

// colFeed is the columnar view of one dataset under one trigger grid.
type colFeed struct {
	paths   []string // pid → path (interned from the access records)
	order   []int32  // run-grouped permutation of event indexes
	batches []colBatch
}

// buildColFeed slices the access log into day/trigger batches under
// the grid t0+k*interval (t0 = snapshot time). It refuses a log it
// cannot represent: a first event predating the snapshot (the error
// Stream.Apply raises), timestamps out of order (Dataset.Validate's
// check; every loader and generator sorts its log), a row breaking
// trace.CheckAccess (Stream.Apply refuses it too), or more events than
// its int32 indexes address.
func buildColFeed(ds *trace.Dataset, interval timeutil.Duration) (*colFeed, error) {
	acc := ds.Accesses
	f := &colFeed{}
	if len(acc) == 0 {
		return f, nil
	}
	t0 := ds.Snapshot.Taken
	if acc[0].TS < t0 {
		return nil, fmt.Errorf("sim: access at %v predates the snapshot (%v)", acc[0].TS, t0)
	}
	// The feed's indexes (event positions in order, path ids, run
	// offsets) are all int32, and each is bounded by the event count:
	// distinct paths ≤ events, order holds one entry per event, and a
	// run's offset is a position in order. One guard here makes every
	// int32 conversion below exact instead of silently truncating on a
	// >2^31-event log.
	if len(acc) > math.MaxInt32 {
		return nil, fmt.Errorf("sim: %d access events exceed the columnar feed's int32 indexes", len(acc))
	}
	for i := range acc {
		if i > 0 && acc[i].TS < acc[i-1].TS {
			return nil, fmt.Errorf("sim: access log out of order at record %d", i)
		}
		if err := trace.CheckAccess(acc[i].Size, acc[i].Path); err != nil {
			return nil, fmt.Errorf("sim: access %d: %w", i, err)
		}
	}
	// Batches tile the log in order, so batch [start,end) owns
	// order[start:end].
	f.order = make([]int32, len(acc))
	pids := make(map[string]int32, 1024)
	var (
		pidSeen []int32 // batch number a pid last appeared in
		pidRun  []int32 // its run index within that batch
		evRun   []int32 // run index of each event of the batch
		batchNo int32   = -1
		runs    []colRun
	)
	flush := func(start, end int) {
		batchNo++
		runs, evRun = runs[:0], evRun[:0]
		for i := start; i < end; i++ {
			p := acc[i].Path
			pid, ok := pids[p]
			if !ok {
				pid = int32(len(f.paths))
				pids[p] = pid
				f.paths = append(f.paths, p)
				pidSeen = append(pidSeen, -1)
				pidRun = append(pidRun, 0)
			}
			if pidSeen[pid] != batchNo {
				pidSeen[pid] = batchNo
				pidRun[pid] = int32(len(runs))
				runs = append(runs, colRun{pid: pid})
			}
			r := pidRun[pid]
			runs[r].n++
			evRun = append(evRun, r)
		}
		off := int32(start)
		for r := range runs {
			runs[r].off = off
			off += runs[r].n
			runs[r].n = 0 // reused as the fill cursor below
		}
		for j, r := range evRun {
			run := &runs[r]
			f.order[run.off+run.n] = int32(start + j)
			run.n++
		}
		// Runs stay in order of first appearance in the batch. That
		// order reaches no output: no trigger fires inside a batch and
		// runs touch distinct paths, so they commute (DESIGN.md §13).
		f.batches = append(f.batches, colBatch{start: start, end: end, runs: slices.Clone(runs)})
	}
	// nextGrid tracks the lowest trigger-grid point strictly after every
	// event seen so far: an event at-or-past it must fire triggers first
	// (Stream.fireTriggers), so it starts a new batch.
	nextGrid := t0.Add(interval)
	for nextGrid <= acc[0].TS {
		nextGrid = nextGrid.Add(interval)
	}
	day := acc[0].TS.StartOfDay()
	start := 0
	for i := 1; i < len(acc); i++ {
		ts := acc[i].TS
		if ts >= nextGrid || ts.StartOfDay() != day {
			flush(start, i)
			start = i
			day = ts.StartOfDay()
			for nextGrid <= ts {
				nextGrid = nextGrid.Add(interval)
			}
		}
	}
	flush(start, len(acc))
	return f, nil
}

// replayFeed replays the log over feed into ls, the Streams on lanes
// 0..n-1 of one LaneGroup, from their shared cursor to the end: the
// batch loop of Emulator.RunWith and Resume (one lane) and of
// Multiplexer.Run (N lanes). At each batch boundary the lanes fire
// their due triggers in lockstep, one grid point at a time, so a gap
// in the log that makes several triggers due at once still takes each
// ranker's tables in time order. Then each run of the batch applies to
// every lane with one ApplyRun, its events' groups are tallied per
// lane, and the batch's misses are counted in event order. A cursor
// inside a batch (a resume from a drain checkpoint, Stream.Checkpoint)
// starts with the rest of that batch. The callers start each ranker's
// worker before the replay and halt it after.
//
// replayFeed returns once every lane's checkpoint writes have
// finished. On failure it returns the failing lane with its error.
// ErrInterrupted (a trigger budget or a kill point) leaves every
// lane's cursor at the start of the interrupted batch, as Stream.Apply
// leaves it at the event that fired the trigger.
func replayFeed(acc []trace.Access, feed *colFeed, ls []*Stream) (int, error) {
	for _, s := range ls {
		if o := s.opts.Obs; o != nil {
			defer o.StartPhase("replay")()
		}
	}
	if lane, err := applyBatches(acc, feed, ls); err != nil {
		_, _ = waitLanes(ls) // the lane's error wins, but no write outlives the run
		return lane, err
	}
	return waitLanes(ls)
}

// applyBatches is replayFeed's loop, returning at the first failure
// without waiting for checkpoint writes.
func applyBatches(acc []trace.Access, feed *colFeed, ls []*Stream) (int, error) {
	group := ls[0].st.group
	from := ls[0].st.cursor
	// Lanes sharing both a ranker and a period length read the same
	// rank table, so each event's group is classified once per set.
	type rgKey struct {
		r  *sharedRanker
		pi int
	}
	var sets [][]*Stream
	setOf := make(map[rgKey]int, len(ls))
	for _, s := range ls {
		k := rgKey{s.st.ranking, s.st.period}
		si, ok := setOf[k]
		if !ok {
			si = len(sets)
			setOf[k] = si
			sets = append(sets, nil)
		}
		sets[si] = append(sets[si], s)
	}
	gts := make([][]uint8, len(sets))
	pend := make([][]int32, len(ls)) // each lane's missed events in the batch
	var evs []vfs.RunEvent
	bi0 := sort.Search(len(feed.batches), func(i int) bool { return feed.batches[i].end > from })
	for bi := bi0; bi < len(feed.batches); bi++ {
		b := &feed.batches[bi]
		start := max(b.start, from)
		ts := acc[start].TS
		// All lanes share the grid, so lane 0's next trigger is every
		// lane's.
		for {
			at := min(ls[0].st.nextTrigger, ts)
			for i, s := range ls {
				if err := s.fireTriggers(at); err != nil {
					return i, err
				}
			}
			if at == ts {
				break
			}
		}
		for si, set := range sets {
			st := set[0].st
			gts[si] = st.ranking.cur.groups[st.period]
		}
		n := int64(b.end - start)
		for _, s := range ls {
			s.dayFor(ts).Accesses += n // sets s.day, which the runs below fill
			s.st.res.TotalAccesses += n
			s.ro.accesses.Add(n)
		}
		// Runs apply in the batch's order of first appearance; the
		// accounting is pure sums until the event-ordered miss flush
		// below.
		for ri := range b.runs {
			run := &b.runs[ri]
			seg := feed.order[run.off : run.off+run.n]
			if start > b.start {
				// Events before the cursor are already in the state.
				k, _ := slices.BinarySearch(seg, int32(start))
				if seg = seg[k:]; len(seg) == 0 {
					continue
				}
			}
			evs = evs[:0]
			for _, idx := range seg {
				a := &acc[idx]
				evs = append(evs, vfs.RunEvent{User: a.User, Size: a.Size, TS: a.TS, Create: a.Create})
			}
			miss := group.ApplyRun(run.pid, feed.paths[run.pid], evs)
			for si, set := range sets {
				for _, idx := range seg {
					g := groupAt(gts[si], acc[idx].User)
					for _, s := range set {
						s.day.ByGroup[g].Accesses++
					}
				}
			}
			if miss != 0 {
				for li := range ls {
					if miss&(uint64(1)<<uint(li)) != 0 {
						pend[li] = append(pend[li], seg[0])
					}
				}
			}
		}
		for li, s := range ls {
			// Each lane's misses are already in event order: runs apply
			// in order of first appearance and only a run's first event
			// can miss (after a resume cursor inside the batch, a run
			// that began before it cannot miss at all, its file restored
			// by its earlier events). So the miss event stream, and its
			// interleaving with trigger events, which only fire at batch
			// boundaries, matches a per-event replay's exactly.
			gt := s.st.ranking.cur.groups[s.st.period]
			for _, idx := range pend[li] {
				a := &acc[idx]
				s.countMiss(a, groupAt(gt, a.User))
			}
			pend[li] = pend[li][:0]
			s.st.cursor = b.end
		}
	}
	return -1, nil
}

// waitLanes waits for every lane's checkpoint writes and returns the
// first failing lane with its error.
func waitLanes(ls []*Stream) (int, error) {
	lane, first := -1, error(nil)
	for i, s := range ls {
		if err := s.Wait(); err != nil && first == nil {
			lane, first = i, err
		}
	}
	return lane, first
}
