package sim

// Columnar day-batched access feed (DESIGN.md §13). The access log is
// pre-sliced into batches whose interiors contain no purge trigger and
// no day boundary, and each batch's events are regrouped into per-path
// runs (struct-of-arrays: one interned path id, a contiguous range of
// event indexes). The multiplexed runner then fires triggers once per
// batch boundary and applies each run with a single tree descent for
// all lanes, instead of one descent per event per lane.
//
// The feed is a pure index over ds.Accesses — it never copies event
// payloads — and is built once per trigger interval, then shared by
// every multiplexed run over the same dataset.

import (
	"fmt"
	"math"
	"slices"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
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
// within it. first is the timestamp of the first event, which due
// triggers fire at-or-before, exactly like Stream.Apply.
type colBatch struct {
	start, end int
	first      timeutil.Time
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
		f.batches = append(f.batches, colBatch{start: start, end: end, first: acc[start].TS, runs: slices.Clone(runs)})
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
