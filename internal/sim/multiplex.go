package sim

// Multiplexed replay (DESIGN.md §13): evaluate up to 64 independent
// policy instances — a lifetime sweep, an ablation grid, facility
// presets — in ONE pass over the access stream. All lanes share the
// columnar day-batched feed (columnar.go), one vfs.LaneGroup (shared
// prefix tree + candidate index, per-lane divergence bitmasks) and,
// where their activity inputs coincide, one activeness cursor walk per
// trigger (EvaluateUserMulti ranks all registered period lengths off
// one cursor advance, so even a lifetime sweep with four distinct
// periods walks each user history once). Per-lane work shrinks to bit
// checks, counters and the policy's own purge decisions, which is
// where the ≥3× single-core speedup over N sequential replays comes
// from.
//
// Equivalence contract: every lane's Result — reports, day series,
// captured and final file systems, checkpoints on disk — is
// bit-identical to what a sequential Emulator.RunWith of the same
// (Config, Policy, RunOptions) would produce. The test suite proves
// this with and without fault injection (multiplex_test.go).

import (
	"errors"
	"fmt"
	"slices"

	"activedr/internal/activeness"
	"activedr/internal/profiling"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// LaneSpec describes one policy lane of a multiplexed replay.
type LaneSpec struct {
	Config Config
	Policy string // PolicyFLT or PolicyActiveDR (Emulator.NewPolicy)
	Opts   RunOptions
}

// dataKey identifies the activity data an evaluator consumes,
// independent of the period length. Multiplexed lanes with equal data
// keys share one evaluator and one cursor walk per trigger even when
// their period lengths differ: the walk is over the histories, and
// the period only parameterizes the Φ bucketing on top of it.
type dataKey struct {
	logins    bool
	transfers bool
}

// Multiplexer caches the per-dataset artifacts multiplexed runs share:
// the base file system, the columnar feed per trigger interval, and
// the activeness evaluator per data signature. Build one per dataset
// and call Run once per lane set; runs are independent.
type Multiplexer struct {
	ds    *trace.Dataset
	base  *vfs.FS
	feeds map[timeutil.Duration]*colFeed
	// dataEvals caches evaluators per data signature: a multiplexed
	// pass ranks all period lengths through one evaluator
	// (EvaluateUserMulti ignores the embedded period).
	dataEvals map[dataKey]*activeness.Evaluator
}

// NewMultiplexer loads the dataset's snapshot and prepares the caches.
func NewMultiplexer(ds *trace.Dataset) (*Multiplexer, error) {
	base, err := vfs.FromSnapshot(&ds.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("sim: load snapshot: %w", err)
	}
	return NewMultiplexerWithBase(ds, base), nil
}

// NewMultiplexerWithBase prepares a multiplexer over a pre-built
// initial file system, the multiplexed counterpart of NewWithBase:
// snapfile-backed startup decodes the tree once and shares it across
// every lane. ds.Snapshot.Taken must carry the state's capture time;
// the snapshot's Entries slice is never consulted.
func NewMultiplexerWithBase(ds *trace.Dataset, base *vfs.FS) *Multiplexer {
	return &Multiplexer{
		ds:        ds,
		base:      base,
		feeds:     make(map[timeutil.Duration]*colFeed),
		dataEvals: make(map[dataKey]*activeness.Evaluator),
	}
}

// dataEvaluator returns the evaluator shared by every multiplexed
// lane with cfg's activity inputs. Its embedded period length is the
// first such lane's and must not be relied on: multiplexed ranking
// always passes periods explicitly.
func (m *Multiplexer) dataEvaluator(cfg Config) *activeness.Evaluator {
	k := dataKey{cfg.UseLogins, cfg.UseTransfers}
	if e, ok := m.dataEvals[k]; ok {
		return e
	}
	e := NewEvaluator(m.ds, cfg)
	m.dataEvals[k] = e
	return e
}

func (m *Multiplexer) feed(interval timeutil.Duration) (*colFeed, error) {
	if f, ok := m.feeds[interval]; ok {
		return f, nil
	}
	f, err := buildColFeed(m.ds, interval)
	if err != nil {
		return nil, err
	}
	m.feeds[interval] = f
	return f, nil
}

// sharedRanker serves rank tables to all lanes sharing one
// activity-data signature. Lanes fire triggers in lockstep at the
// same grid times, so the first lane's request at a time serves the
// rest: one cursor walk per (trigger, user) ranks every registered
// period length at once, and each lane reads the table for its own
// period index. In a multiplexed pass a worker goroutine owns the
// cursors and computes each table one trigger ahead of the lanes
// (start), taking ranking off the replay's critical path; a stream's
// one-period ranker has no worker (Emulator.newRanker).
type sharedRanker struct {
	cursors *activeness.Cursors // the worker's once started, else evalAll's
	users   int
	periods []timeutil.Duration // registered period lengths, deduplicated
	cur     *rankTable          // the table lanes read now
	next    chan *rankTable     // the worker's tables, in time order
	stop    chan struct{}       // closed to end the worker early
	done    chan struct{}       // closed when the worker has returned
}

// rankTable is one evaluation of every registered period. groups holds
// each rank's classification as a flat byte table, so the per-event
// hot path costs one indexed load instead of re-classifying a Rank per
// access.
type rankTable struct {
	at     timeutil.Time
	ranks  [][]activeness.Rank // [period index][user]
	groups [][]uint8           // [period index][user] → activeness.Group
}

// period registers a period length and returns its table index. All
// registrations happen before start.
func (r *sharedRanker) period(d timeutil.Duration) int {
	for i, p := range r.periods {
		if p == d {
			return i
		}
	}
	r.periods = append(r.periods, d)
	return len(r.periods) - 1
}

// start launches the worker. It evaluates the tables at t0 and at
// every trigger-grid point t0+k·interval up to end, in order, and
// hands each over on next, which it closes after the last. The
// handover is unbuffered, so the worker runs at most one table ahead
// of the lanes and at most two tables per ranker are alive: the one
// lanes read and the one computed ahead. The worker uses the cursors
// alone, on the same sequence of times a synchronous ranker would, so
// every table is bit-identical. The caller ends it with halt on every
// return path.
func (r *sharedRanker) start(t0, end timeutil.Time, interval timeutil.Duration) {
	r.next = make(chan *rankTable)
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		defer close(r.next)
		for at := t0; at <= end; at = at.Add(interval) {
			select {
			case r.next <- r.eval(at):
			case <-r.stop:
				return
			}
		}
	}()
}

// halt stops the worker and waits for it to return.
func (r *sharedRanker) halt() {
	close(r.stop)
	<-r.done
}

// eval computes the rank and group tables for every registered period
// at time at.
func (r *sharedRanker) eval(at timeutil.Time) *rankTable {
	np := len(r.periods)
	t := &rankTable{at: at, ranks: make([][]activeness.Rank, np), groups: make([][]uint8, np)}
	for pi := range t.ranks {
		t.ranks[pi] = make([]activeness.Rank, r.users)
		t.groups[pi] = make([]uint8, r.users)
	}
	scratch := make([]activeness.Rank, np)
	for u := 0; u < r.users; u++ {
		r.cursors.EvaluateUserMulti(trace.UserID(u), at, r.periods, scratch)
		for pi, rk := range scratch {
			t.ranks[pi][u] = rk
			t.groups[pi][u] = uint8(rk.Group())
		}
	}
	return t
}

// evalAll makes the table for time at current. Without a worker it
// computes the table itself: a stream's live feed has no last trigger
// to run ahead to. With one, the first lane to ask for a new time
// takes the worker's next table; the lanes after it find it current.
// Lanes ask for the snapshot time and then for each grid point in
// order (Run fires triggers in lockstep), which is the sequence the
// worker computes. Every consumer reads the table current at or after
// the trigger that made it so — a trigger's purge, each event's group,
// a checkpoint's RanksAt (ranks are recomputed on resume) — so no
// stale table is read.
func (r *sharedRanker) evalAll(at timeutil.Time) {
	if r.cur != nil && r.cur.at == at {
		return
	}
	if r.next == nil {
		r.cur = r.eval(at)
		return
	}
	t, ok := <-r.next
	if !ok || t.at != at {
		panic(fmt.Sprintf("sim: rank table at %v requested out of trigger order", at))
	}
	r.cur = t
}

// groupAt reads a precomputed group table, defaulting users beyond the
// ranked population to the new-user classification: Rank{Op:1, Oc:1}
// with no recorded activity classifies BothInactive.
func groupAt(gt []uint8, u trace.UserID) activeness.Group {
	if int(u) < len(gt) {
		return activeness.Group(gt[u])
	}
	return activeness.BothInactive
}

// mlane is one lane's live replay machinery.
type mlane struct {
	s        *Stream
	pendMiss []int32 // event indexes that missed in this batch
}

// Run evaluates all lanes in one multiplexed pass. Every lane's
// Result is bit-identical to a sequential RunWith of the same spec.
func (m *Multiplexer) Run(lanes []LaneSpec) ([]*Result, error) {
	if len(lanes) == 0 {
		return nil, errors.New("sim: multiplexed run needs at least one lane")
	}
	if len(lanes) > 64 {
		return nil, fmt.Errorf("sim: %d lanes exceed the 64-lane group limit", len(lanes))
	}
	cfgs := make([]Config, len(lanes))
	ckptDirs := make(map[string]int, len(lanes))
	for i := range lanes {
		cfg, err := lanes[i].Config.normalize(m.base)
		if err != nil {
			return nil, fmt.Errorf("sim: lane %d: %w", i, err)
		}
		if cfg.TriggerInterval != cfgs[0].TriggerInterval && i > 0 {
			return nil, fmt.Errorf("sim: lane %d trigger interval %v differs from lane 0's %v; multiplexed lanes share one trigger grid",
				i, cfg.TriggerInterval, cfgs[0].TriggerInterval)
		}
		if lanes[i].Opts.StopAfterTriggers > 0 {
			return nil, fmt.Errorf("sim: lane %d: StopAfterTriggers is not supported in multiplexed runs", i)
		}
		if d := lanes[i].Opts.CheckpointDir; d != "" {
			if j, dup := ckptDirs[d]; dup {
				return nil, fmt.Errorf("sim: lanes %d and %d share checkpoint dir %q", j, i, d)
			}
			ckptDirs[d] = i
		}
		cfgs[i] = cfg
	}
	// Register every lane's period length with the ranker for its data
	// signature before the rankers start, so each table already covers
	// all periods any sharing lane will read.
	rankers := make([]*sharedRanker, len(lanes)) // by lane
	byKey := make(map[dataKey]*sharedRanker)
	pis := make([]int, len(lanes))
	for i := range lanes {
		k := dataKey{cfgs[i].UseLogins, cfgs[i].UseTransfers}
		r := byKey[k]
		if r == nil {
			r = &sharedRanker{cursors: m.dataEvaluator(cfgs[i]).NewCursors(), users: len(m.ds.Users)}
			byKey[k] = r
		}
		rankers[i], pis[i] = r, r.period(cfgs[i].PeriodLength)
	}
	// The rankers work while the feed and the lane group are built; the
	// replay fires triggers up to its last event.
	t0 := m.ds.Snapshot.Taken
	end := t0
	if n := len(m.ds.Accesses); n > 0 {
		end = m.ds.Accesses[n-1].TS
	}
	for _, r := range rankers {
		if r.next == nil { // not yet started by an earlier lane
			r.start(t0, end, cfgs[0].TriggerInterval)
			defer r.halt()
		}
	}
	feed, err := m.feed(cfgs[0].TriggerInterval)
	if err != nil {
		return nil, err
	}

	timer := profiling.StartTimer()
	group, err := vfs.NewLaneGroup(m.base, len(lanes), len(feed.paths))
	if err != nil {
		return nil, err
	}
	ml := make([]*mlane, len(lanes))
	for i := range lanes {
		em := &Emulator{ds: m.ds, cfg: cfgs[i], base: m.base, eval: m.dataEvaluator(cfgs[i]), users: len(m.ds.Users)}
		policy, err := em.NewPolicy(lanes[i].Policy)
		if err != nil {
			return nil, fmt.Errorf("sim: lane %d: %w", i, err)
		}
		st := em.startState(policy.Name(), group, i, rankers[i], pis[i])
		s := em.newStream(policy, lanes[i].Opts, st)
		if s.opts.Obs != nil {
			stopReplay := s.opts.Obs.StartPhase("replay")
			defer stopReplay()
		}
		ml[i] = &mlane{s: s}
	}
	// Lanes sharing both a ranker and a period length see the same rank
	// table, so every event's group classification is computed once per
	// (ranker, period index) and fanned out.
	type rgKey struct {
		r  *sharedRanker
		pi int
	}
	rGroups := make([][]int, 0, len(lanes))
	rIndex := make(map[rgKey]int, len(lanes))
	for i := range ml {
		k := rgKey{rankers[i], pis[i]}
		gi, ok := rIndex[k]
		if !ok {
			gi = len(rGroups)
			rIndex[k] = gi
			rGroups = append(rGroups, nil)
		}
		rGroups[gi] = append(rGroups[gi], i)
	}

	acc := m.ds.Accesses
	var evs []vfs.RunEvent
	for bi := range feed.batches {
		b := &feed.batches[bi]
		// Lanes fire due triggers in lockstep, one grid point at a time,
		// so a gap in the log that makes several triggers due at once
		// still takes each ranker's tables in time order. All lanes
		// share the grid, so lane 0's next trigger is every lane's.
		for {
			at := min(ml[0].s.st.nextTrigger, b.first)
			for i, ln := range ml {
				if err := ln.s.fireTriggers(at); err != nil {
					_ = waitLanes(ml) // the lane's error wins, but no write outlives the run
					return nil, fmt.Errorf("sim: lane %d: %w", i, err)
				}
			}
			if at == b.first {
				break
			}
		}
		for _, ln := range ml {
			ln.s.dayFor(b.first) // sets ln.s.day, which the runs below fill
		}
		// Runs apply in the batch's order of first appearance;
		// accounting is pure sums until the event-ordered miss flush
		// below.
		for ri := range b.runs {
			run := &b.runs[ri]
			seg := feed.order[run.off : run.off+run.n]
			evs = evs[:0]
			for _, idx := range seg {
				a := &acc[idx]
				evs = append(evs, vfs.RunEvent{User: a.User, Size: a.Size, TS: a.TS, Create: a.Create})
			}
			miss := group.ApplyRun(run.pid, feed.paths[run.pid], evs)
			for _, rg := range rGroups {
				st0 := ml[rg[0]].s.st
				gt := st0.ranking.cur.groups[st0.period]
				for _, idx := range seg {
					g := groupAt(gt, acc[idx].User)
					for _, li := range rg {
						d := ml[li].s.day
						d.Accesses++
						d.ByGroup[g].Accesses++
					}
				}
				for _, li := range rg {
					ml[li].s.st.res.TotalAccesses += int64(len(seg))
					ml[li].s.ro.accesses.Add(int64(len(seg)))
				}
			}
			if miss != 0 {
				for li, ln := range ml {
					if miss&(uint64(1)<<uint(li)) != 0 {
						ln.pendMiss = append(ln.pendMiss, seg[0])
					}
				}
			}
		}
		for _, ln := range ml {
			// Batch misses are recorded in event order, whatever order
			// the runs applied in: the miss event stream (and its
			// interleaving with trigger events, which only fire at batch
			// boundaries) matches a sequential replay's exactly.
			slices.Sort(ln.pendMiss)
			st := ln.s.st
			gt := st.ranking.cur.groups[st.period]
			for _, idx := range ln.pendMiss {
				a := &acc[idx]
				ln.s.countMiss(a, groupAt(gt, a.User))
			}
			ln.pendMiss = ln.pendMiss[:0]
			st.cursor = b.end
		}
	}
	if err := waitLanes(ml); err != nil {
		return nil, err
	}
	out := make([]*Result, len(lanes))
	for i, ln := range ml {
		st := ln.s.st
		if !st.captured {
			st.res.Captured = st.fsys.Clone()
		}
		st.res.Final = st.fsys
		st.res.Elapsed = timer.Elapsed()
		out[i] = st.res
	}
	return out, nil
}

// waitLanes waits for every lane's checkpoint writes and returns the
// first lane's failure.
func waitLanes(ml []*mlane) error {
	var first error
	for i, ln := range ml {
		if err := ln.s.Wait(); err != nil && first == nil {
			first = fmt.Errorf("sim: lane %d: %w", i, err)
		}
	}
	return first
}
