package sim

// Multiplexed replay (DESIGN.md §13): evaluate up to 64 independent
// policy instances — a lifetime sweep, an ablation grid, facility
// presets — in ONE pass over the access stream. All lanes share the
// columnar day-batched feed (columnar.go), one vfs.LaneGroup (shared
// record table + candidate index, per-lane divergence bitmasks) and,
// where their activity inputs coincide, one activeness cursor walk per
// trigger (EvaluateUserMulti ranks all registered period lengths off
// one cursor advance, so even a lifetime sweep with four distinct
// periods walks each user history once). Per-lane work shrinks to bit
// checks, counters and the policy's own purge decisions, which is
// where the ≥3× single-core speedup over N sequential replays comes
// from.
//
// The batch loop itself is replayFeed (columnar.go), which
// Emulator.RunWith and Resume run with one lane.
//
// Equivalence contract: every lane's Result — reports, day series,
// captured and final file systems, checkpoints on disk — is
// bit-identical to what a sequential Emulator.RunWith of the same
// (Config, Policy, RunOptions) would produce, and to a per-event
// Stream replay of the log. The test suite proves this with and
// without fault injection (multiplex_test.go, perevent_test.go).

import (
	"errors"
	"fmt"

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
// snapfile-backed startup decodes the namespace once and shares it across
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
// period index. In a batch replay (replayFeed) a worker goroutine owns
// the cursors and computes each table one trigger ahead of the lanes
// (start), taking ranking off the replay's critical path; the ranker
// of a Stream fed through Apply has one only once the stream opts in
// (Stream.RankAhead).
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

// start launches the worker. It evaluates the tables at from and at
// every grid point from+k·interval up to end, in order, and hands each
// over on next, which it closes after the last. from is the snapshot
// time for a fresh replay and the next trigger for a resumed one, whose
// current table loadCheckpoint computed without a worker. The
// handover is unbuffered, so the worker runs at most one table ahead
// of the lanes and at most two tables per ranker are alive: the one
// lanes read and the one computed ahead. The worker uses the cursors
// alone, on the same sequence of times a synchronous ranker would, so
// every table is bit-identical. The caller ends it with halt on every
// return path.
func (r *sharedRanker) start(from, end timeutil.Time, interval timeutil.Duration) {
	r.next = make(chan *rankTable)
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		defer close(r.next)
		for at := from; at <= end; at = at.Add(interval) {
			select {
			case r.next <- r.eval(at):
			case <-r.stop:
				return
			}
		}
	}()
}

// lastEvent is the time of ds's last access (the snapshot time for an
// empty log): a batch replay fires no trigger after it.
func lastEvent(ds *trace.Dataset) timeutil.Time {
	if n := len(ds.Accesses); n > 0 {
		return ds.Accesses[n-1].TS
	}
	return ds.Snapshot.Taken
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
// computes the table itself. With one, the first lane to ask for a
// new time takes the worker's next table; the lanes after it find it
// current. Lanes ask for each grid point in order (replayFeed fires
// triggers in lockstep, a Stream's Apply one trigger at a time), after
// the snapshot time for a fresh replay, which is the sequence the
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
	// The rankers work while the feed and the lane group are built.
	for _, r := range rankers {
		if r.next == nil { // not yet started by an earlier lane
			r.start(m.ds.Snapshot.Taken, lastEvent(m.ds), cfgs[0].TriggerInterval)
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
	ls := make([]*Stream, len(lanes))
	for i := range lanes {
		em := &Emulator{ds: m.ds, cfg: cfgs[i], base: m.base, eval: m.dataEvaluator(cfgs[i]), users: len(m.ds.Users)}
		policy, err := em.NewPolicy(lanes[i].Policy)
		if err != nil {
			return nil, fmt.Errorf("sim: lane %d: %w", i, err)
		}
		ls[i] = em.newStream(policy, lanes[i].Opts, em.startState(policy.Name(), group, i, rankers[i], pis[i]))
	}
	if lane, err := replayFeed(m.ds.Accesses, feed, ls); err != nil {
		return nil, fmt.Errorf("sim: lane %d: %w", lane, err)
	}
	out := make([]*Result, len(lanes))
	for i, s := range ls {
		out[i] = s.finish(timer.Elapsed())
	}
	return out, nil
}
