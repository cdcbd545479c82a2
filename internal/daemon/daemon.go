package daemon

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/wal"
)

// Named kill points the chaos harness can arm via faults.Config
// KillSpec on Config.WALFaults. Each models a process death at that
// exact instant; tests then rebuild the daemon over the same
// directories and assert it reconverges.
const (
	// KillWALSynced dies right after an ingest batch's fsync — events
	// durable in the WAL but their effects unacknowledged.
	KillWALSynced = "daemon.wal.synced"
	// KillRecoverRecord dies while recovery replays the WAL, after
	// the Nth record — a crash loop's worst case.
	KillRecoverRecord = "daemon.recover.record"
)

// checkpointFullEvery makes every 8th daemon checkpoint a full
// snapshot of the namespace and the ones between v3 deltas against
// the checkpoint before, so a weekly trigger writes what the week
// changed. Checkpoints are written in the background (sim.Stream), so
// the cadence sets two costs: the writer's work (the checkpoint
// phase) and the apply stage's share (checkpoint_capture: the copy,
// and any wait for a writer that fell behind). Feeding a 2000-user year
// over HTTP (ActiveDR-90d, 2 vCPUs, two passes) they were 3.4–3.8 s
// and 0.77–0.79 s with every checkpoint full, 1.4–1.6 s and 0.10 s at
// 4, 1.15 s and 0.06–0.07 s at 8, and 0.92–0.97 s and 0.05–0.06 s at
// 16. Resuming through a 4-delta chain took 0.10–0.12 s against
// 0.05–0.07 s from a full checkpoint, about 12 ms a link: past 8 the
// saving levels off and the worst-case chain doubles. Batch replays
// keep the full-only default.
const checkpointFullEvery = 8

var (
	// ErrBackpressure reports a full ingest queue: the caller must
	// retry later (HTTP 429). Nothing was enqueued.
	ErrBackpressure = errors.New("daemon: ingest queue full")
	// ErrDegraded reports the daemon is in read-only mode after disk
	// pressure or repeated write failure; reads still work.
	ErrDegraded = errors.New("daemon: degraded read-only mode")
	// ErrClosed reports use after Close began.
	ErrClosed = errors.New("daemon: closed")
	// ErrKilled reports a simulated crash (chaos kill point or torn
	// write). The in-memory daemon is dead; the durable state on disk
	// is what the next incarnation recovers from.
	ErrKilled = errors.New("daemon: killed at chaos point")
)

// Config parameterizes a Daemon.
type Config struct {
	// WALDir holds the write-ahead log (required).
	WALDir string
	// CheckpointDir holds trigger-boundary state checkpoints in the
	// internal/sim layout (required; recovery = checkpoint + WAL tail).
	CheckpointDir string
	// Policy names the retention policy (sim.Emulator.NewPolicy):
	// sim.PolicyActiveDR (default) or sim.PolicyFLT.
	Policy string
	// Sim carries the retention parameters (lifetime, trigger
	// interval, target utilization, ...).
	Sim sim.Config
	// QueueDepth bounds the ingest queue in batches (default 64);
	// a full queue surfaces ErrBackpressure to the feeder.
	QueueDepth int
	// SyncEvery sizes the WAL's group commits: a batch is logged in
	// groups of at most this many events (default 256), each landed
	// with one write and one fsync before the apply stage gets it.
	SyncEvery int
	// CheckpointEvery spaces checkpoints to one every N purge
	// triggers (default 1).
	CheckpointEvery int
	// SegmentBytes is the WAL segment roll threshold (default
	// wal.DefaultSegmentBytes).
	SegmentBytes int64
	// RetryAttempts bounds WAL-append retries on transient write
	// failure (default 5) before the daemon degrades.
	RetryAttempts int
	// RetryBase/RetryMax shape the jittered exponential backoff
	// between retries (defaults 10ms/1s).
	RetryBase, RetryMax time.Duration
	// BackoffSeed seeds the deterministic retry jitter.
	BackoffSeed uint64
	// Sleep is the retry wait function (default time.Sleep;
	// tests inject a recorder).
	Sleep func(time.Duration)
	// Faults injects replay-level faults (purge unlink failures, scan
	// interrupts, checkpoint kill points) into the policy via
	// internal/sim. Its state checkpoints and restores with the run.
	Faults *faults.Injector
	// WALFaults injects write-path faults (transient failures,
	// disk-full, torn writes, daemon kill points) into the WAL. Kept
	// separate from Faults so write-path draws never desynchronize
	// the replay-level stream — the property the daemon-vs-batch
	// equivalence tests depend on.
	WALFaults *faults.Injector
	// Obs attaches the observability layer; the registry also carries
	// the daemon's own queue/WAL/degraded metrics.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = sim.PolicyActiveDR
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 256
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 5
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = time.Second
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// state is the daemon's lifecycle position.
type state int32

const (
	stateRunning state = iota
	stateDegraded
	stateKilled
	stateClosed
)

func (s state) String() string {
	switch s {
	case stateRunning:
		return "running"
	case stateDegraded:
		return "degraded"
	case stateKilled:
		return "killed"
	default:
		return "closed"
	}
}

type batch struct {
	events []Event
	done   chan error
}

// applyDepth bounds the durable groups the WAL stage has handed to the
// apply stage and the apply stage has not taken up yet. When the apply
// stage falls that far behind, the WAL stage waits for it, the ingest
// queue fills, and feeders get ErrBackpressure, as they would from one
// stage.
const applyDepth = 4

// Daemon is the retention service core. Ingest runs through two
// stages (DESIGN.md §12). The WAL stage, the only user of the log
// after recovery, makes each group of events durable without d.mu and
// acknowledges a batch once its last group is durable. The apply stage
// applies the durable groups in order under d.mu, which HTTP reads
// take too, after waiting for the events that were durable when they
// arrived.
type Daemon struct {
	cfg       Config
	em        *sim.Emulator
	users     []trace.User
	byName    map[string]trace.UserID
	queue     chan batch
	applyq    chan []Event // durable groups, WAL stage → apply stage; closed when the WAL stage exits
	applyDone chan struct{}

	ingestMu sync.RWMutex // guards queue against close-vs-send races
	closing  bool

	// The WAL stage's own state. Recovery uses the log before the stage
	// starts, and Close after it has exited.
	log     *wal.Log
	backoff *faults.Backoff
	enc     []byte // the event encoding buffer, reused per record
	pruned  uint64 // the log is pruned up to this event

	durable atomic.Int64  // events the WAL holds durable
	pruneTo atomic.Uint64 // the newest published checkpoint's event

	mu         sync.Mutex // guards the stream and everything below
	stream     *sim.Stream
	stopped    bool          // the stream takes no more events: the daemon died or closed
	haltRanker func()        // stops the stream's ranker worker; called once, when stopped is set
	lastTS     timeutil.Time // newest event timestamp applied
	lastCkpt   int           // Applied() at the last checkpoint
	recovered  int           // events replayed from the WAL at startup
	walInfo    wal.RecoveryInfo

	// The read watermark and the lifecycle state. wmu is held across
	// nothing that blocks but wcond.Wait, and never while taking d.mu.
	wmu     sync.Mutex
	wcond   sync.Cond
	applied int64 // events the apply stage has applied
	st      state
	reason  string // why degraded/killed

	closeOnce sync.Once
	closeErr  error

	m daemonMetrics
}

// daemonMetrics caches the daemon's registry handles (nil-safe).
type daemonMetrics struct {
	ingested   *obs.Counter
	unlinks    *obs.Counter
	rejected   *obs.Counter
	walRecords *obs.Counter
	walSyncs   *obs.Counter
	retries    *obs.Counter
	queueLen   *obs.Gauge
	degraded   *obs.Gauge
	lastSeq    *obs.Gauge
}

func newDaemonMetrics(o *obs.Observer) daemonMetrics {
	reg := o.Registry()
	return daemonMetrics{
		ingested:   reg.Counter("daemon_events_ingested_total"),
		unlinks:    reg.Counter("daemon_events_unlinked_total"),
		rejected:   reg.Counter("daemon_events_rejected_total"),
		walRecords: reg.Counter("daemon_wal_records_total"),
		walSyncs:   reg.Counter("daemon_wal_syncs_total"),
		retries:    reg.Counter("daemon_wal_retries_total"),
		queueLen:   reg.Gauge("daemon_queue_depth"),
		degraded:   reg.Gauge("daemon_degraded"),
		lastSeq:    reg.Gauge("daemon_last_seq"),
	}
}

// New builds the daemon over a dataset (metadata snapshot + activity
// logs), recovers its state — latest durable checkpoint plus the WAL
// tail — and starts the two ingest stages. The returned daemon is
// ready to serve; a chaos kill point armed on Config.WALFaults can
// abort recovery with ErrKilled.
func New(ds *trace.Dataset, cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.WALDir == "" || cfg.CheckpointDir == "" {
		return nil, errors.New("daemon: WALDir and CheckpointDir are required")
	}
	em, err := sim.New(ds, cfg.Sim)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:       cfg,
		em:        em,
		users:     ds.Users,
		byName:    trace.NameIndex(ds.Users),
		backoff:   faults.NewBackoff(cfg.BackoffSeed, cfg.RetryBase, cfg.RetryMax),
		queue:     make(chan batch, cfg.QueueDepth),
		applyq:    make(chan []Event, applyDepth),
		applyDone: make(chan struct{}),
		m:         newDaemonMetrics(cfg.Obs),
	}
	d.wcond.L = &d.wmu

	policy, err := em.NewPolicy(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}

	opts := sim.RunOptions{
		CheckpointDir:       cfg.CheckpointDir,
		CheckpointEvery:     cfg.CheckpointEvery,
		CheckpointFullEvery: checkpointFullEvery,
		Faults:              cfg.Faults,
		Obs:                 cfg.Obs,
		OnCheckpoint:        d.onCheckpoint,
	}
	if sim.HasCheckpoint(cfg.CheckpointDir) {
		if d.stream, err = em.ResumeStream(policy, opts); err != nil {
			return nil, err
		}
	} else {
		d.stream = em.NewStream(policy, opts)
	}
	d.lastCkpt = d.stream.Applied()
	// Each trigger's rank table is computed one trigger ahead, from
	// recovery on.
	d.haltRanker = d.stream.RankAhead()

	if err := d.recover(); err != nil {
		// Checkpoints the replayed tail took still land (or fail)
		// before New returns: the next incarnation recovers from them.
		if werr := d.stream.Wait(); werr != nil && !errors.Is(err, werr) {
			err = errors.Join(err, werr)
		}
		d.haltRanker()
		if d.log != nil {
			err = errors.Join(err, d.log.Close())
		}
		return nil, err
	}
	// Recovery leaves the log ending at the stream's cursor.
	d.applied = int64(d.stream.Applied())
	d.durable.Store(d.applied)
	d.m.lastSeq.Set(d.applied)
	go d.walStage()
	go d.applyStage()
	return d, nil
}

// recover opens the WAL, checks it joins the checkpoint without a
// gap or a shortfall (an empty WAL continues at the checkpoint's
// cursor), and replays every event past the checkpoint through the
// same Stream the live feed uses. Deterministic: killed and restarted at
// any record, the surviving state is always a prefix-consistent
// replay.
func (d *Daemon) recover() error {
	log, info, err := wal.Open(d.cfg.WALDir, wal.Options{
		SegmentBytes: d.cfg.SegmentBytes,
		Hooks:        walHooks(d.cfg.WALFaults),
	})
	if err != nil {
		return err
	}
	d.log = log
	d.walInfo = info

	applied := uint64(d.stream.Applied())
	switch {
	case info.Records == 0 && log.LastSeq() > applied:
		// The only segment is empty but named past the checkpoint: the
		// records between were pruned or lost.
		return fmt.Errorf("%w: checkpoint ends at event %d but the empty WAL resumes at %d: events lost",
			wal.ErrCorrupt, applied, log.LastSeq()+1)
	case info.Records == 0:
		// A fresh or emptied WAL directory under existing checkpoints
		// continues the stream's numbering, so the next recovery's
		// "replay past the cursor" sees every new event.
		if err := log.StartAt(applied + 1); err != nil {
			return err
		}
	case info.FirstSeq > applied+1:
		return fmt.Errorf("%w: checkpoint ends at event %d but the WAL starts at %d: events lost",
			wal.ErrCorrupt, applied, info.FirstSeq)
	case info.LastSeq < applied:
		// Every event is fsynced before it is applied, so a log behind
		// its checkpoint means the disk went backwards. Appending here
		// would reuse sequence numbers the checkpoint already covers.
		return fmt.Errorf("%w: checkpoint ends at event %d but the WAL ends at %d",
			wal.ErrCorrupt, applied, info.LastSeq)
	}
	if info.LastSeq > applied {
		err := log.Replay(applied, func(seq uint64, payload []byte) error {
			if d.cfg.WALFaults != nil && d.cfg.WALFaults.ShouldKill(KillRecoverRecord) {
				return fmt.Errorf("%w: during recovery at record %d", ErrKilled, seq)
			}
			ev, perr := ParseEvent(payload, d.byName)
			if perr != nil {
				return fmt.Errorf("%w: record %d: %v", wal.ErrCorrupt, seq, perr)
			}
			if aerr := d.apply(&ev); aerr != nil {
				return fmt.Errorf("daemon: recovery at record %d: %w", seq, aerr)
			}
			d.recovered++
			return nil
		})
		if err != nil {
			return err
		}
		// The replayed tail is durable again only once the next
		// checkpoint lands; until then the WAL stays the source of
		// truth, so prune only what the restored checkpoint covers.
	}
	if d.lastCkpt > 0 {
		if err := log.Prune(uint64(d.lastCkpt)); err != nil {
			return err
		}
		d.pruned = uint64(d.lastCkpt)
	}
	return nil
}

// walHooks adapts a possibly-nil injector to the WAL's hook interface
// (a typed-nil *Injector must become a nil interface).
func walHooks(in *faults.Injector) wal.Hooks {
	if in == nil {
		return nil
	}
	return in
}

// onCheckpoint runs after each checkpoint publishes, from inside a
// Stream call (d.mu held, or recovery's exclusive access): the WAL
// prefix the checkpoint covers is garbage. Only the WAL stage uses the
// log, so the position is handed to it (prune).
func (d *Daemon) onCheckpoint(applied int) {
	d.lastCkpt = applied
	d.pruneTo.Store(uint64(applied))
}

// prune drops the WAL segments the newest published checkpoint covers.
// The log's owner calls it: the WAL stage before each group, Close once
// the stage has exited. Best-effort: a failed prune costs disk, not
// correctness.
func (d *Daemon) prune() {
	if p := d.pruneTo.Load(); p > d.pruned {
		_ = d.log.Prune(p)
		d.pruned = p
	}
}

// apply folds one event into the stream (caller holds d.mu or has
// exclusive access during recovery).
func (d *Daemon) apply(ev *Event) error {
	switch ev.Op {
	case OpUnlink:
		if _, err := d.stream.Unlink(ev.Path, ev.TS); err != nil {
			return err
		}
		d.m.unlinks.Inc()
	default:
		a := trace.Access{TS: ev.TS, User: ev.User, Create: ev.Op == OpCreate, Size: ev.Size, Path: ev.Path}
		if err := d.stream.Apply(&a); err != nil {
			return err
		}
	}
	d.lastTS = ev.TS
	return nil
}

// Ingest appends events to the WAL and returns once the batch is
// durable: every event appended and fsynced. The apply stage applies
// the events after that, in order, and every read that starts after
// Ingest returns waits for them, so it sees the batch. A full queue
// returns ErrBackpressure immediately — explicit backpressure, never
// an unbounded buffer. An event that fails to apply ends the daemon
// after its batch was acknowledged (it is durable, and recovery applies
// it): the Ingests after that return ErrDegraded or ErrKilled. Events
// must be time-ordered within and across batches (the feed is a log).
// Ingest keeps no reference to events once it returns.
func (d *Daemon) Ingest(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	b := batch{events: events, done: make(chan error, 1)}
	d.ingestMu.RLock()
	if d.closing {
		d.ingestMu.RUnlock()
		return ErrClosed
	}
	select {
	case d.queue <- b:
		d.ingestMu.RUnlock()
	default:
		d.ingestMu.RUnlock()
		d.m.rejected.Add(int64(len(events)))
		return ErrBackpressure
	}
	d.m.queueLen.Set(int64(len(d.queue)))
	return <-b.done
}

// walStage logs the queued batches in order and acknowledges each once
// it is durable. When the queue closes it closes the hand-off, so the
// apply stage drains and exits.
func (d *Daemon) walStage() {
	defer close(d.applyq)
	for b := range d.queue {
		d.m.queueLen.Set(int64(len(d.queue)))
		b.done <- d.logBatch(b.events)
	}
}

// logBatch runs one ingest batch as a sequence of group commits of at
// most SyncEvery events each: append the group to the WAL (with
// deterministic jittered-backoff retries), land and fsync it with one
// write and one fsync, and only then hand it to the apply stage.
// Applying after the fsync keeps every checkpoint a trigger writes
// behind the durable WAL, so recovery never finds the log ending before
// the checkpoint's cursor.
func (d *Daemon) logBatch(events []Event) error {
	if st, reason := d.state(); st != stateRunning {
		return stateErr(st, reason)
	}
	for len(events) > 0 {
		d.prune()
		group := events[:min(len(events), d.cfg.SyncEvery)]
		events = events[len(group):]
		for i := range group {
			payload, err := group[i].appendTo(d.enc[:0], d.users)
			if err != nil {
				// Nothing appended for this event; the batch aborts
				// after committing the events before it, so the WAL
				// holds no record the stream will not apply.
				if cerr := d.commit(group[:i]); cerr != nil {
					return cerr
				}
				return err
			}
			if err := d.appendRecord(payload); err != nil {
				return err
			}
			d.enc = payload // the WAL copied it; the next event reuses the buffer
		}
		if err := d.commit(group); err != nil {
			return err
		}
	}
	if d.cfg.WALFaults != nil && d.cfg.WALFaults.ShouldKill(KillWALSynced) {
		d.fail(stateKilled, "kill point after batch fsync")
		return ErrKilled
	}
	return nil
}

// appendRecord appends one event's record to the WAL, retrying
// transient failures, and ends the daemon when the append fails for
// good.
func (d *Daemon) appendRecord(payload []byte) error {
	attempt := 0
	err := faults.RetryBackoff(d.cfg.RetryAttempts, d.backoff, func(t time.Duration) {
		d.m.retries.Inc()
		d.cfg.Sleep(t)
	}, func() error {
		attempt++
		_, aerr := d.log.Append(payload)
		return aerr
	})
	switch {
	case err == nil:
		d.m.walRecords.Inc()
		return nil
	case errors.Is(err, wal.ErrTorn):
		d.fail(stateKilled, fmt.Sprintf("torn write: %v", err))
		return fmt.Errorf("%w: %v", ErrKilled, err)
	case faults.IsDiskFull(err):
		d.fail(stateDegraded, fmt.Sprintf("disk full: %v", err))
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	default:
		d.fail(stateDegraded, fmt.Sprintf("write failed after %d attempts: %v", attempt, err))
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
}

// commit makes a group of appended events durable with one WAL write
// and fsync, then hands a copy of it to the apply stage: the caller's
// slice is the caller's again once the batch is acknowledged. Every
// call has records to sync, so the sync counter counts fsyncs.
func (d *Daemon) commit(group []Event) error {
	if len(group) == 0 {
		return nil
	}
	if err := d.log.Sync(); err != nil {
		d.fail(stateDegraded, fmt.Sprintf("wal fsync: %v", err))
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	d.m.walSyncs.Inc()
	d.durable.Store(int64(d.log.LastSeq()))
	d.applyq <- slices.Clone(group)
	return nil
}

// fail ends the daemon from the WAL stage. The groups already durable
// are applied first, as they would have been had the failure come
// later, then the daemon dies.
func (d *Daemon) fail(s state, reason string) {
	d.awaitApplied(d.durable.Load())
	d.die(s, reason)
}

// applyStage applies the durable groups in order, each under d.mu,
// and moves the read watermark past it. Once the daemon has died or
// closed, the groups still in flight are dropped: they are durable,
// and the next incarnation's recovery applies them.
func (d *Daemon) applyStage() {
	defer close(d.applyDone)
	for group := range d.applyq {
		st, reason := stateRunning, ""
		d.mu.Lock()
		if !d.stopped {
			//lint:allow lockflow applying waits under d.mu only for the stream's own workers: a checkpoint writer maxCkptWrites behind, the designed backpressure, or the ranker's next table
			st, reason = d.applyGroup(group)
		}
		applied := int64(d.stream.Applied())
		d.mu.Unlock()
		if st != stateRunning {
			d.die(st, reason)
		}
		d.wmu.Lock()
		d.applied = applied
		d.wcond.Broadcast()
		d.wmu.Unlock()
	}
}

// applyGroup applies one durable group (d.mu held). An event that fails
// to apply stops the group there, and applyGroup returns the terminal
// state and the reason the daemon dies with.
func (d *Daemon) applyGroup(group []Event) (state, string) {
	for i := range group {
		if err := d.apply(&group[i]); err != nil {
			var ce *sim.CheckpointError
			switch {
			case errors.Is(err, sim.ErrInterrupted):
				// A replay-level kill point (checkpoint published)
				// fired: simulated process death.
				return stateKilled, "kill point after checkpoint publish"
			case errors.As(err, &ce):
				// A background checkpoint write failed. Its events are
				// durable in the WAL, which keeps everything after the
				// last published checkpoint; no later one publishes.
				return stateDegraded, fmt.Sprintf("checkpoint %s: %v", ce.Name, ce.Err)
			default:
				// The event is durable but unappliable — a feed bug.
				// Degrade loudly instead of diverging quietly.
				return stateDegraded, fmt.Sprintf("apply event %d: %v", d.stream.Applied()+1, err)
			}
		}
		d.m.lastSeq.Set(int64(d.stream.Applied()))
		d.m.ingested.Inc()
	}
	return stateRunning, ""
}

// die moves the daemon to a terminal ingest state; reads stay up. It
// stops the stream first: checkpoint writes in flight land or fail, so
// the disk a dead daemon leaves behind stops changing, and the ranker
// worker exits. Only then does the state show, to the WAL stage and to
// the reads' watermark. The first death wins. The caller does not hold
// d.mu.
func (d *Daemon) die(s state, reason string) {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	//lint:allow lockflow dying waits under d.mu for the checkpoint writes in flight, which report to the stream d.mu guards
	_ = d.stream.Wait() // a failure only confirms the death
	d.mu.Unlock()
	d.haltRanker()
	d.m.degraded.Set(1)
	d.setState(s, reason)
}

// state returns the lifecycle state and why the daemon left running.
func (d *Daemon) state() (state, string) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.st, d.reason
}

// setState moves the lifecycle state and wakes the reads waiting on
// the watermark: they stop waiting once the daemon is not running.
func (d *Daemon) setState(s state, reason string) {
	d.wmu.Lock()
	d.st, d.reason = s, reason
	d.wcond.Broadcast()
	d.wmu.Unlock()
}

// stateErr is what Ingest returns in a terminal state.
func stateErr(s state, reason string) error {
	switch s {
	case stateDegraded:
		return fmt.Errorf("%w (%s)", ErrDegraded, reason)
	case stateKilled:
		return fmt.Errorf("%w (%s)", ErrKilled, reason)
	}
	return ErrClosed
}

// awaitApplied waits until the apply stage has applied n events or the
// daemon has left the running state.
func (d *Daemon) awaitApplied(n int64) {
	d.wmu.Lock()
	for d.applied < n && d.st == stateRunning {
		d.wcond.Wait()
	}
	d.wmu.Unlock()
}

// settled waits until every event that was durable when it was called
// has been applied, so a read that follows an acknowledgment sees the
// acknowledged events. The target is that snapshot, not the durable
// count as it moves on: a read never chases a feed that keeps coming.
// Every read of the stream calls it before it takes d.mu.
func (d *Daemon) settled() { d.awaitApplied(d.durable.Load()) }

// Applied returns how many events the daemon holds: the position a
// feeder resumes its log from.
func (d *Daemon) Applied() int {
	d.settled()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stream.Applied()
}

// Close drains the ingest queue through both stages, waits for the
// checkpoint writes in flight, takes a final checkpoint, and releases
// the WAL — the graceful SIGTERM path. The drain checkpoint publishes
// under a fresh name, so the one LATEST names stays intact until its
// replacement lands. Safe to call more than once.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		d.ingestMu.Lock()
		d.closing = true
		close(d.queue)
		d.ingestMu.Unlock()
		// The WAL stage logs the queued batches and closes the hand-off
		// as it exits; the apply stage then applies every durable group
		// and exits too.
		<-d.applyDone

		var errs []error
		d.mu.Lock()
		running := !d.stopped // a dead daemon already waited in die
		if running {
			d.stopped = true
			//lint:allow lockflow shutdown waits for checkpoint writes under d.mu on purpose, so reads never see a half-closed stream
			err := d.stream.Wait()
			if err == nil && d.cfg.CheckpointDir != "" && d.stream.Applied() > d.lastCkpt {
				at := d.lastTS
				if at == 0 {
					at = d.stream.NextTrigger() // stamp only; never read back
				}
				//lint:allow lockflow the drain checkpoint is written under d.mu on purpose at shutdown, so reads never see a half-closed stream
				err = d.stream.Checkpoint(at)
			}
			if err != nil {
				errs = append(errs, err)
			}
		}
		d.mu.Unlock()
		if running {
			d.haltRanker()
			d.setState(stateClosed, "")
		}
		// The WAL stage has exited: the log is Close's now.
		d.prune()
		if err := d.log.Close(); err != nil {
			errs = append(errs, err)
		}
		d.closeErr = errors.Join(errs...)
	})
	return d.closeErr
}
