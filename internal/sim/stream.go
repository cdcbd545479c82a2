package sim

// Stream is one lane of a replay: its state, its policy and its
// checkpoint writer. Two loops feed it. The retention daemon
// (internal/daemon) calls Apply for each event of its write-ahead log.
// Batch replays (Emulator.RunWith and Resume on one lane,
// Multiplexer.Run on N) feed whole day batches through replayFeed
// (columnar.go). Both loops fire triggers, checkpoint and
// stop through fireTriggers, bucket days through dayFor, mutate the
// namespace (a one-lane vfs.LaneGroup for a Stream of its own) only
// through ApplyRun, classify owners from the ranker's tables and count
// misses through countMiss, so each of these exists once.
// TestBatchReplayMatchesPerEvent holds a batch replay bit-identical to
// Apply over the same log, and the daemon's TestDaemonMatchesBatchReplay
// holds its purge plans to a batch replay's.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"activedr/internal/activeness"
	"activedr/internal/faults"
	"activedr/internal/retention"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// Stream applies events to a live replay state. Not safe for
// concurrent use; the daemon serializes all access under its mutex.
// Only checkpoint writes run beside it, on copies of the state (see
// checkpoint), and, once RankAhead started it, the ranker's worker.
type Stream struct {
	e      *Emulator
	policy retention.Policy
	opts   RunOptions
	st     *runState
	ro     runObs
	day    *DayStats
	every  int // checkpoint cadence in triggers
	// writes are the checkpoint writes in flight, oldest first, at
	// most maxCkptWrites; werr is the first write that failed.
	writes []*ckptWrite
	werr   error
	// sorted is the newest series snapshot's sort (nil before the
	// first): a trigger copies its snapshot unsorted, and sortSeries
	// sorts it off the replay's goroutine.
	sorted *seriesSort
}

// seriesSort is one series snapshot's sort. Its goroutine closes done
// once the snapshot, and every one taken before it, is in path order.
type seriesSort struct{ done chan struct{} }

// ckptWrite is one queued checkpoint write. Its goroutine closes done
// when the write has finished; err is then its outcome.
type ckptWrite struct {
	applied int // events the checkpoint's state contains
	done    chan struct{}
	err     error
}

// newStream wires faults and observability into the state the same way
// for both loops, so batch and streamed runs stay equivalent.
func (e *Emulator) newStream(policy retention.Policy, opts RunOptions, st *runState) *Stream {
	if opts.Faults != nil {
		if sink, ok := policy.(retention.FaultSink); ok {
			sink.SetFaults(opts.Faults)
		}
	}
	ro := newRunObs(opts.Obs)
	if opts.Obs != nil {
		if sink, ok := policy.(retention.ProbeSink); ok {
			sink.SetProbe(opts.Obs.Probe())
		}
		st.fsys.SetProbe(opts.Obs.VFSProbe())
		if opts.Faults != nil {
			opts.Faults.SetMetrics(opts.Obs.FaultMetrics())
		}
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	if opts.CheckpointDir != "" && opts.CheckpointFullEvery > 1 {
		// Delta checkpoints diff against the previous checkpoint, so
		// the FS must record its mutation working set from the start.
		st.fsys.TrackDirty()
	}
	s := &Stream{e: e, policy: policy, opts: opts, st: st, ro: ro, every: every}
	if n := len(st.res.Days); n > 0 {
		// Resume mid-day: keep appending to the tail day's stats.
		s.day = &st.res.Days[n-1]
	}
	return s
}

// NewStream starts a stream at the reference snapshot.
func (e *Emulator) NewStream(policy retention.Policy, opts RunOptions) *Stream {
	return e.newStream(policy, opts, e.freshState(policy, 0, e.newRanker()))
}

// ResumeStream reconstructs a stream from the latest checkpoint under
// opts.CheckpointDir. Applied() reports how many events the restored
// state already contains; the caller replays everything after that.
func (e *Emulator) ResumeStream(policy retention.Policy, opts RunOptions) (*Stream, error) {
	if opts.CheckpointDir == "" {
		return nil, errors.New("sim: ResumeStream requires RunOptions.CheckpointDir")
	}
	st, err := e.loadCheckpoint(policy, opts, 0)
	if err != nil {
		return nil, err
	}
	return e.newStream(policy, opts, st), nil
}

// RankAhead moves the stream's ranking onto a worker goroutine that
// computes each trigger's rank table one trigger ahead, as a batch
// replay's ranker does, so a trigger takes its table instead of
// computing it. A live feed has no last event, so the worker runs
// until it is stopped. The tables are bit-identical to the ones the
// triggers compute without it. The caller stops the worker with the
// returned function, once, when it stops driving the stream; no
// trigger may fire after that.
func (s *Stream) RankAhead() (halt func()) {
	s.st.ranking.start(s.st.nextTrigger, math.MaxInt64, s.e.cfg.TriggerInterval)
	return s.st.ranking.halt
}

// Applied returns the number of events folded into the state so far.
// With a WAL whose first event holds sequence 1, this is exactly the
// last applied sequence number.
func (s *Stream) Applied() int { return s.st.cursor }

// Triggers returns how many purge triggers have fired.
func (s *Stream) Triggers() int { return s.st.triggers }

// NextTrigger returns when the next purge trigger fires.
func (s *Stream) NextTrigger() timeutil.Time { return s.st.nextTrigger }

// Ranks returns the current activeness rank table (read-only; indexed
// by user ID) and the trigger time it was evaluated at.
func (s *Stream) Ranks() ([]activeness.Rank, timeutil.Time) {
	t := s.st.ranking.cur
	return t.ranks[s.st.period], t.at
}

// FS returns the live namespace, the one lane of the stream's group.
// Callers must not mutate it and must not retain it across Apply calls.
func (s *Stream) FS() *vfs.FS { return s.st.fsys }

// Policy returns the policy the stream purges with.
func (s *Stream) Policy() retention.Policy { return s.policy }

// Result returns the accumulating run result (live; Final and Elapsed
// are only set by the batch replays).
func (s *Stream) Result() *Result { return s.st.res }

// finish completes the Result of a replay that reached the end of the
// log: the CaptureAt state if no trigger reached it, the final lane
// view and the wall-clock time.
func (s *Stream) finish(elapsed time.Duration) *Result {
	st := s.st
	if !st.captured {
		st.res.Captured = st.fsys.Clone()
	}
	st.res.Final = st.fsys
	st.res.Elapsed = elapsed
	return st.res
}

// dayFor returns the per-day stats bucket for ts, starting a new day
// when the timestamp crosses midnight.
func (s *Stream) dayFor(ts timeutil.Time) *DayStats {
	d := ts.StartOfDay()
	if s.day == nil || s.day.Day != d {
		s.st.res.Days = append(s.st.res.Days, DayStats{Day: d})
		s.day = &s.st.res.Days[len(s.st.res.Days)-1]
	}
	return s.day
}

// trigger fires one purge trigger at its scheduled time.
func (s *Stream) trigger(at timeutil.Time) {
	e, st, res := s.e, s.st, s.st.res
	st.ranking.evalAll(at)
	if !st.captured && at >= e.cfg.CaptureAt {
		res.Captured = st.fsys.Clone()
		st.captured = true
	}
	seq := int64(st.triggers) + 1 // 1-based, stable across resumes
	s.opts.Obs.BeginTrigger(s.policy.Name(), seq)
	stopPurge := s.opts.Obs.StartPhase("purge")
	rep := s.policy.Purge(st.fsys, st.ranking.cur.ranks[st.period], at)
	stopPurge()
	res.Reports = append(res.Reports, rep)
	s.ro.triggers.Inc()
	s.ro.noteTrigger(rep, seq)
	if e.cfg.SnapshotEvery > 0 && (st.lastSnap == 0 || at.Sub(st.lastSnap) >= e.cfg.SnapshotEvery) {
		stopSnap := s.opts.Obs.StartPhase("snapshot")
		snap := st.fsys.SnapshotUnsorted(at)
		res.Snapshots = append(res.Snapshots, snap)
		s.sortSeries(snap)
		stopSnap()
		st.lastSnap = at
		s.ro.snaps.Inc()
	}
	st.triggers++
}

// sortSeries sorts series snapshot snap by path on a goroutine of its
// own, once the snapshots before it are sorted, so that on a churned
// record table the sort does not stall the replay. Checkpoint writes
// and Wait wait for it.
func (s *Stream) sortSeries(snap *trace.Snapshot) {
	prev, cur := s.sorted, &seriesSort{done: make(chan struct{})}
	s.sorted = cur
	go func() {
		defer close(cur.done)
		if prev != nil {
			<-prev.done
		}
		sortByPath(snap.Entries)
	}()
}

// fireTriggers runs every purge trigger scheduled at or before ts,
// checkpointing on cadence and honoring kill points and trigger
// budgets. ErrInterrupted leaves the current event unapplied, exactly
// like the historical in-loop checks.
func (s *Stream) fireTriggers(ts timeutil.Time) error {
	if len(s.writes) > 0 {
		// Settle finished writes without waiting, so OnCheckpoint runs
		// and a failure surfaces at the first event after it.
		if err := s.settle(maxCkptWrites); err != nil {
			return err
		}
	}
	st := s.st
	for ts >= st.nextTrigger {
		at := st.nextTrigger
		s.trigger(at)
		st.nextTrigger = at.Add(s.e.cfg.TriggerInterval)
		if s.opts.CheckpointDir != "" && st.triggers%s.every == 0 {
			if err := s.checkpoint(at); err != nil {
				return err
			}
			// Crash rehearsal: a configured kill point right after the
			// publish dies exactly where a real preemption would, with
			// the just-written checkpoint as the resume source.
			if s.opts.Faults != nil && s.opts.Faults.ShouldKill(faults.KillSimCheckpointPublished) {
				return s.interrupt()
			}
		}
		if s.opts.StopAfterTriggers > 0 && st.triggers >= s.opts.StopAfterTriggers {
			return s.interrupt()
		}
	}
	return nil
}

// interrupt stops the replay with ErrInterrupted once every checkpoint
// taken so far has published.
func (s *Stream) interrupt() error {
	if err := s.Wait(); err != nil {
		return err
	}
	return ErrInterrupted
}

// checkpoint takes one checkpoint of the state at `at`. The capture
// runs here, on the applier; the write runs on the stream's writer —
// one goroutine per capture, each starting when its predecessor has
// finished, so writes run one at a time and publish in capture order.
// A capture that finds maxCkptWrites in flight first waits for the
// oldest.
//
// The checkpoint phase times capture and write, the whole cost of a
// checkpoint; checkpoint_capture times the applier's share, including
// any wait for a writer that fell behind.
func (s *Stream) checkpoint(at timeutil.Time) error {
	o := s.opts.Obs
	stopCapture := o.StartPhase("checkpoint_capture")
	defer stopCapture()
	if err := s.settle(maxCkptWrites - 1); err != nil {
		return err
	}
	// The counter increments before the capture so the persisted
	// snapshot counts the checkpoint that carries it; resumed and
	// uninterrupted runs then agree on the final value.
	s.ro.ckpts.Inc()
	stopCopy := o.StartPhase("checkpoint")
	c := s.e.saveCheckpoint(s.opts, s.policy, s.st, at)
	stopCopy()
	w := &ckptWrite{applied: s.st.cursor, done: make(chan struct{})}
	var prev *ckptWrite
	if n := len(s.writes); n > 0 {
		prev = s.writes[n-1]
	}
	sorted := s.sorted // the capture's series snapshots are sorted once it is done
	go func() {
		defer close(w.done)
		if sorted != nil {
			<-sorted.done
		}
		if prev != nil {
			<-prev.done
			if prev.err != nil {
				w.err = prev.err // nothing publishes after a failure
				return
			}
		}
		stop := o.StartPhase("checkpoint")
		defer stop()
		if err := c.write(); err != nil {
			w.err = &CheckpointError{Name: c.name, Err: err}
		}
	}()
	s.writes = append(s.writes, w)
	return nil
}

// settle reaps finished checkpoint writes in publish order, blocking
// while more than keep are in flight. OnCheckpoint runs after each
// write that published. The first failure is kept and returned, by
// this and every later settle.
func (s *Stream) settle(keep int) error {
	for len(s.writes) > 0 {
		w := s.writes[0]
		if len(s.writes) > keep {
			<-w.done
		} else {
			select {
			case <-w.done:
			default:
				return s.werr
			}
		}
		s.writes = s.writes[1:]
		switch {
		case w.err != nil:
			if s.werr == nil {
				s.werr = w.err
			}
		case s.opts.OnCheckpoint != nil:
			s.opts.OnCheckpoint(w.applied)
		}
	}
	return s.werr
}

// Wait blocks until every checkpoint write in flight has finished and
// every series snapshot is sorted, runs OnCheckpoint after each write
// that published, and returns the first write failure (a
// *CheckpointError), if any. Batch replays wait before they return; a
// caller driving a Stream itself waits before it reads the checkpoint
// directory or Result().Snapshots, or abandons the stream.
func (s *Stream) Wait() error {
	if s.sorted != nil {
		<-s.sorted.done
	}
	return s.settle(0)
}

// Apply folds one access event into the state: due triggers fire
// first, then the access lands as a create, a hit, or a miss (which
// restores the file from the archive, as the paper's users do).
func (s *Stream) Apply(a *trace.Access) error {
	if a.TS < s.e.ds.Snapshot.Taken {
		return fmt.Errorf("sim: access at %v predates the snapshot (%v)", a.TS, s.e.ds.Snapshot.Taken)
	}
	if err := trace.CheckAccess(a.Size, a.Path); err != nil {
		return fmt.Errorf("sim: access %d: %w", s.st.cursor, err)
	}
	if err := s.fireTriggers(a.TS); err != nil {
		return err
	}
	st, res := s.st, s.st.res
	ds := s.dayFor(a.TS)
	g := groupAt(st.ranking.cur.groups[st.period], a.User)
	ds.Accesses++
	ds.ByGroup[g].Accesses++
	res.TotalAccesses++
	s.ro.accesses.Inc()
	// A one-event run on the stream's lane; path id 0 makes the group's
	// handle slot 0 a one-entry cache.
	ev := [1]vfs.RunEvent{{User: a.User, Size: a.Size, TS: a.TS, Create: a.Create}}
	if st.group.ApplyRun(0, a.Path, ev[:]) != 0 {
		s.countMiss(a, g)
	}
	st.cursor++
	return nil
}

// countMiss counts a miss of access a by a user in group g, in the
// current day and the run's totals: the user came back for a purged
// file and restores it from the archive. Stream.Apply and
// replayFeed's event-ordered flush both call it.
func (s *Stream) countMiss(a *trace.Access, g activeness.Group) {
	d, res := s.day, s.st.res
	d.Misses++
	d.ByGroup[g].Misses++
	res.TotalMisses++
	res.MissesByGroup[g]++
	res.RestoredFiles++
	res.RestoredBytes += a.Size
	s.ro.noteMiss(res.Policy, a, g)
}

// Unlink folds one deletion event into the state: due triggers fire
// first, then the path is removed (a user deleting their own file —
// no miss, no archive restore). Reports whether the path existed.
func (s *Stream) Unlink(path string, ts timeutil.Time) (bool, error) {
	if ts < s.e.ds.Snapshot.Taken {
		return false, fmt.Errorf("sim: unlink at %v predates the snapshot (%v)", ts, s.e.ds.Snapshot.Taken)
	}
	if err := s.fireTriggers(ts); err != nil {
		return false, err
	}
	_, ok := s.st.fsys.Remove(path)
	s.st.cursor++
	return ok, nil
}

// Checkpoint persists the state immediately, outside the trigger
// cadence — the daemon's graceful-drain path. `at` stamps the
// serialized file-system snapshot (the current event time). It
// returns once this checkpoint, and every one before it, has
// published.
func (s *Stream) Checkpoint(at timeutil.Time) error {
	if s.opts.CheckpointDir == "" {
		return errors.New("sim: Checkpoint requires RunOptions.CheckpointDir")
	}
	if err := s.checkpoint(at); err != nil {
		return err
	}
	return s.Wait()
}
