package obs

// Observer bundles one run's observability surface: the registry the
// hot paths record into, the event stream, the sampled audit probe
// the retention policies call at each purge decision, and wall-clock
// phase timing routed through internal/profiling so the replay
// packages stay free of direct clock reads (DESIGN.md §9, §11).

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"activedr/internal/profiling"
)

// Metric names the replay instrumentation registers. Exported so the
// docs, the tests, and downstream consumers agree on the vocabulary.
const (
	MetricAccesses    = "replay_accesses_total"
	MetricMisses      = "replay_misses_total"
	MetricMissBytes   = "replay_miss_bytes_total"
	MetricTriggers    = "replay_triggers_total"
	MetricSnapshots   = "replay_snapshots_total"
	MetricCheckpoints = "replay_checkpoints_total"

	MetricPurgeExamined    = "purge_examined_total"
	MetricPurgedFiles      = "purge_purged_files_total"
	MetricPurgedBytes      = "purge_purged_bytes_total"
	MetricPurgeExempt      = "purge_exempt_total"
	MetricPurgeFailedFiles = "purge_failed_files_total"
	MetricPurgeFailedBytes = "purge_failed_bytes_total"
	MetricPurgeInterrupted = "purge_interrupted_scans_total"

	MetricVFSInserts      = "vfs_inserts_total"
	MetricVFSRemoves      = "vfs_removes_total"
	MetricVFSTouches      = "vfs_touches_total"
	MetricVFSTouchMisses  = "vfs_touch_misses_total"
	MetricVFSStaleQueries = "vfs_stale_queries_total"

	MetricFaultUnlinks    = "faults_unlink_failures_total"
	MetricFaultInterrupts = "faults_interrupted_scans_total"
	MetricFaultReads      = "faults_read_failures_total"
	MetricFaultWrites     = "faults_write_failures_total"
	MetricFaultTornWrites = "faults_torn_writes_total"

	MetricMissSizeBytes = "replay_miss_size_bytes"
	MetricTriggerFreed  = "purge_freed_of_target_pct"
)

// MetricMissesGroup names the per-activeness-group miss counter.
func MetricMissesGroup(g int) string {
	return fmt.Sprintf("replay_misses_group_%d_total", g)
}

// Observer wires a registry, an event stream, and an audit-sampling
// knob into one run-scoped handle. A nil Observer is fully inert:
// every method is a no-op, which is the instrumentation-off fast
// path.
type Observer struct {
	reg    *Registry
	events *EventWriter
	probe  PurgeProbe
	phases phaseTimes
}

// NewObserver builds an observer recording into reg (may be nil:
// metrics off) and emitting events to events (may be nil: stream
// off). auditSample ∈ [0,1] selects the fraction of per-file purge
// decisions to record on the event stream; 0 disables the audit
// stream, 1 records every decision. Sampling is deterministic — an
// FNV-1a hash of the file path against the threshold — so two runs
// over the same trace audit the same files and a resumed run carries
// no sampler state.
func NewObserver(reg *Registry, events *EventWriter, auditSample float64) (*Observer, error) {
	if !(auditSample >= 0 && auditSample <= 1) { // NaN fails both comparisons
		return nil, fmt.Errorf("obs: audit sample %v outside [0,1]", auditSample)
	}
	o := &Observer{reg: reg, events: events}
	o.probe = PurgeProbe{
		examined:    reg.Counter(MetricPurgeExamined),
		purged:      reg.Counter(MetricPurgedFiles),
		purgedBytes: reg.Counter(MetricPurgedBytes),
		exempt:      reg.Counter(MetricPurgeExempt),
		failed:      reg.Counter(MetricPurgeFailedFiles),
		failedBytes: reg.Counter(MetricPurgeFailedBytes),
		interrupted: reg.Counter(MetricPurgeInterrupted),
		sample:      sampleThreshold(auditSample),
	}
	if auditSample > 0 {
		o.probe.events = events
	}
	return o, nil
}

// Registry returns the observer's registry (nil when metrics are off
// or the observer is nil).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Events returns the observer's event writer (nil when the stream is
// off or the observer is nil).
func (o *Observer) Events() *EventWriter {
	if o == nil {
		return nil
	}
	return o.events
}

// Probe returns the purge-decision probe for retention policies. Nil
// on a nil observer; retention's probe calls are nil-safe either way.
func (o *Observer) Probe() *PurgeProbe {
	if o == nil {
		return nil
	}
	return &o.probe
}

// VFSProbe returns hot-path counters for the virtual file system.
// The zero VFSProbe (from a nil observer) discards everything.
func (o *Observer) VFSProbe() VFSProbe {
	if o == nil {
		return VFSProbe{}
	}
	return VFSProbe{
		Inserts:      o.reg.Counter(MetricVFSInserts),
		Removes:      o.reg.Counter(MetricVFSRemoves),
		Touches:      o.reg.Counter(MetricVFSTouches),
		TouchMisses:  o.reg.Counter(MetricVFSTouchMisses),
		StaleQueries: o.reg.Counter(MetricVFSStaleQueries),
	}
}

// FaultMetrics returns injected-fault counters for the fault
// injector. The zero FaultMetrics (from a nil observer) discards
// everything.
func (o *Observer) FaultMetrics() FaultMetrics {
	if o == nil {
		return FaultMetrics{}
	}
	return FaultMetrics{
		UnlinkFailures:   o.reg.Counter(MetricFaultUnlinks),
		InterruptedScans: o.reg.Counter(MetricFaultInterrupts),
		ReadFailures:     o.reg.Counter(MetricFaultReads),
		WriteFailures:    o.reg.Counter(MetricFaultWrites),
		TornWrites:       o.reg.Counter(MetricFaultTornWrites),
	}
}

// BeginTrigger scopes the probe's audit context to one purge trigger;
// the per-trigger scratch tallies (scan position, retro-pass
// contributions) reset here. Nil-safe.
func (o *Observer) BeginTrigger(policy string, seq int64) {
	if o == nil {
		return
	}
	o.probe.policy = policy
	o.probe.seq = seq
	o.probe.tally = probeTally{}
}

// TriggerTally returns the probe's per-trigger scratch: the scan
// position reached and retro-pass purge contributions of the trigger
// begun by the last BeginTrigger. Zero on a nil observer.
func (o *Observer) TriggerTally() (examined, retroFiles, retroBytes int64) {
	if o == nil {
		return 0, 0, 0
	}
	t := &o.probe.tally
	return t.examined, t.retroFiles, t.retroBytes
}

// EmitTrigger writes a trigger event to the stream. Nil-safe.
func (o *Observer) EmitTrigger(e *TriggerEvent) {
	if o == nil {
		return
	}
	o.events.Trigger(e)
}

// EmitMiss writes a miss event to the stream. Nil-safe.
func (o *Observer) EmitMiss(e *MissEvent) {
	if o == nil {
		return
	}
	o.events.Miss(e)
}

// StartPhase starts a wall-clock timer for one named replay phase
// (replay, purge, snapshot, checkpoint, checkpoint_capture); the
// returned stop function accumulates the elapsed time under the name,
// and may run on another goroutine (checkpoint writes do). Timing
// goes through profiling.StartTimer, the one sanctioned wall-clock
// seam, and phase times stay out of MetricsSnapshot: they are
// measurement metadata, never checkpointed, never part of
// equivalence. Nil-safe.
func (o *Observer) StartPhase(name string) (stop func()) {
	if o == nil {
		return func() {}
	}
	t := profiling.StartTimer()
	return func() { o.phases.add(name, t.Elapsed()) }
}

// PhaseValue is one phase's accumulated wall-clock time.
type PhaseValue struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Phases returns the accumulated per-phase times, sorted by name.
// Nil on a nil observer.
func (o *Observer) Phases() []PhaseValue {
	if o == nil {
		return nil
	}
	return o.phases.snapshot()
}

// phaseTimes accumulates wall-clock durations per phase name.
type phaseTimes struct {
	mu  sync.Mutex
	dur map[string]time.Duration
}

func (p *phaseTimes) add(name string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dur == nil {
		p.dur = make(map[string]time.Duration)
	}
	p.dur[name] += d
}

func (p *phaseTimes) snapshot() []PhaseValue {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PhaseValue, 0, len(p.dur))
	for name, d := range p.dur {
		out = append(out, PhaseValue{Name: name, Seconds: d.Seconds()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// probeTally is the per-trigger scratch the trigger event pulls from
// the probe. Single-writer: the purge scan is single-threaded.
type probeTally struct {
	examined   int64
	retroFiles int64
	retroBytes int64
}

// PurgeProbe receives every per-file purge decision from the
// retention policies. Counter updates are atomic; the audit stream is
// sampled by path hash. All methods are nil-safe, so an
// uninstrumented policy pays one nil check per decision.
type PurgeProbe struct {
	examined    *Counter
	purged      *Counter
	purgedBytes *Counter
	exempt      *Counter
	failed      *Counter
	failedBytes *Counter
	interrupted *Counter

	events *EventWriter
	sample uint64 // audit threshold over the 32-bit hash space; 0 = off

	policy string
	seq    int64
	tally  probeTally
}

// Examined records one candidate reaching the scan head.
func (p *PurgeProbe) Examined() {
	if p == nil {
		return
	}
	p.examined.Inc()
	p.tally.examined++
}

// Purged records a successful victim deletion.
func (p *PurgeProbe) Purged(path string, user int64, group, pass int, size int64) {
	if p == nil {
		return
	}
	p.purged.Inc()
	p.purgedBytes.Add(size)
	if pass > 0 {
		p.tally.retroFiles++
		p.tally.retroBytes += size
	}
	p.audit(ActionPurge, path, user, group, pass, size)
}

// Exempt records a reserved-path skip.
func (p *PurgeProbe) Exempt(path string, user int64, group, pass int, size int64) {
	if p == nil {
		return
	}
	p.exempt.Inc()
	p.audit(ActionExempt, path, user, group, pass, size)
}

// Failed records a victim whose unlink failed; the file survives
// until a later trigger retries it.
func (p *PurgeProbe) Failed(path string, user int64, group, pass int, size int64) {
	if p == nil {
		return
	}
	p.failed.Inc()
	p.failedBytes.Add(size)
	p.audit(ActionFail, path, user, group, pass, size)
}

// Interrupted records a scan cut short by a fault.
func (p *PurgeProbe) Interrupted() {
	if p == nil {
		return
	}
	p.interrupted.Inc()
}

func (p *PurgeProbe) audit(action, path string, user int64, group, pass int, size int64) {
	if p.events == nil || !p.sampled(path) {
		return
	}
	p.events.Audit(&AuditEvent{
		Kind:   KindAudit,
		Policy: p.policy,
		Seq:    p.seq,
		Action: action,
		Path:   path,
		User:   user,
		Group:  int64(group),
		Pass:   int64(pass),
		Bytes:  size,
	})
}

// sampled decides membership in the audit sample from the path alone.
func (p *PurgeProbe) sampled(path string) bool {
	if p.sample == 0 {
		return false
	}
	return uint64(fnv32a(path)) < p.sample
}

// sampleThreshold maps a fraction to a cut over the 32-bit hash
// space. 1.0 maps above the maximum hash so every path qualifies.
func sampleThreshold(f float64) uint64 {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return 1 << 32
	}
	return uint64(f * (1 << 32))
}

// fnv32a is the 32-bit FNV-1a hash (inlined; hash/fnv would allocate
// a hasher per call).
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// VFSProbe carries the virtual file system's hot-path counters. The
// zero value discards everything (nil counters are no-ops), so an
// uninstrumented FS pays only dead branches.
type VFSProbe struct {
	Inserts      *Counter
	Removes      *Counter
	Touches      *Counter
	TouchMisses  *Counter
	StaleQueries *Counter
}

// FaultMetrics carries the fault injector's counters. The zero value
// discards everything.
type FaultMetrics struct {
	UnlinkFailures   *Counter
	InterruptedScans *Counter
	ReadFailures     *Counter
	WriteFailures    *Counter
	TornWrites       *Counter
}
