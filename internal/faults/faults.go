// Package faults provides a deterministic, seed-driven fault injector
// for the retention stack. A production purge engine on a
// billion-entry namespace must survive interrupted scans, files that
// fail to delete, and flaky metadata feeds; this package lets the
// emulator rehearse those failures reproducibly so that every
// degradation path is testable and every faulted run can be replayed
// bit-for-bit from the same seed.
//
// The injector draws from a private randx.Source, so two runs with the
// same seed and the same call sequence make identical fault decisions.
// Its stream position is exposed via State/Restore, which the sim
// checkpoint layer persists so that a killed-and-resumed run consumes
// the randomness exactly where the original left off.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"activedr/internal/obs"
	"activedr/internal/randx"
	"activedr/internal/timeutil"
)

// Config parameterizes an Injector. All probabilities are in [0, 1];
// zero disables that fault class.
type Config struct {
	// Seed drives the deterministic decision stream.
	Seed uint64
	// UnlinkFailProb is the per-victim probability that deleting a
	// purge victim fails: the file stays and its bytes are not
	// reclaimed until a later trigger retries it.
	UnlinkFailProb float64
	// ScanInterruptProb is the per-trigger probability that the purge
	// scan is interrupted partway through its scan order; the pass
	// reports Incomplete and the shortfall is made up next trigger.
	ScanInterruptProb float64
	// ReadFailProb is the per-attempt probability that a trace read
	// fails transiently (see ReadAttempt and RetryBackoff).
	ReadFailProb float64
	// WriteFailProb is the per-attempt probability that a durable
	// write fails transiently (see WriteAttempt); transient write
	// failures are retried with backoff by the WAL layer.
	WriteFailProb float64
	// DiskFullAfterBytes, when positive, makes every write attempt
	// fail with ErrDiskFull — a permanent, non-retryable error — once
	// the injector has admitted that many bytes. This is the
	// disk-pressure fault that drives a daemon into degraded
	// read-only mode.
	DiskFullAfterBytes int64
	// TornWriteProb is the per-write probability that only a
	// deterministic prefix of the buffer reaches the disk — the
	// classic torn write a crash mid-write leaves behind. The WAL
	// open path must truncate the resulting tail.
	TornWriteProb float64
	// KillSpec names a crash rehearsal point as "name:N": the Nth
	// time the named kill point is consulted, ShouldKill reports
	// true and the host simulates a process death there. Empty
	// disables the class. Kill-point names are defined by the
	// packages that embed them (e.g. KillSimCheckpointPublished,
	// and the daemon's wal/apply/recover points).
	KillSpec string
	// ClearAfter, when non-zero, stops all purge-time faults at
	// triggers at or after this time — the "faults clear" point after
	// which policies must converge back to their target.
	ClearAfter timeutil.Time
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"unlink-fail", c.UnlinkFailProb},
		{"scan-interrupt", c.ScanInterruptProb},
		{"read-fail", c.ReadFailProb},
		{"write-fail", c.WriteFailProb},
		{"torn-write", c.TornWriteProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if c.DiskFullAfterBytes < 0 {
		return fmt.Errorf("faults: negative disk-full byte budget %d", c.DiskFullAfterBytes)
	}
	if c.KillSpec != "" {
		if _, _, err := ParseKillSpec(c.KillSpec); err != nil {
			return err
		}
	}
	return nil
}

// ParseKillSpec splits a "name:N" kill-point spec into the point name
// and the 1-based hit count at which it fires.
func ParseKillSpec(spec string) (name string, hit int64, err error) {
	i := strings.LastIndexByte(spec, ':')
	if i <= 0 || i == len(spec)-1 {
		return "", 0, fmt.Errorf("faults: kill spec %q is not name:N", spec)
	}
	n, err := strconv.ParseInt(spec[i+1:], 10, 64)
	if err != nil || n < 1 {
		return "", 0, fmt.Errorf("faults: kill spec %q wants a positive hit count", spec)
	}
	return spec[:i], n, nil
}

// State is an Injector's serializable stream position and counters,
// captured at a checkpoint boundary and restored on resume.
type State struct {
	Rand             uint64 `json:"rand"`
	UnlinkFailures   int64  `json:"unlink_failures"`
	InterruptedScans int64  `json:"interrupted_scans"`
	ReadFailures     int64  `json:"read_failures"`
	WriteFailures    int64  `json:"write_failures,omitempty"`
	WrittenBytes     int64  `json:"written_bytes,omitempty"`
	TornWrites       int64  `json:"torn_writes,omitempty"`
	KillHits         int64  `json:"kill_hits,omitempty"`
}

// Injector makes deterministic fault decisions. It implements the
// retention package's FaultInjector interface. Not safe for concurrent
// use: the purge scan that consults it is single-threaded.
type Injector struct {
	cfg      Config
	src      *randx.Source
	at       timeutil.Time // current trigger time, set by BeginScan
	st       State         // counters (Rand filled on State())
	killName string        // parsed Config.KillSpec
	killHit  int64
	// m mirrors the counters into the observability registry when
	// set. The zero value discards increments; restoring checkpointed
	// metrics happens at the registry layer, never here, so the two
	// views stay consistent across a resume.
	m obs.FaultMetrics
}

// SetMetrics installs observability counters that mirror the
// injector's fault decisions.
func (in *Injector) SetMetrics(m obs.FaultMetrics) { in.m = m }

// New builds an injector; it panics on an invalid config (the config
// is programmer input, not data).
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	in := &Injector{cfg: cfg, src: randx.New(cfg.Seed)}
	if cfg.KillSpec != "" {
		in.killName, in.killHit, _ = ParseKillSpec(cfg.KillSpec)
	}
	return in
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// active reports whether purge-time faults still fire at the current
// trigger time.
func (in *Injector) active() bool {
	return in.cfg.ClearAfter == 0 || in.at < in.cfg.ClearAfter
}

// BeginScan is called once at the start of each purge pass with the
// trigger time and the number of files in the namespace. It returns
// the number of files the scan may examine before being "interrupted"
// (a crash or operator abort partway through the scan order), or -1
// for an uninterrupted scan.
func (in *Injector) BeginScan(at timeutil.Time, files int64) int64 {
	in.at = at
	if !in.active() || in.cfg.ScanInterruptProb <= 0 || files <= 0 {
		return -1
	}
	if !in.src.Bool(in.cfg.ScanInterruptProb) {
		return -1
	}
	in.st.InterruptedScans++
	in.m.InterruptedScans.Inc()
	return in.src.Int64n(files)
}

// UnlinkFails reports whether deleting the given purge victim fails.
// A failed unlink leaves the file in place with its bytes
// unreclaimed; the policy reports it under FailedPurges.
func (in *Injector) UnlinkFails(path string) bool {
	if !in.active() || in.cfg.UnlinkFailProb <= 0 {
		return false
	}
	if in.src.Bool(in.cfg.UnlinkFailProb) {
		in.st.UnlinkFailures++
		in.m.UnlinkFailures.Inc()
		return true
	}
	return false
}

// ErrTransient marks injected transient I/O failures; RetryBackoff
// retries exactly these.
var ErrTransient = errors.New("faults: injected transient I/O error")

// IsTransient reports whether err is (or wraps) a transient injected
// failure.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// ReadAttempt simulates one trace-read attempt: with probability
// ReadFailProb it returns a transient error the caller should retry.
func (in *Injector) ReadAttempt() error {
	if in.cfg.ReadFailProb <= 0 {
		return nil
	}
	if in.src.Bool(in.cfg.ReadFailProb) {
		in.st.ReadFailures++
		in.m.ReadFailures.Inc()
		return fmt.Errorf("read attempt %d: %w", in.st.ReadFailures, ErrTransient)
	}
	return nil
}

// ErrDiskFull marks an injected disk-full failure. It is permanent:
// retrying does not help until space is reclaimed, so callers must
// degrade (stop accepting writes) rather than spin.
var ErrDiskFull = errors.New("faults: injected disk-full error")

// IsDiskFull reports whether err is (or wraps) an injected disk-full
// failure.
func IsDiskFull(err error) bool { return errors.Is(err, ErrDiskFull) }

// WriteAttempt simulates one durable-write attempt of n bytes. It
// returns ErrDiskFull once the configured byte budget is exhausted
// (permanent), a transient error with probability WriteFailProb
// (retryable), or nil after accounting the bytes as written.
func (in *Injector) WriteAttempt(n int) error {
	if in.cfg.DiskFullAfterBytes > 0 && in.st.WrittenBytes+int64(n) > in.cfg.DiskFullAfterBytes {
		return fmt.Errorf("write of %d bytes over budget %d: %w", n, in.cfg.DiskFullAfterBytes, ErrDiskFull)
	}
	if in.cfg.WriteFailProb > 0 && in.src.Bool(in.cfg.WriteFailProb) {
		in.st.WriteFailures++
		in.m.WriteFailures.Inc()
		return fmt.Errorf("write attempt %d: %w", in.st.WriteFailures, ErrTransient)
	}
	in.st.WrittenBytes += int64(n)
	return nil
}

// TornWrite decides whether a write of n bytes is torn — cut short as
// a crash mid-write would leave it — and if so, how many bytes
// actually reach the disk. The kept prefix is drawn uniformly from
// [0, n), so record headers, checksums, and payloads all get sliced.
func (in *Injector) TornWrite(n int) (keep int, torn bool) {
	if in.cfg.TornWriteProb <= 0 || n <= 0 {
		return n, false
	}
	if !in.src.Bool(in.cfg.TornWriteProb) {
		return n, false
	}
	in.st.TornWrites++
	in.m.TornWrites.Inc()
	return int(in.src.Int64n(int64(n))), true
}

// KillSimCheckpointPublished is the kill point the replay emulator
// consults right after publishing a checkpoint: a kill there aborts
// the run with sim.ErrInterrupted, the reproducible crash a -resume
// run then recovers from (cmd/simulate -fault-kill).
const KillSimCheckpointPublished = "sim.checkpoint.published"

// ShouldKill reports whether the named kill point fires on this hit.
// A kill point models a process death at a precise code location; the
// host is expected to abandon all in-memory state there (and tests
// then rehearse recovery). Only the configured point counts hits, so
// one spec addresses one location deterministically.
func (in *Injector) ShouldKill(name string) bool {
	if in.killName != name {
		return false
	}
	in.st.KillHits++
	return in.st.KillHits == in.killHit
}

// State captures the injector's stream position and counters for a
// checkpoint.
func (in *Injector) State() State {
	st := in.st
	st.Rand = in.src.State()
	return st
}

// Restore rewinds the injector to a previously captured State.
func (in *Injector) Restore(st State) {
	in.src.Restore(st.Rand)
	in.st = st
}

// Backoff computes deterministic jittered exponential backoff delays:
// Base doubled per attempt, capped at Max, scaled by a jitter factor
// in [0.5, 1) drawn from a seeded randx.Source. Two Backoffs with the
// same seed produce the same delay sequence, so a replayed failure
// schedule waits the same simulated time — "full jitter" without the
// global randomness the replay invariants ban.
type Backoff struct {
	base time.Duration
	max  time.Duration
	src  *randx.Source
}

// NewBackoff builds a deterministic backoff schedule. It panics on
// non-positive durations (programmer input, not data).
func NewBackoff(seed uint64, base, max time.Duration) *Backoff {
	if base <= 0 || max < base {
		panic(fmt.Sprintf("faults: backoff base %v / max %v", base, max))
	}
	return &Backoff{base: base, max: max, src: randx.New(seed)}
}

// Delay returns the wait before retry attempt (0-based first retry).
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.base
	for i := 0; i < attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	jitter := 0.5 + 0.5*b.src.Float64()
	return time.Duration(float64(d) * jitter)
}

// RetryBackoff runs fn up to attempts times, waiting b.Delay between
// tries via the provided sleep function (injectable so tests and the
// daemon's drain path can skip real waiting). Only transient errors
// are retried; permanent errors and success return immediately.
func RetryBackoff(attempts int, b *Backoff, sleep func(time.Duration), fn func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 && sleep != nil {
			sleep(b.Delay(i - 1))
		}
		err = fn()
		if err == nil || !IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("faults: gave up after %d attempts: %w", attempts, err)
}
