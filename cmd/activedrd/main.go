// Command activedrd runs the crash-safe retention daemon: it loads a
// dataset's reference snapshot and activity logs, recovers its replay
// state from the latest durable checkpoint plus the write-ahead log
// tail, and then serves a local HTTP/JSON API while ingesting
// create/access/unlink events through the WAL.
//
// Durability contract: an event is acknowledged once it is fsynced
// into the WAL, and applied after that; a read that starts after the
// acknowledgment sees it. Killed at any instant, the next incarnation
// recovers to purge plans bit-identical to a batch replay of every
// acknowledged event (internal/daemon's chaos harness enforces this).
// Feeders resume from /v1/status's applied_events, as -feed does on a
// restart.
//
// Usage:
//
//	activedrd -data ./data -wal-dir ./wal -checkpoint-dir ./ckpt
//	activedrd ... -listen 127.0.0.1:7421                 # HTTP API address
//	activedrd ... -feed events.tsv -oneshot              # batch ingest, then exit
//	activedrd ... -wal-fault-torn 0.01 -wal-fault-kill daemon.wal.synced:3   # chaos drill
//
// API: GET /healthz /readyz /metrics /v1/status /v1/ranks
// /v1/plan?user=U /v1/victims?limit=N, POST /v1/ingest (TSV feed;
// 429 on backpressure, 503 degraded).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"activedr/internal/daemon"
	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// options carries every flag after validation; run never sees raw,
// unchecked flag values.
type options struct {
	data    string
	listen  string
	walDir  string
	ckptDir string
	policy  string

	lifetime int
	target   float64
	interval int

	queueDepth   int
	syncEvery    int
	ckptEvery    int
	segmentBytes int64
	retries      int

	lenient   bool
	maxErrors int

	faultProb float64
	faultSeed uint64

	walFaultWrite    float64
	walFaultTorn     float64
	walFaultDiskFull int64
	walFaultKill     string
	walFaultSeed     uint64

	feed      string
	feedBatch int
	oneshot   bool

	metricsOut string
	eventsOut  string
}

// parseFlags binds the flag set to an options struct and validates
// it. Errors come back to the caller (ContinueOnError) so tests can
// table-drive rejection without exiting the process.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("activedrd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var o options
	fs.StringVar(&o.data, "data", "data", "dataset directory (from tracegen)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7421", "HTTP API listen address")
	fs.StringVar(&o.walDir, "wal-dir", "", "write-ahead log directory (required)")
	fs.StringVar(&o.ckptDir, "checkpoint-dir", "", "durable checkpoint directory (required)")
	fs.StringVar(&o.policy, "policy", "activedr", "retention policy: activedr or flt")

	fs.IntVar(&o.lifetime, "lifetime", 90, "initial file lifetime in days")
	fs.Float64Var(&o.target, "target", 0.5, "ActiveDR purge target utilization, in (0,1]")
	fs.IntVar(&o.interval, "interval", 7, "purge trigger interval in days")

	fs.IntVar(&o.queueDepth, "queue-depth", 64, "bounded ingest queue depth in batches (overflow = HTTP 429)")
	fs.IntVar(&o.syncEvery, "sync-every", 256, "fsync the WAL at least once every N events within a batch")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 1, "checkpoint once every N purge triggers")
	fs.Int64Var(&o.segmentBytes, "segment-bytes", 0, "WAL segment roll threshold in bytes (0 = default)")
	fs.IntVar(&o.retries, "retries", 5, "WAL append attempts before the daemon degrades (jittered exponential backoff between)")

	fs.BoolVar(&o.lenient, "lenient", false, "quarantine malformed trace lines instead of aborting")
	fs.IntVar(&o.maxErrors, "max-errors", trace.DefaultMaxErrors, "per-file quarantine cap in -lenient mode")

	fs.Float64Var(&o.faultProb, "faults", 0, "per-victim unlink-failure and per-trigger scan-interrupt probability (purge-level chaos)")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "purge-level fault injector seed")

	fs.Float64Var(&o.walFaultWrite, "wal-fault-write", 0, "per-attempt transient WAL write failure probability (write-path chaos)")
	fs.Float64Var(&o.walFaultTorn, "wal-fault-torn", 0, "per-write torn-write probability (write-path chaos; a tear kills the daemon)")
	fs.Int64Var(&o.walFaultDiskFull, "wal-fault-disk-full", 0, "fail WAL writes with ENOSPC after this many bytes (0 = never)")
	fs.StringVar(&o.walFaultKill, "wal-fault-kill", "", "kill the daemon at a named kill point, name:N (e.g. "+daemon.KillWALSynced+":3 or "+daemon.KillRecoverRecord+":5)")
	fs.Uint64Var(&o.walFaultSeed, "wal-fault-seed", 1, "write-path fault injector seed (separate stream from -fault-seed)")

	fs.StringVar(&o.feed, "feed", "", "ingest this TSV event feed (ts\\tuser\\top\\tsize\\tpath) before serving; @accesses replays the dataset's own access log")
	fs.IntVar(&o.feedBatch, "feed-batch", 256, "events per ingest batch when replaying -feed")
	fs.BoolVar(&o.oneshot, "oneshot", false, "exit after replaying -feed instead of serving (requires -feed)")

	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the final metrics registry to this JSON file at shutdown")
	//lint:allow flagvalidate an output path, created before any event is applied: os.Create's error is the check
	fs.StringVar(&o.eventsOut, "events-out", "", "stream per-trigger/per-miss telemetry to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return &o, nil
}

// validate rejects nonsensical flag combinations before any state
// exists; negated comparisons keep NaN out of the float knobs.
func (o *options) validate() error {
	if o.data == "" {
		return errors.New("-data is required (the dataset directory from tracegen)")
	}
	if _, _, err := net.SplitHostPort(o.listen); err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	if o.walDir == "" {
		return errors.New("-wal-dir is required (the daemon is only crash-safe with a write-ahead log)")
	}
	if o.ckptDir == "" {
		return errors.New("-checkpoint-dir is required (recovery replays the WAL from the latest checkpoint)")
	}
	if o.policy != "activedr" && o.policy != "flt" {
		return fmt.Errorf("-policy must be activedr or flt, got %q", o.policy)
	}
	if o.lifetime < 1 {
		return fmt.Errorf("-lifetime must be >= 1 day, got %d", o.lifetime)
	}
	if o.interval < 1 {
		return fmt.Errorf("-interval must be >= 1 day, got %d", o.interval)
	}
	if !(o.target > 0 && o.target <= 1) {
		return fmt.Errorf("-target must be in (0,1], got %v", o.target)
	}
	if o.queueDepth < 1 {
		return fmt.Errorf("-queue-depth must be >= 1, got %d", o.queueDepth)
	}
	if o.syncEvery < 1 {
		return fmt.Errorf("-sync-every must be >= 1, got %d", o.syncEvery)
	}
	if o.ckptEvery < 1 {
		return fmt.Errorf("-checkpoint-every must be >= 1, got %d", o.ckptEvery)
	}
	if o.segmentBytes < 0 {
		return fmt.Errorf("-segment-bytes must be >= 0, got %d", o.segmentBytes)
	}
	if o.retries < 1 {
		return fmt.Errorf("-retries must be >= 1, got %d", o.retries)
	}
	if o.maxErrors < 1 {
		return fmt.Errorf("-max-errors must be >= 1, got %d", o.maxErrors)
	}
	if !(o.faultProb >= 0 && o.faultProb <= 1) {
		return fmt.Errorf("-faults probability must be in [0,1], got %v", o.faultProb)
	}
	if !(o.walFaultWrite >= 0 && o.walFaultWrite <= 1) {
		return fmt.Errorf("-wal-fault-write probability must be in [0,1], got %v", o.walFaultWrite)
	}
	if !(o.walFaultTorn >= 0 && o.walFaultTorn <= 1) {
		return fmt.Errorf("-wal-fault-torn probability must be in [0,1], got %v", o.walFaultTorn)
	}
	if o.walFaultDiskFull < 0 {
		return fmt.Errorf("-wal-fault-disk-full must be >= 0 bytes, got %d", o.walFaultDiskFull)
	}
	if o.walFaultKill != "" {
		if _, _, err := faults.ParseKillSpec(o.walFaultKill); err != nil {
			return fmt.Errorf("-wal-fault-kill: %w", err)
		}
	}
	if o.feedBatch < 1 {
		return fmt.Errorf("-feed-batch must be >= 1, got %d", o.feedBatch)
	}
	if o.oneshot && o.feed == "" {
		return errors.New("-oneshot requires -feed (nothing to do and no server to run)")
	}
	if dir := filepath.Dir(o.metricsOut); o.metricsOut != "" && !isDir(dir) {
		return fmt.Errorf("-metrics-out: %s is not an existing directory (the file is written at shutdown)", dir)
	}
	return nil
}

// isDir reports whether path names an existing directory.
func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("activedrd: ")
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, o *options, out io.Writer) (err error) {
	ds, rep, err := trace.LoadDatasetWith(o.data, trace.ReadOptions{
		Lenient: o.lenient, MaxErrors: o.maxErrors,
	})
	if err != nil {
		return err
	}
	if o.lenient && !rep.Clean() {
		fmt.Fprintf(out, "lenient load: %d malformed lines quarantined\n", rep.Errors())
	}

	reg := obs.NewRegistry()
	var events *obs.EventWriter
	if o.eventsOut != "" {
		ef, cerr := os.Create(o.eventsOut)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := ef.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		events = obs.NewEventWriter(ef)
	}
	observer, err := obs.NewObserver(reg, events, 0)
	if err != nil {
		return err
	}

	cfg := daemon.Config{
		WALDir:        o.walDir,
		CheckpointDir: o.ckptDir,
		Policy:        o.policy,
		Sim: sim.Config{
			Lifetime:          timeutil.Days(o.lifetime),
			TriggerInterval:   timeutil.Days(o.interval),
			TargetUtilization: o.target,
		},
		QueueDepth:      o.queueDepth,
		SyncEvery:       o.syncEvery,
		CheckpointEvery: o.ckptEvery,
		SegmentBytes:    o.segmentBytes,
		RetryAttempts:   o.retries,
		BackoffSeed:     o.walFaultSeed,
		Obs:             observer,
	}
	if o.faultProb > 0 {
		fc := faults.Config{Seed: o.faultSeed, UnlinkFailProb: o.faultProb, ScanInterruptProb: o.faultProb}
		if err := fc.Validate(); err != nil {
			return err
		}
		cfg.Faults = faults.New(fc)
	}
	if o.walFaultWrite > 0 || o.walFaultTorn > 0 || o.walFaultDiskFull > 0 || o.walFaultKill != "" {
		wc := faults.Config{
			Seed:               o.walFaultSeed,
			WriteFailProb:      o.walFaultWrite,
			TornWriteProb:      o.walFaultTorn,
			DiskFullAfterBytes: o.walFaultDiskFull,
			KillSpec:           o.walFaultKill,
		}
		if err := wc.Validate(); err != nil {
			return err
		}
		cfg.WALFaults = faults.New(wc)
	}

	d, err := daemon.New(ds, cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := d.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if o.metricsOut != "" {
			if merr := writeMetrics(o.metricsOut, reg); merr != nil && err == nil {
				err = merr
			}
		}
	}()

	if o.feed != "" {
		if err := replayFeed(d, ds, o, out); err != nil {
			return err
		}
	}
	if o.oneshot {
		return printStatus(d, out)
	}

	srv := &http.Server{Handler: d.Handler()}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving on http://%s (SIGTERM drains and checkpoints)\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		fmt.Fprintln(out, "signal received; draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
		return nil // the deferred Close drains and checkpoints
	}
}

// replayFeed batch-ingests a TSV event feed through the same
// WAL-acknowledged path HTTP ingestion uses. The sentinel @accesses
// replays the dataset's own access log (CI drills and smoke runs).
// The feed resumes at the daemon's applied count: a restart with the
// same feed ingests only the events the daemon does not hold yet.
func replayFeed(d *daemon.Daemon, ds *trace.Dataset, o *options, out io.Writer) error {
	var evs []daemon.Event
	if o.feed == "@accesses" {
		evs = make([]daemon.Event, len(ds.Accesses))
		for i := range ds.Accesses {
			evs[i] = daemon.AccessEvent(&ds.Accesses[i])
		}
	} else {
		body, err := os.ReadFile(o.feed)
		if err != nil {
			return err
		}
		evs, err = daemon.ParseFeed(body, trace.NameIndex(ds.Users))
		if err != nil {
			return fmt.Errorf("%s: %w", o.feed, err)
		}
	}
	held := min(d.Applied(), len(evs))
	for i := held; i < len(evs); i += o.feedBatch {
		end := min(i+o.feedBatch, len(evs))
		if err := d.Ingest(evs[i:end]); err != nil {
			return fmt.Errorf("feed batch [%d:%d): %w", i, end, err)
		}
	}
	fmt.Fprintf(out, "ingested %d events from %s (%d already held)\n", len(evs)-held, o.feed, held)
	return nil
}

// printStatus renders the daemon's status document, exactly as
// GET /v1/status would serve it.
func printStatus(d *daemon.Daemon, out io.Writer) error { return d.WriteStatus(out) }

// writeMetrics dumps the final registry snapshot as JSON.
func writeMetrics(path string, reg *obs.Registry) error {
	b, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
