// Command simulate replays a dataset's application log for the whole
// evaluation year under both FLT and ActiveDR and reports the file
// miss comparison (the paper's §4.3 headline experiment).
//
// The replay is fault-tolerant: -faults injects deterministic purge
// failures (failed unlinks, interrupted scans), -checkpoint-dir
// persists resumable checkpoints at trigger boundaries (-resume picks
// the latest one up after a kill), and -lenient salvages what it can
// from damaged trace files instead of aborting.
//
// -multiplex replays both policies as lanes of a single multiplexed
// pass over one shared access stream instead of two dedicated replays.
// Results are identical (the sim equivalence suite pins this); the
// pass costs roughly one replay instead of two. Not combinable with
// -resume or -fault-kill, which need per-policy replay lifecycles.
//
// -vfs-snapshot-out writes the initial file system as a compact binary
// snapfile; -vfs-snapshot reopens one in place of the snapshot TSV,
// making startup an O(1) open plus one straight decode of the tree and
// its candidate index instead of a full TSV re-parse.
//
// Observability: -metrics-out dumps each policy's counter registry
// (plus per-phase wall-clock times) as JSON, -events-out streams
// per-trigger and per-miss telemetry as JSONL (cmd/report -events
// renders it), and -audit-sample adds a sampled per-file
// purge-decision audit to the event stream.
//
// Usage:
//
//	simulate -data ./data -lifetime 90 -target 0.5
//	simulate -data ./data -checkpoint-dir ./ckpt            # checkpointed run
//	simulate -data ./data -checkpoint-dir ./ckpt -resume    # pick up after a kill
//	simulate -data ./data -faults 0.05 -fault-seed 42       # inject purge faults
//	simulate -data ./data -lenient                          # salvage damaged traces
//	simulate -data ./data -multiplex                        # both policies in one pass
//	simulate -data ./data -metrics-out m.json -events-out e.jsonl -audit-sample 0.01
//	simulate -data ./data -vfs-snapshot-out fs.snap         # write the binary snapfile
//	simulate -data ./data -vfs-snapshot fs.snap             # reopen it in place of the TSV
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"activedr/internal/activeness"
	"activedr/internal/archive"
	"activedr/internal/faults"
	"activedr/internal/obs"
	"activedr/internal/profiling"
	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/stats"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// options carries every flag after validation; run never sees raw,
// unchecked flag values.
type options struct {
	data     string
	lifetime int
	target   float64
	interval int
	snapDir  string

	vfsSnap    string
	vfsSnapOut string

	lenient    bool
	maxErrors  int
	sequential bool

	faultProb  float64
	faultRead  float64
	faultSeed  uint64
	faultClear int
	faultKill  string

	ckptDir       string
	ckptEvery     int
	ckptFullEvery int
	resume        bool
	multiplex     bool

	metricsOut  string
	eventsOut   string
	auditSample float64

	cpuProfile string
	memProfile string
}

// parseFlags binds the flag set to an options struct and validates
// it. Errors come back to the caller (ContinueOnError) so tests can
// table-drive rejection without exiting the process.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var o options
	fs.StringVar(&o.data, "data", "data", "dataset directory (from tracegen)")
	fs.IntVar(&o.lifetime, "lifetime", 90, "initial file lifetime in days")
	fs.Float64Var(&o.target, "target", 0.5, "ActiveDR purge target utilization, in (0,1]")
	fs.IntVar(&o.interval, "interval", 7, "purge trigger interval in days")
	fs.StringVar(&o.snapDir, "snapshots", "", "write the FLT run's weekly metadata snapshot series to this directory")

	fs.StringVar(&o.vfsSnap, "vfs-snapshot", "", "open the initial file system from this binary snapfile instead of parsing the dataset's snapshot TSV")
	fs.StringVar(&o.vfsSnapOut, "vfs-snapshot-out", "", "write the initial file system to this binary snapfile after loading; later runs reopen it with -vfs-snapshot")

	fs.BoolVar(&o.lenient, "lenient", false, "quarantine malformed trace lines instead of aborting")
	fs.IntVar(&o.maxErrors, "max-errors", trace.DefaultMaxErrors, "per-file quarantine cap in -lenient mode")
	fs.BoolVar(&o.sequential, "sequential", false, "load trace files with the single-goroutine readers instead of the pipelined ones (A/B fallback)")

	fs.Float64Var(&o.faultProb, "faults", 0, "per-victim unlink-failure and per-trigger scan-interrupt probability")
	fs.Float64Var(&o.faultRead, "fault-read", 0, "per-attempt transient dataset-read failure probability (retried with backoff)")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "fault injector seed")
	fs.IntVar(&o.faultClear, "fault-clear", 0, "days into the replay after which purge faults clear (0 = never)")
	fs.StringVar(&o.faultKill, "fault-kill", "", "kill the replay at a named kill point, name:N (e.g. "+faults.KillSimCheckpointPublished+":2); requires -checkpoint-dir")

	fs.StringVar(&o.ckptDir, "checkpoint-dir", "", "persist resumable checkpoints under this directory (one subdirectory per policy)")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 1, "checkpoint once every N purge triggers")
	fs.IntVar(&o.ckptFullEvery, "checkpoint-full-every", 1, "make only every Kth checkpoint a full snapshot; the ones between persist deltas against the previous checkpoint (1 = every checkpoint full)")
	fs.BoolVar(&o.resume, "resume", false, "resume each policy from its latest checkpoint under -checkpoint-dir")

	fs.BoolVar(&o.multiplex, "multiplex", false, "replay both policies as lanes of one multiplexed pass over a shared access stream (identical results, one stream walk)")

	fs.StringVar(&o.metricsOut, "metrics-out", "", "write each policy's metrics registry and phase times to this JSON file")
	fs.StringVar(&o.eventsOut, "events-out", "", "stream per-trigger/per-miss telemetry to this JSONL file (see cmd/report -events)")
	fs.Float64Var(&o.auditSample, "audit-sample", 0, "fraction of per-file purge decisions to audit on the event stream, in [0,1]")

	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the replay to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return &o, nil
}

// validate rejects nonsensical flag combinations before any work
// happens; negated comparisons keep NaN out of the float knobs.
func (o *options) validate() error {
	if o.lifetime < 1 {
		return fmt.Errorf("-lifetime must be >= 1 day, got %d", o.lifetime)
	}
	if o.interval < 1 {
		return fmt.Errorf("-interval must be >= 1 day, got %d", o.interval)
	}
	if !(o.target > 0 && o.target <= 1) {
		return fmt.Errorf("-target must be in (0,1], got %v", o.target)
	}
	if o.maxErrors < 1 {
		return fmt.Errorf("-max-errors must be >= 1, got %d", o.maxErrors)
	}
	if !(o.faultProb >= 0 && o.faultProb <= 1) {
		return fmt.Errorf("-faults probability must be in [0,1], got %v", o.faultProb)
	}
	if !(o.faultRead >= 0 && o.faultRead <= 1) {
		return fmt.Errorf("-fault-read probability must be in [0,1], got %v", o.faultRead)
	}
	if o.faultClear < 0 {
		return fmt.Errorf("-fault-clear must be >= 0 days, got %d", o.faultClear)
	}
	if o.faultKill != "" {
		if _, _, err := faults.ParseKillSpec(o.faultKill); err != nil {
			return fmt.Errorf("-fault-kill: %w", err)
		}
		if o.ckptDir == "" {
			return errors.New("-fault-kill requires -checkpoint-dir (a kill without a checkpoint leaves nothing to resume)")
		}
	}
	if o.ckptEvery < 1 {
		return fmt.Errorf("-checkpoint-every must be >= 1, got %d", o.ckptEvery)
	}
	if o.ckptFullEvery < 1 {
		return fmt.Errorf("-checkpoint-full-every must be >= 1, got %d", o.ckptFullEvery)
	}
	if o.resume && o.ckptDir == "" {
		return errors.New("-resume requires -checkpoint-dir")
	}
	if o.multiplex && o.resume {
		return errors.New("-resume is not supported with -multiplex; resume the policies with dedicated replays, then drop -resume to go back to multiplexing")
	}
	if o.multiplex && o.faultKill != "" {
		return errors.New("-fault-kill is not supported with -multiplex (a kill tears down the shared pass, leaving the lanes at different trigger depths)")
	}
	if o.vfsSnap != "" && o.vfsSnap == o.vfsSnapOut {
		return errors.New("-vfs-snapshot and -vfs-snapshot-out name the same file; the rewrite would clobber the snapfile being read")
	}
	if !(o.auditSample >= 0 && o.auditSample <= 1) {
		return fmt.Errorf("-audit-sample must be in [0,1], got %v", o.auditSample)
	}
	if o.auditSample > 0 && o.eventsOut == "" {
		return errors.New("-audit-sample requires -events-out (the audit records ride the event stream)")
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("simulate: ")
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
	if err := run(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// policyMetrics is one policy's slice of the -metrics-out file.
type policyMetrics struct {
	Policy  string              `json:"policy"`
	Metrics obs.MetricsSnapshot `json:"metrics"`
	Phases  []obs.PhaseValue    `json:"phases"`
}

func run(o *options, out io.Writer) (err error) {
	stopProfiles, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	ds, err := loadDataset(o, out)
	if err != nil {
		return err
	}
	baseFS, err := openSnapfileBase(o, ds, out)
	if err != nil {
		return err
	}
	if o.vfsSnapOut != "" {
		if baseFS != nil {
			err = vfs.WriteSnapfile(o.vfsSnapOut, baseFS, ds.Snapshot.Taken)
		} else {
			err = vfs.WriteSnapfileFromSnapshot(o.vfsSnapOut, &ds.Snapshot)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote snapfile %s\n", o.vfsSnapOut)
	}

	cfg := sim.Config{
		Lifetime:          timeutil.Days(o.lifetime),
		TriggerInterval:   timeutil.Days(o.interval),
		TargetUtilization: o.target,
	}
	if o.snapDir != "" {
		cfg.SnapshotEvery = timeutil.Days(7)
	}

	faultCfg := faults.Config{
		Seed:              o.faultSeed,
		UnlinkFailProb:    o.faultProb,
		ScanInterruptProb: o.faultProb,
		KillSpec:          o.faultKill,
	}
	if o.faultClear > 0 {
		faultCfg.ClearAfter = ds.Snapshot.Taken.Add(timeutil.Days(o.faultClear))
	}
	if err := faultCfg.Validate(); err != nil {
		return err
	}

	// Both policies share one event stream (records carry the policy
	// name) but get their own registry, so -metrics-out can report
	// them side by side.
	var events *obs.EventWriter
	if o.eventsOut != "" {
		ef, err := os.Create(o.eventsOut)
		if err != nil {
			return err
		}
		events = obs.NewEventWriter(ef)
		defer func() {
			ferr := events.Flush()
			if cerr := ef.Close(); ferr == nil {
				ferr = cerr
			}
			if ferr != nil && err == nil {
				err = fmt.Errorf("events-out %s: %w", o.eventsOut, ferr)
			}
		}()
	}
	instrumented := o.metricsOut != "" || o.eventsOut != ""
	var perPolicy []policyMetrics

	// optsFor assembles one policy's run options — its own checkpoint
	// subdirectory, its own injector (same seed: comparable fault
	// streams), and, when instrumented, its own registry. The returned
	// finish records the registry snapshot once the replay is done.
	optsFor := func(name string) (sim.RunOptions, func(), error) {
		opts := sim.RunOptions{CheckpointEvery: o.ckptEvery, CheckpointFullEvery: o.ckptFullEvery}
		if o.ckptDir != "" {
			opts.CheckpointDir = filepath.Join(o.ckptDir, name)
		}
		if o.faultProb > 0 || o.faultKill != "" {
			cfg := faultCfg
			if o.resume && sim.HasCheckpoint(opts.CheckpointDir) {
				// A checkpoint predates its kill's fatal hit; resuming
				// with the spec intact would just die at the same spot.
				cfg.KillSpec = ""
			}
			opts.Faults = faults.New(cfg)
		}
		finish := func() {}
		if instrumented {
			var reg *obs.Registry
			if o.metricsOut != "" {
				reg = obs.NewRegistry()
			}
			ob, err := obs.NewObserver(reg, events, o.auditSample)
			if err != nil {
				return opts, nil, err
			}
			opts.Obs = ob
			finish = func() {
				if reg != nil {
					perPolicy = append(perPolicy, policyMetrics{
						Policy:  name,
						Metrics: reg.Snapshot(),
						Phases:  ob.Phases(),
					})
				}
			}
		}
		return opts, finish, nil
	}

	cmp := &sim.Comparison{}
	if o.multiplex {
		// Both policies ride one multiplexed pass as lanes over a
		// shared access stream; per-lane options keep checkpoints and
		// fault draws as independent as two dedicated replays.
		fltOpts, fltFinish, err := optsFor("flt")
		if err != nil {
			return err
		}
		adrOpts, adrFinish, err := optsFor("activedr")
		if err != nil {
			return err
		}
		lanes := []sim.LaneSpec{
			{Config: cfg, Policy: sim.PolicyFLT, Opts: fltOpts},
			{Config: cfg, Policy: sim.PolicyActiveDR, Opts: adrOpts},
		}
		var res []*sim.Result
		if baseFS != nil {
			res, err = sim.NewMultiplexerWithBase(ds, baseFS).Run(lanes)
		} else {
			res, err = sim.RunMultiplexed(ds, lanes)
		}
		if err != nil {
			return err
		}
		fltFinish()
		adrFinish()
		cmp.FLT, cmp.ActiveDR = res[0], res[1]
	} else {
		var em *sim.Emulator
		if baseFS != nil {
			em, err = sim.NewWithBase(ds, baseFS, cfg)
		} else {
			em, err = sim.New(ds, cfg)
		}
		if err != nil {
			return err
		}

		// Each policy replays independently, with its own checkpoint
		// subdirectory and its own injector.
		runPolicy := func(name string, policy retention.Policy) (*sim.Result, error) {
			opts, finish, err := optsFor(name)
			if err != nil {
				return nil, err
			}
			defer finish()
			var res *sim.Result
			if o.resume && sim.HasCheckpoint(opts.CheckpointDir) {
				res, err = em.Resume(policy, opts)
				if err == nil {
					fmt.Fprintf(out, "%-14s resumed from checkpoint in %s\n", name, opts.CheckpointDir)
				}
			} else {
				res, err = em.RunWith(policy, opts)
			}
			if errors.Is(err, sim.ErrInterrupted) {
				fmt.Fprintf(out, "%-14s killed at %s after %d triggers; rerun with -resume to recover from %s\n",
					name, o.faultKill, len(res.Reports), opts.CheckpointDir)
			}
			return res, err
		}

		adr, err := em.NewActiveDR()
		if err != nil {
			return err
		}
		if cmp.FLT, err = runPolicy("flt", em.NewFLT()); err != nil {
			return err
		}
		if cmp.ActiveDR, err = runPolicy("activedr", adr); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "replayed %d accesses over %d days (lifetime %dd, trigger %dd, target %.0f%%)\n",
		cmp.FLT.TotalAccesses, len(cmp.FLT.Days), o.lifetime, o.interval, 100*o.target)
	fmt.Fprintf(out, "%-14s misses=%7d (%.2f%% of accesses), wall=%v\n",
		cmp.FLT.Policy, cmp.FLT.TotalMisses,
		100*float64(cmp.FLT.TotalMisses)/float64(cmp.FLT.TotalAccesses), cmp.FLT.Elapsed)
	fmt.Fprintf(out, "%-14s misses=%7d (%.2f%% of accesses), wall=%v\n",
		cmp.ActiveDR.Policy, cmp.ActiveDR.TotalMisses,
		100*float64(cmp.ActiveDR.TotalMisses)/float64(cmp.ActiveDR.TotalAccesses), cmp.ActiveDR.Elapsed)
	fmt.Fprintf(out, "overall file-miss reduction: %.1f%%\n", 100*cmp.MissReduction())
	for _, m := range archive.Models() {
		fmt.Fprintf(out, "restore cost under %s: FLT=%v ActiveDR=%v (saves %v)\n",
			m, cmp.FLT.RestoreCost(m).Round(time.Minute),
			cmp.ActiveDR.RestoreCost(m).Round(time.Minute),
			cmp.RestoreSavings(m).Round(time.Minute))
	}
	if o.faultProb > 0 {
		printFaultSummary(out, cmp.FLT)
		printFaultSummary(out, cmp.ActiveDR)
	}
	if o.snapDir != "" {
		if err := trace.WriteSnapshotSeries(o.snapDir, ds.Users, cmp.FLT.Snapshots); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d weekly snapshots to %s\n", len(cmp.FLT.Snapshots), o.snapDir)
	}
	for _, g := range activeness.Groups() {
		f := cmp.FLT.MissesByGroup[g]
		a := cmp.ActiveDR.MissesByGroup[g]
		fmt.Fprintf(out, "%-22s FLT=%7d ActiveDR=%7d reduction=%6.1f%%\n",
			g, f, a, 100*stats.ReductionRatio(float64(f), float64(a)))
	}
	if o.metricsOut != "" {
		blob, err := json.MarshalIndent(perPolicy, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.metricsOut, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics for %d policies to %s\n", len(perPolicy), o.metricsOut)
	}
	if o.eventsOut != "" {
		fmt.Fprintf(out, "wrote %d telemetry events to %s\n", events.Count(), o.eventsOut)
	}
	return nil
}

// loadDataset reads the traces, optionally in lenient mode, and — when
// -fault-read is set — through the injector's transient-error gauntlet
// with retry/backoff, the way a flaky parallel file system would serve
// them.
// openSnapfileBase opens -vfs-snapshot, decodes it into the initial
// file system, and stamps its capture time onto the dataset (the TSV
// snapshot was skipped at load time, so ds.Snapshot.Taken is zero
// until here). Returns nil when the flag is unset.
func openSnapfileBase(o *options, ds *trace.Dataset, out io.Writer) (*vfs.FS, error) {
	if o.vfsSnap == "" {
		return nil, nil
	}
	sf, err := vfs.OpenSnapfile(o.vfsSnap)
	if err != nil {
		return nil, err
	}
	base, err := vfs.LoadSnapfileFS(sf)
	count := sf.Count()
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	ds.Snapshot.Taken = sf.Taken()
	// Snapfile records carry raw user ids; bound them against the user
	// table the way Dataset.Validate bounds TSV snapshot rows.
	for _, u := range base.Users() {
		if int(u) >= len(ds.Users) {
			return nil, fmt.Errorf("snapfile %s references unknown user %d (dataset has %d users)", o.vfsSnap, u, len(ds.Users))
		}
	}
	fmt.Fprintf(out, "opened snapfile %s: %d files (%.2f TB), taken %s\n",
		o.vfsSnap, count, float64(base.TotalBytes())/1e12, sf.Taken().DateString())
	return base, nil
}

func loadDataset(o *options, out io.Writer) (*trace.Dataset, error) {
	// -vfs-snapshot replaces the dataset's snapshot TSV as the namespace
	// source. When both exist the snapfile wins — say so out loud rather
	// than silently skipping a file the user shipped alongside the
	// traces and may believe is being honored.
	if o.vfsSnap != "" {
		tsv := filepath.Join(o.data, trace.SnapshotFile)
		if _, statErr := os.Stat(tsv); statErr == nil {
			fmt.Fprintf(out, "warning: -vfs-snapshot %s overrides the dataset snapshot %s; the TSV will not be parsed\n",
				o.vfsSnap, tsv)
		}
	}
	ropts := trace.ReadOptions{Lenient: o.lenient, MaxErrors: o.maxErrors, Sequential: o.sequential,
		SkipSnapshot: o.vfsSnap != ""}
	var inj *faults.Injector
	if o.faultRead > 0 {
		cfg := faults.Config{Seed: o.faultSeed, ReadFailProb: o.faultRead}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		inj = faults.New(cfg)
	}
	var (
		ds  *trace.Dataset
		rep *trace.DatasetReport
	)
	attempts := 0
	err := faults.Retry(5, 50*time.Millisecond, func() error {
		attempts++
		if inj != nil {
			if err := inj.ReadAttempt(); err != nil {
				return err
			}
		}
		var err error
		ds, rep, err = trace.LoadDatasetWith(o.data, ropts)
		return err
	})
	if err != nil {
		return nil, err
	}
	if attempts > 1 {
		fmt.Fprintf(out, "dataset load needed %d attempts (transient read faults retried)\n", attempts)
	}
	if ropts.Lenient && !rep.Clean() {
		fmt.Fprintf(out, "lenient load: %d malformed lines quarantined\n%s\n", rep.Errors(), rep.Summary())
	}
	return ds, nil
}

// printFaultSummary reports what the injector did to one policy's
// purge passes and whether the policy converged regardless.
func printFaultSummary(out io.Writer, res *sim.Result) {
	var failed, failedBytes int64
	incomplete := 0
	for _, r := range res.Reports {
		failed += r.FailedPurges
		failedBytes += r.FailedBytes
		if r.Incomplete {
			incomplete++
		}
	}
	last := "n/a"
	if n := len(res.Reports); n > 0 {
		last = fmt.Sprintf("%v", res.Reports[n-1].TargetReached)
	}
	fmt.Fprintf(out, "%-14s faults: failed unlinks=%d (%.1f GB unreclaimed at the time), interrupted scans=%d/%d, final trigger reached target: %s\n",
		res.Policy, failed, float64(failedBytes)/1e9, incomplete, len(res.Reports), last)
}
