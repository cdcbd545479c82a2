// Command tracegen generates a synthetic OLCF-like trace dataset —
// user list, job scheduler log, application (file access) log,
// publication list, and reference metadata snapshot — into a
// directory consumable by cmd/activedr and cmd/simulate.
//
// -preset spider streams a Spider II-scale namespace (a million
// users, over ten million files) directly into a binary snapfile in
// bounded memory, skipping the snapshot TSV entirely; cmd/simulate
// reopens it with -vfs-snapshot.
//
// -from-in2p3 adapts an IN2P3-style job accounting export (CSV/TSV,
// facility-local timestamps) into a dataset; -fit compresses the
// adapted trace into a reconstruction model, and -model/-scale
// regenerate a statistically faithful trace from such a model at a
// user-scale multiplier. With -vfs-snapshot-out, the scaled snapshot
// streams straight into a binary snapfile in bounded memory.
//
// Usage:
//
//	tracegen -out ./data -users 2000 -seed 42
//	tracegen -out ./data -preset spider
//	tracegen -out ./data -from-in2p3 jobs.csv -fit model.json
//	tracegen -out ./big -model model.json -scale 10 -vfs-snapshot-out big.snap
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"activedr/internal/synth"
	"activedr/internal/trace"
	"activedr/internal/vfs"
	"activedr/internal/workload"
)

// options carries tracegen's flags after validation.
type options struct {
	out      string
	users    int
	seed     uint64
	quiet    bool
	snapOut  string
	preset   string
	usersSet bool

	fromIN2P3 string
	zone      string
	lenient   bool
	fitOut    string
	model     string
	scale     int
}

// parseFlags binds the flag set to an options struct and validates
// it; errors come back to the caller so tests can table-drive
// rejection without exiting the process.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var o options
	fs.StringVar(&o.out, "out", "data", "output directory")
	fs.IntVar(&o.users, "users", 2000, "number of users")
	fs.Uint64Var(&o.seed, "seed", 0, "random seed (0 = built-in default)")
	fs.BoolVar(&o.quiet, "q", false, "suppress the summary")
	fs.StringVar(&o.snapOut, "vfs-snapshot-out", "", "also write the metadata snapshot as a binary snapfile to this path (cmd/simulate reopens it with -vfs-snapshot)")
	fs.StringVar(&o.preset, "preset", "", "scale preset; \"spider\" streams a Spider II-scale namespace (1M users, 10M+ files) straight into a snapfile, bounded memory, no snapshot TSV")
	fs.StringVar(&o.fromIN2P3, "from-in2p3", "", "adapt an IN2P3-style job accounting export (CSV/TSV, optionally .gz) into the output dataset")
	fs.StringVar(&o.zone, "in2p3-zone", workload.DefaultZone, "IANA time zone of the -from-in2p3 timestamps")
	fs.BoolVar(&o.lenient, "lenient", false, "with -from-in2p3, quarantine malformed records instead of failing")
	fs.StringVar(&o.fitOut, "fit", "", "with -from-in2p3, also fit the adapted trace and write the reconstruction model JSON here")
	fs.StringVar(&o.model, "model", "", "regenerate the output dataset from this reconstruction model JSON instead of synthesizing")
	fs.IntVar(&o.scale, "scale", 1, "with -model, clone each fitted user this many times")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "users" {
			o.usersSet = true
		}
	})
	if err := o.validate(); err != nil {
		return nil, err
	}
	return &o, nil
}

func (o *options) validate() error {
	if o.out == "" {
		return errors.New("-out must not be empty")
	}
	if o.users < 1 {
		return fmt.Errorf("-users must be >= 1, got %d", o.users)
	}
	if o.preset != "" && o.preset != "spider" {
		return fmt.Errorf("unknown -preset %q (only \"spider\")", o.preset)
	}
	sources := 0
	for _, set := range []bool{o.preset != "", o.fromIN2P3 != "", o.model != ""} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return errors.New("-preset, -from-in2p3, and -model are mutually exclusive")
	}
	if o.fitOut != "" && o.fromIN2P3 == "" {
		return errors.New("-fit requires -from-in2p3")
	}
	if o.scale != 1 && o.model == "" {
		return errors.New("-scale requires -model")
	}
	if o.scale < 1 {
		return fmt.Errorf("-scale must be >= 1, got %d", o.scale)
	}
	if o.lenient && o.fromIN2P3 == "" {
		return errors.New("-lenient requires -from-in2p3")
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
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

// runSpider is the streamed preset path: the user table and empty
// activity traces go out as a normal (tiny) dataset directory, while
// the 10M+-file namespace streams straight from the generator into a
// snapfile — no snapshot TSV, no in-memory materialization. Replay it
// with: simulate -data <out> -vfs-snapshot <out>/fs.snap.
func runSpider(o *options, out io.Writer) error {
	cfg := synth.SpiderStream(o.seed)
	if o.usersSet {
		cfg.Users = o.users
	}
	ds := &trace.Dataset{Users: cfg.StreamUsers()}
	ds.Snapshot.Taken = cfg.Taken
	if err := trace.WriteDataset(o.out, ds); err != nil {
		return err
	}
	snapPath := o.snapOut
	if snapPath == "" {
		snapPath = filepath.Join(o.out, "fs.snap")
	}
	w, err := vfs.NewSnapfileWriter(snapPath, cfg.Taken)
	if err != nil {
		return err
	}
	n, err := synth.StreamSnapshot(cfg, func(e trace.SnapshotEntry) error {
		return w.Add(e.Path, vfs.FileMeta{User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime})
	})
	if err != nil {
		_ = w.Abort()
		return err
	}
	if err := w.Finish(); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintf(out, "wrote %s: %d users; streamed %d snapshot files to snapfile %s\n",
			o.out, len(ds.Users), n, snapPath)
	}
	return nil
}

// runIN2P3 adapts a facility job-accounting export into a dataset and
// optionally fits the reconstruction model from it.
func runIN2P3(o *options, out io.Writer) error {
	ds, rep, err := workload.LoadIN2P3(o.fromIN2P3, workload.IN2P3Options{
		Zone: o.zone, Lenient: o.lenient, Seed: o.seed,
	})
	if err != nil {
		return err
	}
	if len(rep.Errors) > 0 && !o.quiet {
		fmt.Fprintf(out, "quarantined %d of %d records from %s (first: %s)\n",
			len(rep.Errors), rep.Lines, o.fromIN2P3, rep.Errors[0].Reason)
	}
	if err := trace.WriteDataset(o.out, ds); err != nil {
		return err
	}
	if o.snapOut != "" {
		if err := vfs.WriteSnapfileFromSnapshot(o.snapOut, &ds.Snapshot); err != nil {
			return err
		}
	}
	if o.fitOut != "" {
		m, err := workload.Fit(ds)
		if err != nil {
			return err
		}
		m.Source = o.fromIN2P3
		if err := workload.SaveModel(o.fitOut, m); err != nil {
			return err
		}
		if !o.quiet {
			fmt.Fprintf(out, "fitted %d-user model to %s\n", len(m.Users), o.fitOut)
		}
	}
	if !o.quiet {
		fmt.Fprintf(out, "wrote %s: %d users, %d jobs, %d accesses, %d snapshot files (%.2f GB)\n",
			o.out, len(ds.Users), len(ds.Jobs), len(ds.Accesses),
			len(ds.Snapshot.Entries), float64(ds.Snapshot.TotalBytes())/1e9)
	}
	return nil
}

// runModel regenerates a trace from a fitted reconstruction model.
// With -vfs-snapshot-out the snapshot skips the dataset entirely and
// streams into a snapfile — the bounded-memory path for big -scale
// runs; cmd/simulate reopens it with -vfs-snapshot.
func runModel(o *options, out io.Writer) error {
	m, err := workload.LoadModel(o.model)
	if err != nil {
		return err
	}
	cfg := workload.RegenConfig{Scale: o.scale, Seed: o.seed, SkipSnapshot: o.snapOut != ""}
	ds, err := workload.Regen(m, cfg)
	if err != nil {
		return err
	}
	if err := trace.WriteDataset(o.out, ds); err != nil {
		return err
	}
	streamed := 0
	if o.snapOut != "" {
		w, err := vfs.NewSnapfileWriter(o.snapOut, m.Taken)
		if err != nil {
			return err
		}
		streamed, err = workload.StreamSnapshot(m, cfg, func(e trace.SnapshotEntry) error {
			return w.Add(e.Path, vfs.FileMeta{User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime})
		})
		if err != nil {
			_ = w.Abort()
			return err
		}
		if err := w.Finish(); err != nil {
			return err
		}
	}
	if !o.quiet {
		fmt.Fprintf(out, "regenerated %s at %dx: %d users, %d jobs, %d accesses",
			o.out, o.scale, len(ds.Users), len(ds.Jobs), len(ds.Accesses))
		if o.snapOut != "" {
			fmt.Fprintf(out, "; streamed %d snapshot files to snapfile %s", streamed, o.snapOut)
		} else {
			fmt.Fprintf(out, ", %d snapshot files (%.2f GB)",
				len(ds.Snapshot.Entries), float64(ds.Snapshot.TotalBytes())/1e9)
		}
		fmt.Fprintln(out)
	}
	return nil
}

func run(o *options, out io.Writer) error {
	if o.preset == "spider" {
		return runSpider(o, out)
	}
	if o.fromIN2P3 != "" {
		return runIN2P3(o, out)
	}
	if o.model != "" {
		return runModel(o, out)
	}
	ds, err := synth.Generate(synth.Config{Seed: o.seed, Users: o.users})
	if err != nil {
		return err
	}
	if err := trace.WriteDataset(o.out, ds); err != nil {
		return err
	}
	if o.snapOut != "" {
		if err := vfs.WriteSnapfileFromSnapshot(o.snapOut, &ds.Snapshot); err != nil {
			return err
		}
		if !o.quiet {
			fmt.Fprintf(out, "wrote snapfile %s\n", o.snapOut)
		}
	}
	if !o.quiet {
		fmt.Fprintf(out,
			"wrote %s: %d users, %d jobs, %d accesses, %d publications, %d snapshot files (%.2f TB)\n",
			o.out, len(ds.Users), len(ds.Jobs), len(ds.Accesses), len(ds.Publications),
			len(ds.Snapshot.Entries), float64(ds.Snapshot.TotalBytes())/1e12)
	}
	return nil
}
