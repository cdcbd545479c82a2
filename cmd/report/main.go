// Command report regenerates the paper's tables and figures on the
// synthetic dataset (or a dataset directory) and writes the text
// renditions to stdout or a file.
//
// Usage:
//
//	report                 # all figures, built-in synthetic dataset
//	report -fig 6          # one figure
//	report -data ./data    # use a tracegen dataset
//	report -o results.txt  # write to a file
//	report -data ./real -fig workload  # real-trace reconstruction scenario
//	report -events e.jsonl # per-trigger summary of a telemetry stream
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"activedr/internal/experiments"
	"activedr/internal/trace"
)

// figNames are the renderable figure/table selectors; validate checks
// -fig against them before any dataset work starts.
var figNames = map[string]bool{
	"all": true, "t1": true, "1": true, "5": true, "6": true, "7": true,
	"8": true, "9": true, "10": true, "11": true, "12": true, "ablation": true,
	"workload": true,
}

// options carries every flag; validate fail-fasts on garbage before
// the (potentially minutes-long) dataset generation starts.
type options struct {
	data    string
	users   int
	seed    uint64
	fig     string
	out     string
	ranks   int
	lenient bool
	events  string
}

// parseFlags binds the flag set to an options struct and validates
// it. Errors come back to the caller (ContinueOnError) so tests can
// drive the flags without exiting the process.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var o options
	fs.StringVar(&o.data, "data", "", "dataset directory (empty = generate synthetic)")
	fs.IntVar(&o.users, "users", 2000, "synthetic user count (when -data is empty)")
	fs.Uint64Var(&o.seed, "seed", 0, "synthetic seed (when -data is empty)")
	fs.StringVar(&o.fig, "fig", "all", "figure/table to render: all, t1, 1, 5, 6, 7, 8, 9, 10, 11, 12, ablation, workload")
	fs.StringVar(&o.out, "o", "", "output file (empty = stdout)")
	fs.IntVar(&o.ranks, "ranks", 4, "parallel ranks for Figure 12's per-rank probes")
	fs.BoolVar(&o.lenient, "lenient", false, "quarantine malformed trace lines instead of aborting")
	fs.StringVar(&o.events, "events", "", "render a per-trigger summary of this telemetry stream (from simulate -events-out) instead of figures")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return &o, nil
}

func (o *options) validate() error {
	if !figNames[o.fig] {
		return fmt.Errorf("unknown -fig %q (want all, t1, 1, 5, 6, 7, 8, 9, 10, 11, 12, ablation, or workload)", o.fig)
	}
	if o.users < 1 {
		return fmt.Errorf("-users must be >= 1, got %d", o.users)
	}
	if o.ranks < 1 {
		return fmt.Errorf("-ranks must be >= 1, got %d", o.ranks)
	}
	if o.data != "" {
		if _, err := os.Stat(o.data); err != nil {
			return fmt.Errorf("-data: %w", err)
		}
	}
	if o.events != "" {
		if _, err := os.Stat(o.events); err != nil {
			return fmt.Errorf("-events: %w", err)
		}
	}
	// The output path fails fast on a missing parent directory rather
	// than after the figures have been computed.
	if o.out != "" {
		if _, err := os.Stat(filepath.Dir(o.out)); err != nil {
			return fmt.Errorf("-o: parent directory: %w", err)
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}

	var w io.Writer = os.Stdout
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	if o.events != "" {
		ef, err := os.Open(o.events)
		if err != nil {
			log.Fatal(err)
		}
		defer ef.Close()
		if err := renderEvents(ef, w); err != nil {
			log.Fatal(err)
		}
		return
	}

	var suite *experiments.Suite
	if o.data != "" {
		ds, rep, err := trace.LoadDatasetWith(o.data, trace.ReadOptions{Lenient: o.lenient})
		if err != nil {
			log.Fatal(err)
		}
		if !rep.Clean() {
			log.Printf("lenient load: %d malformed lines quarantined\n%s", rep.Errors(), rep.Summary())
		}
		suite = experiments.NewSuite(ds)
	} else {
		s, err := experiments.NewSyntheticSuite(o.users, o.seed)
		if err != nil {
			log.Fatal(err)
		}
		suite = s
	}

	if err := render(suite, o.fig, w, o.ranks); err != nil {
		log.Fatal(err)
	}
}

func render(s *experiments.Suite, fig string, w io.Writer, ranks int) error {
	switch fig {
	case "all":
		return s.RunAll(w, ranks)
	case "t1":
		s.Table1().Render(w)
	case "1":
		r, err := s.Figure1()
		if err != nil {
			return err
		}
		r.Render(w)
	case "5":
		r, err := s.Figure5()
		if err != nil {
			return err
		}
		r.Render(w)
	case "6":
		r, err := s.Figure6()
		if err != nil {
			return err
		}
		r.Render(w)
	case "7":
		r, err := s.Figure7()
		if err != nil {
			return err
		}
		r.Render(w)
	case "8":
		r, err := s.Figure8()
		if err != nil {
			return err
		}
		r.Render(w)
	case "9", "10", "11":
		sweep, err := s.RetentionSweep()
		if err != nil {
			return err
		}
		switch fig {
		case "9":
			sweep.Figure9(w)
		case "10":
			sweep.Figure10(w)
		case "11":
			sweep.Figure11(w)
		}
	case "12":
		r, err := s.Figure12(ranks)
		if err != nil {
			return err
		}
		r.Render(w)
	case "ablation":
		r, err := s.Ablation()
		if err != nil {
			return err
		}
		r.Render(w)
	case "workload":
		r, err := s.WorkloadScenario(experiments.WorkloadScenarioConfig{})
		if err != nil {
			return err
		}
		r.Render(w)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}
