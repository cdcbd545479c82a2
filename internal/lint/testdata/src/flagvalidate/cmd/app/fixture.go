// Package main is the flagvalidate fixture: a cmd-shaped package with
// validated, unvalidated, and exempt flag registrations.
package main

import (
	"errors"
	"flag"
	"time"
)

type options struct {
	interval time.Duration
	target   float64
	dataPath string
	workers  int
	label    string
}

var verbose = flag.Bool("v", false, "verbose output")

var seed = flag.Uint64("seed", 1, "rng seed")

func parseFlags(o *options) {
	flag.DurationVar(&o.interval, "interval", time.Hour, "scan interval")
	flag.Float64Var(&o.target, "target", 0.8, "usage target")
	flag.StringVar(&o.dataPath, "data", "", "trace path") // want "flag -data .* never referenced from the validation path"
	flag.IntVar(&o.workers, "workers", 4, "worker count") // want "flag -workers .* never referenced from the validation path"
	name := flag.String("name", "", "run label")          // want "flag -name .* never referenced from the validation path"
	_ = name
	flag.Parse()
}

// parseSet registers on a FlagSet, as the repo's binaries do: its
// registrations are checked like the package-level ones, and other
// flag methods (Value.String) are not registrations.
func parseSet(o *options, args []string) error {
	fs := flag.NewFlagSet("app", flag.ContinueOnError)
	fs.DurationVar(&o.interval, "every", time.Hour, "scan interval")
	fs.StringVar(&o.label, "label", "", "run label") // want "flag -label .* never referenced from the validation path"
	if err := fs.Parse(args); err != nil {
		return err
	}
	_ = fs.Lookup("label").Value.String()
	return o.validate()
}

func (o *options) validate() error {
	if o.interval <= 0 {
		return errors.New("interval must be positive")
	}
	return checkTarget(o)
}

// checkTarget is reached from validate: flags referenced here count
// as validated through the closure expansion.
func checkTarget(o *options) error {
	if o.target <= 0 || o.target > 1 {
		return errors.New("target must be in (0,1]")
	}
	return nil
}

func main() {
	var o options
	parseFlags(&o)
	if err := parseSet(&o, nil); err != nil {
		panic(err)
	}
	if err := o.validate(); err != nil {
		panic(err)
	}
	_ = *verbose
	_ = *seed
}
