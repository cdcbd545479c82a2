// Command activedr runs a single data-retention (purge) pass over a
// dataset's metadata snapshot and prints the per-group report — the
// operation a facility cron job would perform.
//
// Usage:
//
//	activedr -data ./data -policy activedr -lifetime 90 -target 0.5 \
//	         -at 2016-08-23 [-reserve reserved.txt]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"activedr/internal/activeness"
	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// options carries every flag; validate fail-fasts on garbage before
// any dataset I/O starts (the PR-5 contract).
type options struct {
	data     string
	policy   string
	lifetime int
	target   float64
	atStr    string
	reserve  string
	strict   bool
	explain  string
	dryRun   bool
}

// parseFlags binds the flag set to an options struct and validates
// it. Errors come back to the caller (ContinueOnError) so tests can
// drive the command without exiting the process.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("activedr", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var o options
	fs.StringVar(&o.data, "data", "data", "dataset directory (from tracegen)")
	fs.StringVar(&o.policy, "policy", sim.PolicyActiveDR, "policy: activedr or flt")
	fs.IntVar(&o.lifetime, "lifetime", 90, "initial file lifetime in days")
	fs.Float64Var(&o.target, "target", 0.5, "purge target utilization (0 disables)")
	fs.StringVar(&o.atStr, "at", "2016-08-23", "purge trigger date (YYYY-MM-DD)")
	fs.StringVar(&o.reserve, "reserve", "", "optional file with reserved paths, one per line")
	fs.BoolVar(&o.strict, "strict-eq7", false, "use the literal Eq. (7) lifetime product")
	fs.StringVar(&o.explain, "explain", "", "print the activeness audit of one user (login name) and exit")
	fs.BoolVar(&o.dryRun, "dry-run", false, "plan the purge without applying it and list the victims")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return &o, nil
}

func (o *options) validate() error {
	if o.data == "" {
		return fmt.Errorf("-data must name a dataset directory")
	}
	switch strings.ToLower(o.policy) {
	case sim.PolicyFLT, sim.PolicyActiveDR:
	default:
		return fmt.Errorf("unknown -policy %q (want flt or activedr)", o.policy)
	}
	if o.lifetime < 1 {
		return fmt.Errorf("-lifetime must be >= 1 day, got %d", o.lifetime)
	}
	if !(o.target >= 0 && o.target <= 1) {
		return fmt.Errorf("-target must be in [0,1], got %v", o.target)
	}
	if _, err := time.Parse("2006-01-02", o.atStr); err != nil {
		return fmt.Errorf("bad -at date: %w", err)
	}
	if o.reserve != "" {
		if _, err := os.Stat(o.reserve); err != nil {
			return fmt.Errorf("-reserve: %w", err)
		}
	}
	if o.explain != "" && o.dryRun {
		return fmt.Errorf("-explain and -dry-run are mutually exclusive: -explain prints the audit and exits before any purge is planned")
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("activedr: ")
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

// run performs the one purge pass with the policy the emulator builds
// for the same configuration, so a cron-job pass and a replay's
// trigger decide alike (the lifetime floor included).
func run(o *options, out io.Writer) error {
	at, err := time.Parse("2006-01-02", o.atStr)
	if err != nil {
		return fmt.Errorf("bad -at date: %w", err)
	}
	tc := timeutil.FromGo(at)

	ds, err := trace.LoadDataset(o.data)
	if err != nil {
		return err
	}
	fsys, err := vfs.FromSnapshot(&ds.Snapshot)
	if err != nil {
		return err
	}
	var reserved *vfs.ReservedSet
	if o.reserve != "" {
		reserved, err = loadReserved(o.reserve)
		if err != nil {
			return err
		}
	}
	// One pass, so the policy purges the emulator's base namespace itself.
	em, err := sim.NewWithBase(ds, fsys, sim.Config{
		Lifetime:          timeutil.Days(o.lifetime),
		TargetUtilization: o.target,
		Reserved:          reserved,
		StrictEq7:         o.strict,
	})
	if err != nil {
		return err
	}
	ev := em.Evaluator()
	if o.explain != "" {
		uid := ds.UserByName(o.explain)
		if uid == trace.NoUser {
			return fmt.Errorf("unknown user %q", o.explain)
		}
		fmt.Fprint(out, ev.Explain(uid, tc))
		return nil
	}
	ranks := ev.EvaluateAll(len(ds.Users), tc)
	p, err := em.NewPolicy(strings.ToLower(o.policy))
	if err != nil {
		return err
	}

	var rep *retention.Report
	if o.dryRun {
		rep = retention.Plan(p, fsys, ranks, tc)
		fmt.Fprintf(out, "DRY RUN — nothing was purged; %d victims:\n", len(rep.Victims))
		for i, v := range rep.Victims {
			if i == 20 {
				fmt.Fprintf(out, "  … %d more\n", len(rep.Victims)-20)
				break
			}
			fmt.Fprintf(out, "  %s\n", v)
		}
	} else {
		rep = p.Purge(fsys, ranks, tc)
	}
	fmt.Fprintln(out, rep)
	fmt.Fprintf(out, "target: %.2f GB, reached: %v, retro passes: %d, exempt skipped: %d\n",
		float64(rep.TargetBytes)/1e9, rep.TargetReached, rep.RetroPasses, rep.SkippedExempt)
	for _, g := range activeness.Groups() {
		gs := rep.Groups[g]
		fmt.Fprintf(out, "%-22s users=%5d purged %7d files / %9.2f GB (retained %9.2f GB), affected users=%d\n",
			g, gs.Users, gs.PurgedFiles, float64(gs.PurgedBytes)/1e9,
			float64(gs.RetainedBytes())/1e9, gs.AffectedUsers)
	}
	return nil
}

// loadReserved reads a -reserve file: one absolute path per line,
// trimmed, with blank lines and '#' comments skipped. A relative entry
// fails the load, naming the file and line: no file-system path could
// match it, so it would reserve nothing.
func loadReserved(path string) (*vfs.ReservedSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := vfs.NewReservedSet()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "/") {
			return nil, fmt.Errorf("%s line %d: reserved path %q is not absolute", path, n, line)
		}
		rs.Add(line)
	}
	return rs, sc.Err()
}
