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
	"flag"
	"fmt"
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

func parseFlags() *options {
	o := &options{}
	flag.StringVar(&o.data, "data", "data", "dataset directory (from tracegen)")
	flag.StringVar(&o.policy, "policy", "activedr", "policy: activedr or flt")
	flag.IntVar(&o.lifetime, "lifetime", 90, "initial file lifetime in days")
	flag.Float64Var(&o.target, "target", 0.5, "purge target utilization (0 disables)")
	flag.StringVar(&o.atStr, "at", "2016-08-23", "purge trigger date (YYYY-MM-DD)")
	flag.StringVar(&o.reserve, "reserve", "", "optional file with reserved paths, one per line")
	flag.BoolVar(&o.strict, "strict-eq7", false, "use the literal Eq. (7) lifetime product")
	flag.StringVar(&o.explain, "explain", "", "print the activeness audit of one user (login name) and exit")
	flag.BoolVar(&o.dryRun, "dry-run", false, "plan the purge without applying it and list the victims")
	flag.Parse()
	return o
}

func (o *options) validate() error {
	if o.data == "" {
		return fmt.Errorf("-data must name a dataset directory")
	}
	switch strings.ToLower(o.policy) {
	case "flt", "activedr":
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
	o := parseFlags()
	if err := o.validate(); err != nil {
		log.Fatal(err)
	}
	at, err := time.Parse("2006-01-02", o.atStr)
	if err != nil {
		log.Fatalf("bad -at date: %v", err)
	}
	tc := timeutil.FromGo(at)

	ds, err := trace.LoadDataset(o.data)
	if err != nil {
		log.Fatal(err)
	}
	fsys, err := vfs.FromSnapshot(&ds.Snapshot)
	if err != nil {
		log.Fatal(err)
	}
	var reserved *vfs.ReservedSet
	if o.reserve != "" {
		reserved, err = loadReserved(o.reserve)
		if err != nil {
			log.Fatal(err)
		}
	}

	ev := sim.NewEvaluator(ds, sim.Config{PeriodLength: timeutil.Days(o.lifetime)})
	if o.explain != "" {
		uid := ds.UserByName(o.explain)
		if uid == trace.NoUser {
			log.Fatalf("unknown user %q", o.explain)
		}
		fmt.Print(ev.Explain(uid, tc))
		return
	}
	ranks := ev.EvaluateAll(len(ds.Users), tc)

	var p retention.Policy
	switch strings.ToLower(o.policy) {
	case "flt":
		p = &retention.FLT{Lifetime: timeutil.Days(o.lifetime), Reserved: reserved}
	case "activedr":
		adr, err := retention.NewActiveDR(retention.Config{
			Lifetime:          timeutil.Days(o.lifetime),
			Capacity:          fsys.TotalBytes(),
			TargetUtilization: o.target,
			Reserved:          reserved,
			StrictEq7:         o.strict,
		})
		if err != nil {
			log.Fatal(err)
		}
		p = adr
	default:
		log.Fatalf("unknown policy %q (want flt or activedr)", o.policy)
	}

	var rep *retention.Report
	if o.dryRun {
		rep = retention.Plan(p, fsys, ranks, tc)
		fmt.Printf("DRY RUN — nothing was purged; %d victims:\n", len(rep.Victims))
		for i, v := range rep.Victims {
			if i == 20 {
				fmt.Printf("  … %d more\n", len(rep.Victims)-20)
				break
			}
			fmt.Printf("  %s\n", v)
		}
	} else {
		rep = p.Purge(fsys, ranks, tc)
	}
	fmt.Println(rep)
	fmt.Printf("target: %.2f GB, reached: %v, retro passes: %d, exempt skipped: %d\n",
		float64(rep.TargetBytes)/1e9, rep.TargetReached, rep.RetroPasses, rep.SkippedExempt)
	for _, g := range activeness.Groups() {
		gs := rep.Groups[g]
		fmt.Printf("%-22s users=%5d purged %7d files / %9.2f GB (retained %9.2f GB), affected users=%d\n",
			g, gs.Users, gs.PurgedFiles, float64(gs.PurgedBytes)/1e9,
			float64(gs.RetainedBytes())/1e9, gs.AffectedUsers)
	}
}

func loadReserved(path string) (*vfs.ReservedSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := vfs.NewReservedSet()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rs.Add(line)
	}
	return rs, sc.Err()
}
