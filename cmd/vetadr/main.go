// Command vetadr runs the repository's custom static-analysis suite
// (internal/lint) over the given package patterns and fails on any
// finding. It mechanically enforces the invariants replayable
// emulation depends on; see DESIGN.md §9 and §14 for the rule
// catalogue and the //lint:allow escape hatch.
//
// Usage:
//
//	vetadr [-json|-sarif] [-rules nondeterminism,maporder,...] [patterns]
//	vetadr -list [-json]
//
// Patterns default to ./... resolved against the enclosing module.
// A //lint:allow directive with no rule, no reason or an unknown rule,
// or one that suppresses no finding of a rule that ran, is a finding
// itself. Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"activedr/internal/lint"
)

// options carries every flag; validate fail-fasts before any package
// loading starts.
type options struct {
	jsonOut  bool
	sarifOut bool
	rules    string
	list     bool
}

func parseFlags() *options {
	o := &options{}
	flag.BoolVar(&o.jsonOut, "json", false, "emit findings (or -list rules) as a JSON array on stdout")
	flag.BoolVar(&o.sarifOut, "sarif", false, "emit findings as SARIF 2.1.0 on stdout (for CI annotation)")
	flag.StringVar(&o.rules, "rules", "", "comma-separated rule subset (default: all)")
	flag.BoolVar(&o.list, "list", false, "list available rules and exit")
	flag.Parse()
	return o
}

func (o *options) validate() error {
	if o.rules != "" {
		known := make(map[string]bool)
		for _, n := range lint.AnalyzerNames() {
			known[n] = true
		}
		for _, r := range strings.Split(o.rules, ",") {
			if !known[strings.TrimSpace(r)] {
				return fmt.Errorf("unknown rule %q in -rules (try -list)", strings.TrimSpace(r))
			}
		}
	}
	if o.jsonOut && o.sarifOut {
		return fmt.Errorf("-json and -sarif are mutually exclusive")
	}
	return nil
}

func main() {
	o := parseFlags()
	if err := o.validate(); err != nil {
		fatalf("%v", err)
	}

	analyzers := lint.Analyzers()
	if o.list {
		if o.jsonOut {
			type rule struct {
				Name string `json:"name"`
				Doc  string `json:"doc"`
			}
			var rs []rule
			for _, a := range analyzers {
				rs = append(rs, rule{a.Name, a.Doc})
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rs); err != nil {
				fatalf("%v", err)
			}
			return
		}
		for _, a := range analyzers {
			fmt.Printf("%-26s %s\n", a.Name, a.Doc)
		}
		return
	}
	if o.rules != "" {
		want := make(map[string]bool)
		for _, r := range strings.Split(o.rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var picked []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				picked = append(picked, a)
			}
		}
		analyzers = picked
	}

	loader, err := lint.NewLoader("")
	if err != nil {
		fatalf("%v", err)
	}
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fatalf("%v", err)
	}

	var findings []lint.Diagnostic
	for _, pkg := range pkgs {
		findings = append(findings, lint.Check(pkg, analyzers)...)
	}

	switch {
	case o.sarifOut:
		if err := writeSARIF(os.Stdout, analyzers, findings, loader.ModuleRoot); err != nil {
			fatalf("%v", err)
		}
	case o.jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Diagnostic{}
		}
		if err := enc.Encode(findings); err != nil {
			fatalf("%v", err)
		}
	default:
		for _, d := range findings {
			fmt.Println(d)
		}
	}
	if len(findings) > 0 {
		if !o.jsonOut && !o.sarifOut {
			fmt.Fprintf(os.Stderr, "vetadr: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vetadr: "+format+"\n", args...)
	os.Exit(2)
}
