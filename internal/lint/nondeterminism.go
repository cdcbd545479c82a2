package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// deterministicPkgs are the packages whose outputs must be a pure
// function of their inputs: the replay emulator re-runs them against
// the same trace and expects bit-identical reports, checkpoints, and
// figure data (DESIGN.md §9). Matched by import-path suffix so the
// golden-test fixtures can reproduce the scoping.
var deterministicPkgs = []string{
	"internal/activeness",
	"internal/retention",
	"internal/vfs",
	"internal/sim",
	"internal/trace",
	"internal/synth",
	"internal/timeutil",
	"internal/faults",
	"internal/obs",
	"internal/wal",
	// Durable-file primitives sit under every checkpoint, WAL and
	// snapfile write; what they persist must be as replayable as the
	// replay.
	"internal/fsx",
	// The sweep orchestrator replays every figure's comparison through
	// the multiplexed runner; its tables and figure data must be as
	// bit-stable as the replays behind them.
	"internal/experiments",
	// Adapter, fit, and regeneration must give bit-identical datasets
	// for a given seed — the reconstruction-fidelity acceptance and the
	// streamed/materialized snapshot equivalence both depend on it.
	"internal/workload",
}

// nondetFuncs are the time package functions that read the wall
// clock or the process scheduler.
var nondetFuncs = map[string]string{
	"time.Now":   "reads the wall clock",
	"time.Since": "reads the wall clock",
	"time.Until": "reads the wall clock",
	"time.Sleep": "depends on the scheduler",
	"time.Tick":  "reads the wall clock",
	"time.After": "reads the wall clock",
}

// NondeterminismAnalyzer flags wall-clock reads, math/rand, and
// time.Time plumbing inside the deterministic replay packages.
// Timing probes belong behind internal/profiling; simulated time is
// timeutil.Time; randomness is an explicitly seeded randx.Source.
var NondeterminismAnalyzer = &Analyzer{
	Name: "nondeterminism",
	Doc:  "no wall clock, math/rand, or time.Time in deterministic replay packages",
	Run:  runNondeterminism,
}

func runNondeterminism(pass *Pass) {
	if !deterministicPackage(pass.Path) {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in deterministic package %s: use an explicitly seeded randx.Source", path, pass.Path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj, ok := pass.Info.Uses[n.Sel]
				if !ok {
					return true
				}
				if fn, ok := obj.(*types.Func); ok {
					if why, hit := nondetFuncs[fn.FullName()]; hit {
						pass.Reportf(n.Pos(), "%s %s in deterministic package %s: route timing through internal/profiling", fn.FullName(), why, pass.Path)
						return false
					}
				}
			}
			if expr, ok := n.(ast.Expr); ok {
				if tv, ok := pass.Info.Types[expr]; ok && tv.IsType() && typeString(tv.Type) == "time.Time" {
					// Only report the outermost type expression
					// (time.Time as a SelectorExpr), not the idents
					// inside it.
					if _, isSel := expr.(*ast.SelectorExpr); isSel {
						pass.Reportf(expr.Pos(), "time.Time in deterministic package %s: use timeutil.Time (Unix seconds) so replays are reproducible", pass.Path)
						return false
					}
				}
			}
			return true
		})
	}
}

func deterministicPackage(path string) bool {
	for _, p := range deterministicPkgs {
		if pathHasSuffix(path, p) {
			return true
		}
	}
	return false
}
