package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineLeakAnalyzer flags fire-and-forget goroutines: a `go`
// statement whose goroutine publishes no join signal — no
// WaitGroup.Done, no channel close/send, nothing the spawning package
// ever waits on. Such goroutines outlive replay determinism windows
// and leak across daemon shutdown; the repo's contract is that all
// fan-out goes through internal/parallel (which owns its joins) or
// carries an explicit join edge.
//
// The check is structural, not a full happens-before proof:
//
//   - signal: in the spawned function — the literal's body, or the
//     callee's, and every function either calls outside a go
//     statement — a WaitGroup.Done, channel close, or channel send on
//     some object O.
//   - join: in the spawning package, or in O's own package, a Wait on
//     the same WaitGroup or a receive/range/select on the same channel
//     object.
//
// Both present → joined. Signal with no consumer, or no signal at
// all → finding. A callee outside the module, or reached through an
// interface or a function value, is assumed to own its lifecycle.
// internal/parallel is exempt (it is the join machinery), as is
// spawning through a parallel.Pool.
var GoroutineLeakAnalyzer = &Analyzer{
	Name: "goroutineleak",
	Doc:  "every go statement needs a join edge (WaitGroup, channel, or Pool)",
	Run:  runGoroutineLeak,
}

func runGoroutineLeak(pass *Pass) {
	if pathHasSuffix(pass.Path, "internal/parallel") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			signals, known := pass.prog.spawnSignals(pass, g)
			if !known {
				return true
			}
			if len(signals) == 0 {
				pass.Reportf(g.Pos(), "fire-and-forget goroutine: no join signal (WaitGroup.Done, channel close/send) in the spawned function")
				return true
			}
			for _, v := range signals {
				if pass.prog.waited(pass.Types, v) {
					return true
				}
			}
			pass.Reportf(g.Pos(), "goroutine signals %s but nothing in the package waits on it: add the join edge or drop the signal", signals[0].Name())
			return true
		})
	}
}

// collectJoinWaits gathers every object the package waits on:
// wg.Wait() receivers, receive/range sources, select comm channels.
func collectJoinWaits(pass *Pass) map[*types.Var]bool {
	waited := make(map[*types.Var]bool)
	add := func(v *types.Var) {
		if v != nil {
			waited[v] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && elemTypeName(pass, sel.X) == "sync.WaitGroup" {
					add(exprVar(pass, sel.X))
				}
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					add(exprVar(pass, n.X))
				}
			case *ast.RangeStmt:
				add(exprVar(pass, n.X))
			}
			return true
		})
	}
	return waited
}

// exprVar resolves an expression to the variable object it names: a
// plain identifier or a field selector. Other shapes return nil.
func exprVar(pass *Pass, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		v, _ := pass.Info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[e]; ok {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		v, _ := pass.Info.Uses[e.Sel].(*types.Var)
		return v
	case *ast.ParenExpr:
		return exprVar(pass, e.X)
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return exprVar(pass, e.X)
		}
	}
	return nil
}
