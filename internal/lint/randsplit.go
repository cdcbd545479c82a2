package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// RandSplitAnalyzer flags a *randx.Source captured by a goroutine
// literal or by a function literal handed to parallel.Pool without
// deriving a child stream via Split(). A SplitMix64 source is not
// safe for concurrent use, and even a data-race-free interleaving
// destroys replay determinism: the draw order depends on the
// scheduler. The accepted capture is src.Split() on the capture
// path — each worker owns an independent child stream.
var RandSplitAnalyzer = &Analyzer{
	Name: "rand-split-per-goroutine",
	Doc:  "no *randx.Source shared into goroutines or pool callbacks without Split()",
	Run:  runRandSplit,
}

// poolMethods are the parallel.Pool entry points that run their
// function arguments on other goroutines.
var poolMethods = map[string]bool{
	"RunShards": true, "TimedShards": true, "Run": true,
}

func runRandSplit(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkCapturedSources(pass, lit, "goroutine literal")
				}
				for _, arg := range n.Call.Args {
					forEachFuncLit(arg, func(lit *ast.FuncLit) {
						checkCapturedSources(pass, lit, "goroutine argument")
					})
				}
			case *ast.CallExpr:
				if !isPoolCall(pass, n) {
					return true
				}
				for _, arg := range n.Args {
					forEachFuncLit(arg, func(lit *ast.FuncLit) {
						checkCapturedSources(pass, lit, "parallel.Pool callback")
					})
				}
			}
			return true
		})
	}
}

// isPoolCall reports whether call invokes a concurrency method on
// *parallel.Pool (matched by type name so fixtures under testdata
// with their own path still resolve the real package).
func isPoolCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !poolMethods[sel.Sel.Name] {
		return false
	}
	return pathHasSuffix(elemTypeName(pass, sel.X), "internal/parallel.Pool")
}

// forEachFuncLit visits every function literal syntactically inside
// e (covering both a bare callback argument and literals inside a
// []func() error slice literal for Pool.Run).
func forEachFuncLit(e ast.Expr, fn func(*ast.FuncLit)) {
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			fn(lit)
			return false // a nested literal runs on the outer literal's goroutine
		}
		return true
	})
}

// checkCapturedSources reports uses, inside lit, of randx.Source
// variables declared outside it — unless the use is the receiver of
// a Split() call.
func checkCapturedSources(pass *Pass, lit *ast.FuncLit, where string) {
	// Receivers of .Split() are the sanctioned capture pattern.
	splitRecv := make(map[*ast.Ident]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Split" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			splitRecv[id] = true
		}
		return true
	})

	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || splitRecv[id] {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || reported[obj] {
			return true
		}
		if !isRandSource(obj.Type()) {
			return true
		}
		// Declared inside the literal (including its parameters)?
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		reported[obj] = true
		pass.Reportf(id.Pos(), "%s captures shared *randx.Source %q: derive a child stream with %s.Split() outside the goroutine", where, obj.Name(), obj.Name())
		return true
	})
}

// isRandSource reports whether t is randx.Source or *randx.Source.
func isRandSource(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Source" || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return pathHasSuffix(p, "internal/randx") || strings.HasSuffix(p, "/randx")
}
