package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FlagValidateAnalyzer enforces the PR-5 fail-fast contract in cmd/
// packages: every registered flag whose value can be garbage must be
// reachable from the package's validation path. A flag nobody
// validates is a flag that silently accepts nonsense — the simulator
// once ran whole sweeps with a mistyped -interval because parsing
// succeeded and nothing range-checked it.
//
// Mechanics: a registration (flag.String, flag.IntVar, ..., or the
// same method on a *flag.FlagSet) binds a target variable — the
// returned pointer's variable or the *Var pointee, including an
// options-struct field. The validation path is every function of the
// package whose name contains "validate", and every function the call
// graph reaches from them through the functions they name (calls,
// method values and function values alike). The target must be
// referenced somewhere on that path.
//
// Exempt kinds, where parse success already implies a usable value:
//
//   - Bool/BoolVar — both parsed values are valid.
//   - Uint64/Uint64Var — full-range seeds; no garbage subrange.
//   - Var/TextVar/Func — the custom Set/UnmarshalText rejects garbage
//     at parse time.
var FlagValidateAnalyzer = &Analyzer{
	Name: "flagvalidate",
	Doc:  "cmd flags must be reachable from the package's validation path",
	Run:  runFlagValidate,
}

// flagRegFuncs maps flag.* registration functions (and the FlagSet
// methods of the same names) to the argument index of the bound
// pointer (-1 = the call's result is the pointer).
var flagRegFuncs = map[string]int{
	"String": -1, "Int": -1, "Int64": -1, "Uint": -1,
	"Float64": -1, "Duration": -1,
	"StringVar": 0, "IntVar": 0, "Int64Var": 0, "UintVar": 0,
	"Float64Var": 0, "DurationVar": 0,
}

func runFlagValidate(pass *Pass) {
	if !hasPathSegment(pass.Path, "cmd") {
		return
	}
	validated, hasPath := validatedVars(pass)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isFlagRegistration(pass, sel) {
				return true
			}
			argIdx := flagRegFuncs[sel.Sel.Name]
			target, flagName := registrationTarget(pass, call, argIdx)
			if flagName == "" {
				flagName = "?"
			}
			if target == nil {
				// Result dropped or bound to something we cannot
				// name: unreachable by definition.
				pass.Reportf(call.Pos(), "flag -%s (%s) is bound to no nameable variable, so no validation path can reach it", flagName, sel.Sel.Name)
				return true
			}
			if !hasPath {
				pass.Reportf(call.Pos(), "flag -%s registered but package has no validation function (PR-5 fail-fast contract)", flagName)
				return true
			}
			if !validated[target] {
				pass.Reportf(call.Pos(), "flag -%s (%s) is never referenced from the validation path", flagName, target.Name())
			}
			return true
		})
	}
}

// isFlagRegistration reports whether sel resolves to a registration
// in flagRegFuncs: a flag package function, or the same-named method
// of a *flag.FlagSet.
func isFlagRegistration(pass *Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
		return false
	}
	if _, ok := flagRegFuncs[fn.Name()]; !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv == nil || types.TypeString(recv.Type(), nil) == "*flag.FlagSet"
}

// validatedVars returns the variables the package's validation path
// references; hasPath is false when the package has no validation
// function.
func validatedVars(pass *Pass) (validated map[*types.Var]bool, hasPath bool) {
	seen := make(map[*funcNode]bool)
	var queue []*funcNode
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !strings.Contains(strings.ToLower(fd.Name.Name), "validate") {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if n := pass.prog.funcs[fn]; n != nil && !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	validated = make(map[*types.Var]bool)
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		ast.Inspect(n.decl.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v, ok := n.pass.Info.Uses[id].(*types.Var); ok {
					validated[v] = true
				}
			}
			return true
		})
		for _, c := range n.refs {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return validated, len(queue) > 0
}

// registrationTarget resolves the variable a flag registration binds
// and the flag's name string. argIdx -1 means the call result is the
// pointer (v := flag.String(...)); otherwise args[argIdx] is &target.
func registrationTarget(pass *Pass, call *ast.CallExpr, argIdx int) (*types.Var, string) {
	nameIdx := 0
	if argIdx >= 0 {
		nameIdx = 1
	}
	flagName := ""
	if len(call.Args) > nameIdx {
		if lit, ok := call.Args[nameIdx].(*ast.BasicLit); ok {
			flagName = strings.Trim(lit.Value, `"`)
		}
	}
	if argIdx >= 0 {
		if len(call.Args) <= argIdx {
			return nil, flagName
		}
		return exprVar(pass, call.Args[argIdx]), flagName
	}
	// Result form: find the enclosing assignment/value spec.
	if v := resultBinding(pass, call); v != nil {
		return v, flagName
	}
	return nil, flagName
}

// resultBinding finds the variable that captures call's result by
// scanning the file for `x := call` / `var x = call` shapes.
func resultBinding(pass *Pass, call *ast.CallExpr) *types.Var {
	for _, f := range pass.Files {
		if call.Pos() < f.Pos() || call.End() > f.End() {
			continue
		}
		var found *types.Var
		ast.Inspect(f, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if rhs == call && i < len(n.Lhs) {
						found = lhsVar(pass, n.Lhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, rhs := range n.Values {
					if rhs == call && i < len(n.Names) {
						found, _ = pass.Info.Defs[n.Names[i]].(*types.Var)
					}
				}
			}
			return true
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// hasPathSegment reports whether one of path's slash-separated
// segments equals seg (so "cmd" matches x/cmd/y but not x/cmdutil).
func hasPathSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// lhsVar resolves an assignment LHS to its variable object.
func lhsVar(pass *Pass, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := pass.Info.Defs[e].(*types.Var); ok {
			return v
		}
		v, _ := pass.Info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		return exprVar(pass, e)
	}
	return nil
}
