package lint

// The module call graph and the per-function summaries the rules that
// ask what a callee does read: lockflow (may it block?), fsyncorder
// (does it sync, may it return with writes unsynced?), goroutineleak
// (which join objects does it signal?) and flagvalidate (what does the
// validation path reach?). See DESIGN.md §14.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// program is the call graph over every package one Loader
// type-checked. A node is a declared function or method with a body,
// keyed by its generic origin; its calls are the static calls its body
// makes. Calls through interfaces and function values are opaque, and
// so is every function outside the module beyond the leaf operations
// the rules name. The body of a function literal counts toward the
// function it is written in, except under a go statement: the spawned
// call runs on another goroutine and counts toward no summary of the
// spawner.
type program struct {
	funcs map[*types.Func]*funcNode
	// waits holds, per package, the join objects its code waits on:
	// WaitGroup.Wait receivers, received-from and ranged-over channels.
	waits map[*types.Package]map[*types.Var]bool
}

// funcNode is one function and its summary: what calling it may do.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pass *Pass // the declaring package, read-only
	// refs are the program's functions the declaration names: calls,
	// method values and function values alike.
	refs []*funcNode
	// bodyFacts start as what the body does itself; newProgram then
	// folds its callees' syncs and signals in.
	bodyFacts
	// depth counts the calls from here to the nearest blocking
	// operation: 0 when the body blocks itself (why says how), -1 when
	// no path blocks. via is the callee one call nearer.
	depth int
	via   *funcNode
	// judged is set once unsynced is, or while it is being computed.
	judged, unsynced bool
}

// bodyFacts is what one body does outside its go statements.
type bodyFacts struct {
	why     string              // the first blocking leaf operation, "" for none
	syncs   bool                // it may fsync
	signals map[*types.Var]bool // the WaitGroups and channels it may signal
	calls   []*funcNode         // its static calls into the program, in source order
}

// newProgram builds the graph over pkgs, which come in type-check
// order (every package after its imports), and computes every
// summary.
func newProgram(pkgs []*Package) *program {
	p := &program{funcs: make(map[*types.Func]*funcNode), waits: make(map[*types.Package]map[*types.Var]bool)}
	var order []*funcNode
	for _, pkg := range pkgs {
		pass := &Pass{Package: pkg}
		p.waits[pkg.Types] = collectJoinWaits(pass)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					n := &funcNode{fn: fn, decl: fd, pass: pass, depth: -1}
					p.funcs[fn] = n
					order = append(order, n)
				}
			}
		}
	}
	// No depth is set yet, so scan sees blocking leaf operations only.
	for _, n := range order {
		n.refs = p.refsIn(n.pass, n.decl)
		n.bodyFacts = p.scan(n.pass, n.decl.Body)
	}
	for _, n := range order {
		if n.why != "" {
			n.depth = 0
		}
	}
	// Round d finds the functions that call one of depth d-1; via is
	// the first such call in source order. Every chain is a shortest
	// one, and the same whatever else was loaded.
	for d := 1; ; d++ {
		var found []*funcNode
		for _, n := range order {
			if n.depth >= 0 {
				continue
			}
			for _, c := range n.calls {
				if c.depth >= 0 {
					n.via = c
					found = append(found, n)
					break
				}
			}
		}
		if len(found) == 0 {
			break
		}
		for _, n := range found {
			n.depth = d
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			for _, c := range n.calls {
				if c.syncs && !n.syncs {
					n.syncs, changed = true, true
				}
				for v := range c.signals {
					if !n.signals[v] {
						n.signals = addVar(n.signals, v)
						changed = true
					}
				}
			}
		}
	}
	// Judged in import order, so the function a recursion is entered
	// at, and with it the result, does not depend on what else was
	// loaded.
	for _, n := range order {
		p.isUnsynced(n)
	}
	return p
}

// refsIn lists the program's functions that n names, in source order.
func (p *program) refsIn(pass *Pass, n ast.Node) []*funcNode {
	var out []*funcNode
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if fn, ok := pass.Info.Uses[id].(*types.Func); ok && p.funcs[fn.Origin()] != nil {
				out = append(out, p.funcs[fn.Origin()])
			}
		}
		return true
	})
	return out
}

// scan records what body does outside its go statements: its first
// blocking operation, whether it fsyncs, the join objects it signals
// (wg.Done(), close(ch), ch <- v) and the program functions it calls.
func (p *program) scan(pass *Pass, body *ast.BlockStmt) bodyFacts {
	f := bodyFacts{why: p.blockingIn(pass, body, nonBlockingOps(body))}
	ast.Inspect(body, func(n ast.Node) bool {
		var signal ast.Expr
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			signal = n.Chan
		case *ast.CallExpr:
			if c := p.callee(pass, n); c != nil {
				f.calls = append(f.calls, c)
			}
			f.syncs = f.syncs || isFsync(pass, n)
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				signal = n.Args[0]
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && elemTypeName(pass, sel.X) == "sync.WaitGroup" {
				signal = sel.X
			}
		}
		if v := exprVar(pass, signal); v != nil {
			f.signals = addVar(f.signals, v)
		}
		return true
	})
	return f
}

func addVar(set map[*types.Var]bool, v *types.Var) map[*types.Var]bool {
	if set == nil {
		set = make(map[*types.Var]bool)
	}
	set[v] = true
	return set
}

// callee resolves a static call to its node: nil for builtins,
// conversions, calls through interfaces and function values, and
// functions outside the program.
func (p *program) callee(pass *Pass, call *ast.CallExpr) *funcNode {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // an explicit instantiation, f[T](x)
		fun = ix.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return p.funcs[fn.Origin()]
}

// blockingIn says why running n may block: its first blocking
// operation in source order, outside its go statements, or "" when
// none can. As a CFG node a range statement stands for its header, so
// only its range expression is searched: the statements of its body
// are nodes of their own.
func (p *program) blockingIn(pass *Pass, n ast.Node, nonBlocking map[ast.Node]bool) string {
	if r, ok := n.(*ast.RangeStmt); ok {
		if why := p.blockingOp(pass, r, nonBlocking); why != "" {
			return why
		}
		n = r.X
	}
	why := ""
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.GoStmt); ok || why != "" {
			return false
		}
		why = p.blockingOp(pass, m, nonBlocking)
		return why == ""
	})
	return why
}

// blockingOp says why the single node n may block, without looking
// inside it: a channel operation (unless nonBlocking holds it), a
// blocking leaf call, or a call to a function that may block, named
// with the call chain to its blocking operation.
func (p *program) blockingOp(pass *Pass, n ast.Node, nonBlocking map[ast.Node]bool) string {
	if nonBlocking[n] {
		return ""
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		return "a channel send"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "a channel receive"
		}
	case *ast.RangeStmt:
		if tv, ok := pass.Info.Types[n.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "a range over a channel"
			}
		}
	case *ast.CallExpr:
		if why := blockingCall(pass, n); why != "" {
			return why
		}
		if c := p.callee(pass, n); c != nil && c.depth >= 0 {
			return c.chain()
		}
	}
	return ""
}

// chain renders why calling n may block: the calls down to the
// nearest blocking operation, then the operation.
func (n *funcNode) chain() string {
	var b strings.Builder
	for ; n.depth > 0; n = n.via {
		b.WriteString(shortName(n.fn) + " → ")
	}
	return b.String() + shortName(n.fn) + " → " + n.why
}

// shortName names fn as pkg.Func or pkg.Type.Method.
func shortName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Name() + "." + name
}

// nonBlockingOps collects the channel operations of selects with a
// default clause: those cannot block.
func nonBlockingOps(body ast.Node) map[ast.Node]bool {
	ops := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cc := range sel.Body.List {
			hasDefault = hasDefault || cc.(*ast.CommClause).Comm == nil
		}
		if !hasDefault {
			return true
		}
		for _, cc := range sel.Body.List {
			switch c := cc.(*ast.CommClause).Comm.(type) {
			case *ast.SendStmt:
				ops[c] = true
			case *ast.ExprStmt:
				ops[ast.Unparen(c.X)] = true
			case *ast.AssignStmt:
				ops[ast.Unparen(c.Rhs[0])] = true
			}
		}
		return true
	})
	return ops
}

// spawnSignals returns the join objects the goroutine g starts may
// signal, sorted by name. known is false when its callee is opaque:
// outside the program, or reached through an interface or a function
// value.
func (p *program) spawnSignals(pass *Pass, g *ast.GoStmt) (signals []*types.Var, known bool) {
	var set map[*types.Var]bool
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		f := p.scan(pass, lit.Body)
		set = f.signals
		for _, c := range f.calls {
			for v := range c.signals {
				set = addVar(set, v)
			}
		}
	} else if c := p.callee(pass, g.Call); c != nil {
		set = c.signals
	} else {
		return nil, false
	}
	for v := range set {
		signals = append(signals, v)
	}
	sort.Slice(signals, func(i, j int) bool { return signals[i].Name() < signals[j].Name() })
	return signals, true
}

// waited reports whether code in pkg, or in v's own package, waits on
// v: either is loaded whatever the patterns were.
func (p *program) waited(pkg *types.Package, v *types.Var) bool {
	return p.waits[pkg][v] || p.waits[v.Pkg()][v]
}
