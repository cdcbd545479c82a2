package lint

import "go/ast"

// FsyncOrderAnalyzer enforces the PR-6 durability contract inside
// internal/wal and internal/daemon: a function that both writes and
// syncs must not reach a success return on a path where writes are
// still unsynced. The chaos harness catches ordering bugs
// probabilistically; this catches them at push time.
//
// Scope is deliberately narrow. Only functions that contain BOTH a
// write effect and a sync effect are analyzed: such a function has
// opted into ordering durability itself, so returning success with
// the dirty bit set is a bug. Functions that only write leave
// durability to their caller — that contract (e.g. wal.Append is not
// durable until Sync) is the documented API shape, not a finding.
//
// A write is an *os.File, bufio.Writer or wal.Log write; a sync is
// (*os.File).Sync. A call into the module counts by its callee's
// summary: a write when the callee may return success with writes
// unsynced, otherwise a sync when the callee may fsync.
var FsyncOrderAnalyzer = &Analyzer{
	Name: "fsyncorder",
	Doc:  "in wal/daemon, success returns must not be reachable with unsynced writes",
	Run:  runFsyncOrder,
}

// fsyncOrderPackages are the package-path suffixes under the
// durability contract.
var fsyncOrderPackages = []string{"internal/wal", "internal/daemon"}

func runFsyncOrder(pass *Pass) {
	scoped := false
	for _, p := range fsyncOrderPackages {
		if pathHasSuffix(pass.Path, p) {
			scoped = true
			break
		}
	}
	if !scoped {
		return
	}
	funcBodies(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		for _, ret := range pass.prog.unsyncedReturns(pass, decl, body) {
			pass.Reportf(ret.Pos(), "success return reachable with unsynced writes: sync before acknowledging (durability contract)")
		}
	})
}

// unsyncedReturns runs the dirty-bit dataflow over a body with both
// write and sync effects and returns its success returns reachable
// with writes unsynced.
func (p *program) unsyncedReturns(pass *Pass, decl *ast.FuncDecl, body *ast.BlockStmt) []*ast.ReturnStmt {
	writes, syncs := false, false
	forEachCall(body, func(call *ast.CallExpr) {
		w, s := p.effect(pass, call)
		writes, syncs = writes || w, syncs || s
	})
	if !writes || !syncs {
		return nil
	}
	cfg := NewCFG(body, terminatorFor(pass))

	flow := Flow[dirtyFact]{
		Entry:     dirtyClean,
		Unreached: dirtyUnreached,
		Transfer: func(n ast.Node, in dirtyFact) dirtyFact {
			if in == dirtyUnreached {
				return in
			}
			out := in
			forEachCall(n, func(call *ast.CallExpr) {
				switch w, s := p.effect(pass, call); {
				case s:
					out = dirtyClean
				case w:
					out = dirtyDirty
				}
			})
			return out
		},
		Join: func(a, b dirtyFact) dirtyFact {
			// May-analysis: dirty on either path is dirty.
			if a == dirtyUnreached {
				return b
			}
			if b == dirtyUnreached {
				return a
			}
			if a == dirtyDirty || b == dirtyDirty {
				return dirtyDirty
			}
			return dirtyClean
		},
		Equal: func(a, b dirtyFact) bool { return a == b },
	}
	in := Forward(cfg, flow)

	resultsError := funcReturnsError(pass, decl)
	var rets []*ast.ReturnStmt
	FactsAt(cfg, flow, in, func(n ast.Node, fact dirtyFact) {
		// The return expression itself may sync ("return l.f.Sync()"):
		// apply its effects before judging.
		if ret, ok := n.(*ast.ReturnStmt); ok && flow.Transfer(n, fact) == dirtyDirty && isSuccessReturn(ret, resultsError) {
			rets = append(rets, ret)
		}
	})
	return rets
}

// isUnsynced reports whether n may reach a success return with writes
// unsynced, judging it on first use. A function met again while it is
// being judged (recursion) counts as not unsynced.
func (p *program) isUnsynced(n *funcNode) bool {
	if !n.judged {
		n.judged = true
		n.unsynced = n.syncs && len(p.unsyncedReturns(n.pass, n.decl, n.decl.Body)) > 0
	}
	return n.unsynced
}

// effect classifies one call for the dirty bit: a write puts bytes
// where durable storage has not seen them yet, a sync makes them
// durable.
func (p *program) effect(pass *Pass, call *ast.CallExpr) (write, sync bool) {
	switch {
	case isFsync(pass, call):
		return false, true
	case isWriteEffect(pass, call):
		return true, false
	}
	if c := p.callee(pass, call); c != nil {
		if p.isUnsynced(c) {
			return true, false
		}
		return false, c.syncs
	}
	return false, false
}

// isFsync reports whether call is (*os.File).Sync, the one sync leaf:
// the module's sync helpers (fsx.SyncFile, wal.Log.Sync) reach it
// through the call graph.
func isFsync(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Sync" && elemTypeName(pass, sel.X) == "os.File"
}

type dirtyFact int8

const (
	dirtyUnreached dirtyFact = iota
	dirtyClean
	dirtyDirty
)

// isWriteEffect reports whether call puts bytes somewhere durable
// storage has not seen yet: *os.File writes, or wal.Log Append/Write.
func isWriteEffect(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || isPackageFunc(pass, sel) {
		return false
	}
	switch recv := elemTypeName(pass, sel.X); {
	case recv == "os.File":
		switch sel.Sel.Name {
		case "Write", "WriteAt", "WriteString", "Truncate":
			return true
		}
	case pathHasSuffix(recv, "internal/wal.Log"):
		switch sel.Sel.Name {
		case "Append", "Write":
			return true
		}
	case recv == "bufio.Writer":
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Flush":
			// Flush moves bytes to the kernel, not to the platter: it
			// is still a write effect, never a sync effect.
			return true
		}
	}
	return false
}

// funcReturnsError reports whether the function's last result is an
// error. Function literals (decl == nil) are treated as error-less:
// every return is a potential success path.
func funcReturnsError(pass *Pass, decl *ast.FuncDecl) bool {
	if decl == nil || decl.Type.Results == nil || len(decl.Type.Results.List) == 0 {
		return false
	}
	last := decl.Type.Results.List[len(decl.Type.Results.List)-1]
	tv, ok := pass.Info.Types[last.Type]
	if !ok || tv.Type == nil {
		return false
	}
	return typeString(tv.Type) == "error"
}

// isSuccessReturn reports whether ret signals success: the final
// result is a nil literal when the function returns an error, or any
// return when it does not. Named-result bare returns are conservative
// non-findings (the error's value is unknown).
func isSuccessReturn(ret *ast.ReturnStmt, resultsError bool) bool {
	if !resultsError {
		return true
	}
	if len(ret.Results) == 0 {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	id, ok := last.(*ast.Ident)
	return ok && id.Name == "nil"
}
