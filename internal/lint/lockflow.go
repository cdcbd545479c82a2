package lint

import (
	"go/ast"
	"go/types"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// LockFlowAnalyzer runs a forward may-held dataflow over every
// function's CFG and reports two invariant violations:
//
//  1. a path exists on which a held sync.Mutex/RWMutex spans a
//     blocking call — file or network I/O, a channel operation, a
//     parallel.Pool fan-out, or a sleep. The daemon serves reads
//     under the same mutex the applier mutates under; a lock held
//     across I/O turns one slow client or disk stall into a
//     service-wide stall.
//  2. an early return on which the lock is still held and no
//     deferred Unlock covers it — the classic missed-unlock leak.
//
// The lock dataflow is per function and defer-aware: `defer
// mu.Unlock()` registers an exit-time release on every path after the
// defer executes. Function literals get their own graphs and do not
// inherit the enclosing function's held set. Whether a call blocks
// comes from the call graph's summaries, so a blocking operation any
// number of calls deep counts, reported with its call chain; calls
// through interfaces and function values stay opaque (DESIGN.md §14).
var LockFlowAnalyzer = &Analyzer{
	Name: "lockflow",
	Doc:  "no held mutex spans a blocking call; every path to return releases or defers",
	Run:  runLockFlow,
}

// lockFact is the per-program-point fact: the set of may-held locks
// and the set of must-deferred unlocks, keyed by the canonical lock
// expression ("d.mu", "r.mu#r" for read locks). nil = unreached.
type lockFact struct {
	held     map[string]bool
	deferred map[string]bool
}

func (f *lockFact) clone() *lockFact {
	return &lockFact{held: maps.Clone(f.held), deferred: maps.Clone(f.deferred)}
}

func runLockFlow(pass *Pass) {
	funcBodies(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		checkLockFlow(pass, body)
	})
}

func checkLockFlow(pass *Pass, body *ast.BlockStmt) {
	// Fast path: a body that never calls Lock needs no graph.
	if !mentionsLock(pass, body) {
		return
	}
	cfg := NewCFG(body, terminatorFor(pass))
	nonBlocking := nonBlockingOps(body)

	flow := Flow[*lockFact]{
		Entry:     &lockFact{held: map[string]bool{}, deferred: map[string]bool{}},
		Unreached: nil,
		Transfer: func(n ast.Node, in *lockFact) *lockFact {
			if in == nil {
				return nil
			}
			out := in
			cow := func() {
				if out == in {
					out = in.clone()
				}
			}
			if d, ok := n.(*ast.DeferStmt); ok {
				if key, op := lockOp(pass, d.Call); op == opUnlock {
					cow()
					out.deferred[key] = true
				}
				return out
			}
			forEachCall(n, func(call *ast.CallExpr) {
				key, op := lockOp(pass, call)
				switch op {
				case opLock:
					cow()
					out.held[key] = true
				case opUnlock:
					if out.held[key] {
						cow()
						delete(out.held, key)
					}
				}
			})
			return out
		},
		Join: func(a, b *lockFact) *lockFact {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			j := &lockFact{held: make(map[string]bool), deferred: make(map[string]bool)}
			for k := range a.held {
				j.held[k] = true
			}
			for k := range b.held {
				j.held[k] = true
			}
			for k := range a.deferred {
				if b.deferred[k] {
					j.deferred[k] = true
				}
			}
			return j
		},
		Equal: func(a, b *lockFact) bool {
			if (a == nil) != (b == nil) {
				return false
			}
			if a == nil {
				return true
			}
			return maps.Equal(a.held, b.held) && maps.Equal(a.deferred, b.deferred)
		},
	}
	in := Forward(cfg, flow)

	FactsAt(cfg, flow, in, func(n ast.Node, fact *lockFact) {
		if fact == nil || len(fact.held) == 0 {
			return
		}
		// Invariant 1: a blocking operation under any held lock. The
		// expression of a return statement evaluates with the lock
		// still held, so returns are checked here too.
		if why := pass.prog.blockingIn(pass, n, nonBlocking); why != "" {
			for _, key := range slices.Sorted(maps.Keys(fact.held)) {
				pass.Reportf(n.Pos(), "held %s spans %s: a stall here blocks every other holder", lockName(key), why)
			}
		}
		// Invariant 2: a return on a path with a held, non-deferred lock.
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, key := range slices.Sorted(maps.Keys(fact.held)) {
				if !fact.deferred[key] {
					pass.Reportf(ret.Pos(), "%s may still be held at this return: unlock before returning or defer the Unlock", lockName(key))
				}
			}
		}
	})
}

// mentionsLock pre-screens a body for any Lock/RLock call.
func mentionsLock(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, op := lockOp(pass, call); op == opLock {
				found = true
			}
		}
		return true
	})
	return found
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as acquiring or releasing a sync lock and
// returns the canonical key of the lock expression.
func lockOp(pass *Pass, call *ast.CallExpr) (string, lockOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	var kind lockOpKind
	read := false
	switch sel.Sel.Name {
	case "Lock":
		kind = opLock
	case "RLock":
		kind, read = opLock, true
	case "Unlock":
		kind = opUnlock
	case "RUnlock":
		kind, read = opUnlock, true
	default:
		return "", opNone
	}
	if !isSyncLock(pass, sel.X) {
		return "", opNone
	}
	key := exprKey(sel.X)
	if read {
		key += "#r"
	}
	return key, kind
}

// isSyncLock reports whether e's type is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isSyncLock(pass *Pass, e ast.Expr) bool {
	switch elemTypeName(pass, e) {
	case "sync.Mutex", "sync.RWMutex":
		return true
	}
	return false
}

// exprKey canonicalizes a lock expression into a stable key: the
// dotted ident/selector path ("d.mu", "s.state.mu"). Unsupported
// shapes fall back to a positional key so distinct locks never merge.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	default:
		return "lock@" + strconv.Itoa(int(e.Pos()))
	}
}

// lockName renders a lock key for diagnostics.
func lockName(key string) string {
	if k, ok := strings.CutSuffix(key, "#r"); ok {
		return "read lock " + k
	}
	return "lock " + key
}

// forEachCall visits every CallExpr syntactically inside n without
// descending into function literals (their bodies run elsewhere).
func forEachCall(n ast.Node, fn func(*ast.CallExpr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}

// osFileBlocking are the *os.File methods that hit the disk.
var osFileBlocking = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"WriteString": true, "Sync": true, "Close": true, "Seek": true,
	"Truncate": true, "ReadDir": true,
}

// osPkgBlocking are the os package functions that hit the disk.
var osPkgBlocking = map[string]bool{
	"ReadFile": true, "WriteFile": true, "Open": true, "Create": true,
	"OpenFile": true, "ReadDir": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Mkdir": true, "MkdirAll": true, "Truncate": true,
}

// blockingCall classifies one call as blocking.
func blockingCall(pass *Pass, call *ast.CallExpr) string {
	// Any call handed an http.ResponseWriter writes a response while
	// it runs — network I/O to a client of unknown speed.
	for _, arg := range call.Args {
		if tv, ok := pass.Info.Types[arg]; ok && tv.Type != nil &&
			typeString(tv.Type) == "net/http.ResponseWriter" {
			return "an HTTP response write"
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if isPackageFunc(pass, sel) {
		pkg, _ := sel.X.(*ast.Ident)
		obj := pass.Info.Uses[pkg].(*types.PkgName)
		switch obj.Imported().Path() {
		case "time":
			if name == "Sleep" {
				return "time.Sleep"
			}
		case "os":
			if osPkgBlocking[name] {
				return "os." + name + " (file I/O)"
			}
		case "net":
			return "net." + name + " (network I/O)"
		case "net/http":
			return "net/http." + name + " (network I/O)"
		}
		return ""
	}
	// Method calls / func-valued fields.
	if name == "Sleep" {
		return "a Sleep call"
	}
	switch recv := elemTypeName(pass, sel.X); {
	case recv == "net/http.ResponseWriter":
		return "an HTTP response write"
	case recv == "os.File" && osFileBlocking[name]:
		return "(*os.File)." + name + " (file I/O)"
	case isPoolCall(pass, call):
		return "parallel.Pool." + name + " (blocks until the workers finish)"
	}
	return ""
}
