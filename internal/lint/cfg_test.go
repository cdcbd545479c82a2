package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// atomicStmts collects every statement the CFG builder is contracted
// to place verbatim into a block, excluding anything inside nested
// function literals (those get their own CFGs).
func atomicStmts(body *ast.BlockStmt) []ast.Stmt {
	var out []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n.(type) {
		case *ast.AssignStmt, *ast.DeclStmt, *ast.ExprStmt, *ast.SendStmt,
			*ast.IncDecStmt, *ast.DeferStmt, *ast.GoStmt, *ast.ReturnStmt,
			*ast.BranchStmt, *ast.EmptyStmt, *ast.RangeStmt:
			out = append(out, n.(ast.Stmt))
		}
		return true
	})
	return out
}

// checkPartition asserts the CFG partition property for one body:
// every atomic statement appears in exactly one block (counting
// multiplicity), and return/panic statements terminate their block
// with the synthetic Exit as only successor.
func checkPartition(t *testing.T, name string, body *ast.BlockStmt) {
	t.Helper()
	cfg := NewCFG(body, func(call *ast.CallExpr) bool {
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	})

	placed := make(map[ast.Node]int)
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(ast.Stmt); ok {
				placed[n]++
			}
		}
	}
	for _, s := range atomicStmts(body) {
		switch placed[s] {
		case 1:
		case 0:
			t.Errorf("%s: statement %T at %d missing from every block", name, s, s.Pos())
		default:
			t.Errorf("%s: statement %T at %d appears in %d blocks", name, s, s.Pos(), placed[s])
		}
		delete(placed, s)
	}

	for _, b := range cfg.Blocks {
		for i, n := range b.Nodes {
			terminator := false
			switch n := n.(type) {
			case *ast.ReturnStmt:
				terminator = true
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						terminator = true
					}
				}
			}
			if !terminator {
				continue
			}
			if i != len(b.Nodes)-1 {
				t.Errorf("%s: block %d: terminator %T not last in block", name, b.Index, n)
			}
			if len(b.Succs) != 1 || b.Succs[0] != cfg.Exit {
				t.Errorf("%s: block %d: terminator block has succs %d (want exactly Exit)", name, b.Index, len(b.Succs))
			}
		}
	}
}

// cfgCorpus is the control-flow zoo: every construct the builder
// claims to model, including the pathological combinations.
var cfgCorpus = []string{
	`func a() { x := 1; _ = x }`,
	`func b(c bool) int { if c { return 1 }; return 0 }`,
	`func c(c bool) int {
		if x := 1; c {
			return x
		} else if !c {
			return -x
		} else {
			panic("unreachable")
		}
	}`,
	`func d(n int) int {
		s := 0
		for i := 0; i < n; i++ {
			if i == 3 { continue }
			if i == 7 { break }
			s += i
		}
		return s
	}`,
	`func e(xs []int) int {
		s := 0
		for _, x := range xs { s += x }
		for range xs { s++ }
		return s
	}`,
	`func f(n int) string {
		switch {
		case n < 0:
			return "neg"
		case n == 0:
			fallthrough
		case n == 1:
			return "small"
		}
		switch n {
		case 2:
		default:
			n++
		}
		return "big"
	}`,
	`func g(v any) int {
		switch x := v.(type) {
		case int:
			return x
		case string:
			return len(x)
		}
		return 0
	}`,
	`func h(ch chan int, done chan struct{}) int {
		select {
		case v := <-ch:
			return v
		case <-done:
			break
		default:
		}
		return -1
	}`,
	`func i(n int) int {
	outer:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j > i { continue outer }
				if i*j > 100 { break outer }
			}
		}
		return n
	}`,
	`func j(n int) int {
	loop:
		if n > 0 {
			n--
			goto loop
		}
		return n
	}`,
	`func k() int {
		defer println("bye")
		go println("hi")
		return 1
		println("unreachable")
		return 2
	}`,
	`func l(c bool) {
		if c {
			panic("boom")
		}
		for {
			if !c { break }
		}
	}`,
	`func m(ch chan int) {
		ch <- 1
		x := <-ch
		x++
		_ = func() int { return <-ch }
	}`,
	`func n(xs map[string]int) {
	rangeLoop:
		for k, v := range xs {
			switch {
			case v == 0:
				continue rangeLoop
			case v < 0:
				break rangeLoop
			}
			_ = k
		}
	}`,
	`func o() { select {} }`,
	`func p(c bool) int {
		var x int
		switch {
		case c:
			x = 1
			fallthrough
		default:
			x++
		}
		return x
	}`,
}

// TestCFGPartition pins the builder's core contract over the corpus:
// every atomic statement lands in exactly one block and terminators
// end their blocks at Exit.
func TestCFGPartition(t *testing.T) {
	for i, src := range cfgCorpus {
		file := fmt.Sprintf("package p\n%s\n", src)
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, fmt.Sprintf("corpus%d.go", i), file, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPartition(t, fd.Name.Name, fd.Body)
			}
		}
	}
}

// TestCFGEdgesWellFormed asserts structural sanity over the corpus:
// successor lists reference blocks of the same CFG, the entry is
// block 0, and the Exit block is empty and edge-free.
func TestCFGEdgesWellFormed(t *testing.T) {
	for i, src := range cfgCorpus {
		file := fmt.Sprintf("package p\n%s\n", src)
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, fmt.Sprintf("corpus%d.go", i), file, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cfg := NewCFG(fd.Body, nil)
			if cfg.Entry() != cfg.Blocks[0] {
				t.Errorf("%s: entry is not Blocks[0]", fd.Name.Name)
			}
			if len(cfg.Exit.Nodes) != 0 || len(cfg.Exit.Succs) != 0 {
				t.Errorf("%s: exit block not empty/terminal", fd.Name.Name)
			}
			for _, b := range cfg.Blocks {
				for _, s := range b.Succs {
					if s.Index < 0 || s.Index >= len(cfg.Blocks) || cfg.Blocks[s.Index] != s {
						t.Errorf("%s: block %d has foreign successor", fd.Name.Name, b.Index)
					}
				}
			}
		}
	}
}

// TestCFGPartitionRepoWide runs the partition property over every
// function body in the module — the property test at production
// scale. Skipped in -short (it re-parses the whole tree).
func TestCFGPartitionRepoWide(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide CFG sweep parses the entire module")
	}
	bodies := 0
	for _, pkg := range loadRepo(t) {
		funcBodies(pkg.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			name := pkg.Path + ".<lit>"
			if decl != nil {
				name = pkg.Path + "." + decl.Name.Name
			}
			checkPartition(t, name, body)
			bodies++
		})
	}
	if bodies < 100 {
		t.Fatalf("swept only %d function bodies; loader lost the tree", bodies)
	}
}

// TestForwardFixpoint exercises the dataflow engine with a reaching
// "tainted" bit over a diamond + loop: the join must preserve taint
// along either path and the fixpoint must terminate on the back edge.
func TestForwardFixpoint(t *testing.T) {
	src := `package p
func f(c bool, n int) {
	x := 0
	if c {
		taint()
	} else {
		x = 1
	}
	for i := 0; i < n; i++ {
		use(x)
	}
	use(x)
}
func taint()    {}
func use(int) {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "flow.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	body := f.Decls[0].(*ast.FuncDecl).Body
	cfg := NewCFG(body, nil)

	isCall := func(n ast.Node, name string) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == name
	}
	flow := Flow[bool]{
		Entry:     false,
		Unreached: false,
		Transfer: func(n ast.Node, in bool) bool {
			if isCall(n, "taint") {
				return true
			}
			return in
		},
		Join:  func(a, b bool) bool { return a || b },
		Equal: func(a, b bool) bool { return a == b },
	}
	in := Forward(cfg, flow)
	uses := 0
	FactsAt(cfg, flow, in, func(n ast.Node, tainted bool) {
		if !isCall(n, "use") {
			return
		}
		uses++
		if !tainted {
			t.Errorf("use #%d not tainted: the c-branch taint must survive the join and the loop", uses)
		}
	})
	if uses != 2 {
		t.Fatalf("visited %d use() calls, want 2", uses)
	}
}
