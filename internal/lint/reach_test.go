package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachableAllowlist names the internal functions that no program
// reaches but that stay on purpose, each with its reason.
var unreachableAllowlist = map[string]string{
	"activedr/internal/fsx.SyncCount":                "the fsync counter the durability tests read; an fsync cannot be observed after the fact any other way",
	"activedr/internal/trace.LoadSnapshotSeriesWith": "the only reader of the snapshot series simulate -snapshots writes; expect_test.go pins its outcomes",
}

// stdlibInterfaceMethods are the method names through which the
// standard library calls module types by dynamic dispatch alone
// (fmt.Stringer, error, errors.Unwrap, types.Importer, io.Reader). Add
// a name when a module type starts satisfying another standard-library
// interface that way; a longer list would hide dead methods that
// happen to share a name.
var stdlibInterfaceMethods = []string{"String", "Error", "Unwrap", "Import", "Read"}

// TestNoUnreachableCode walks the module's call graph and fails on
// every function or method under internal/ that no root reaches. The
// graph is the loader's: an edge runs from each non-test function to
// every module function its declaration names (calls, method values,
// function values alike). The roots are:
//
//   - main and init functions, and package-level var/const
//     initializers;
//   - the root package's exported names, plus every exported method of
//     each module type reachable through their signatures and exported
//     fields (the facade's type aliases make those method sets public);
//   - every method whose name an interface declares, in the module or
//     in stdlibInterfaceMethods, since dynamic dispatch hides the edge.
//
// journeybench is a separate module, but the loader walks into it
// like any directory, so its main is a root with typed edges into
// internal/; the test fails if that stops being true.
func TestNoUnreachableCode(t *testing.T) {
	if testing.Short() {
		t.Skip("reachability walk type-checks the entire module from source")
	}
	pkgs := loadRepo(t)
	prog := pkgs[0].prog
	root, err := findModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	inModule := func(obj types.Object) bool {
		return obj.Pkg() != nil && (obj.Pkg().Path() == modPath || strings.HasPrefix(obj.Pkg().Path(), modPath+"/"))
	}

	var roots []*funcNode
	ifaceNames := map[string]bool{}
	for _, name := range stdlibInterfaceMethods {
		ifaceNames[name] = true
	}
	for _, pkg := range pkgs {
		pass := &Pass{Package: pkg}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := pkg.Info.Types[it].Type.(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							ifaceNames[iface.Method(i).Name()] = true
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				if d, ok := d.(*ast.GenDecl); ok && (d.Tok == token.VAR || d.Tok == token.CONST) {
					roots = append(roots, prog.refsIn(pass, d)...)
				}
			}
		}
	}
	// The loader's graph also holds the fixture packages other tests
	// loaded; only the module's own packages count.
	inRepo := map[*Package]bool{}
	for _, pkg := range pkgs {
		inRepo[pkg] = true
	}
	for fn, n := range prog.funcs {
		name := fn.Name()
		switch {
		case !inRepo[n.pass.Package]:
		case n.decl.Recv == nil && (name == "init" || name == "main" && fn.Pkg().Name() == "main"):
			roots = append(roots, n)
		case n.decl.Recv != nil && ifaceNames[name]:
			roots = append(roots, n)
		}
	}

	// The root package's exported API and the method sets it exposes.
	seenType := map[*types.Named]bool{}
	var walkType func(types.Type)
	walkType = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			t = t.Origin()
			if seenType[t] || !inModule(t.Obj()) {
				return
			}
			seenType[t] = true
			ms := types.NewMethodSet(types.NewPointer(t))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj().(*types.Func); m.Exported() {
					if n := prog.funcs[m.Origin()]; n != nil {
						roots = append(roots, n)
					}
					walkType(m.Type())
				}
			}
			walkType(t.Underlying())
		case *types.Pointer:
			walkType(t.Elem())
		case *types.Slice:
			walkType(t.Elem())
		case *types.Array:
			walkType(t.Elem())
		case *types.Chan:
			walkType(t.Elem())
		case *types.Map:
			walkType(t.Key())
			walkType(t.Elem())
		case *types.Signature:
			walkType(t.Params())
			walkType(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walkType(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walkType(f.Type())
				}
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.Path != modPath {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if fn, ok := obj.(*types.Func); ok && prog.funcs[fn] != nil {
				roots = append(roots, prog.funcs[fn])
			}
			walkType(obj.Type())
		}
	}

	byName := map[string]*funcNode{}
	for fn, n := range prog.funcs {
		byName[fn.FullName()] = n
	}
	if byName[modPath+"/journeybench.main"] == nil {
		t.Fatal("journeybench's main was not loaded; the functions only it calls would read as unreachable")
	}

	reached := map[*funcNode]bool{}
	for len(roots) > 0 {
		n := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !reached[n] {
			reached[n] = true
			roots = append(roots, n.refs...)
		}
	}

	var dead []string
	for name, n := range byName {
		if reached[n] || !inRepo[n.pass.Package] || !strings.Contains(n.pass.Path+"/", "/internal/") {
			continue
		}
		if _, ok := unreachableAllowlist[name]; ok {
			continue
		}
		pos := n.pass.Fset.Position(n.decl.Pos())
		file, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			file = pos.Filename
		}
		dead = append(dead, fmt.Sprintf("%s:%d: %s", file, pos.Line, name))
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("unreachable: %s", line)
	}
	for name := range unreachableAllowlist {
		if n := byName[name]; n == nil || reached[n] {
			t.Errorf("allowlisted %s is gone or reachable; drop it from unreachableAllowlist", name)
		}
	}
}
