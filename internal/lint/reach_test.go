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
// (fmt.Stringer, error, errors.Unwrap). Add a name when a module type
// starts satisfying another standard-library interface that way; a
// longer list would hide dead methods that happen to share a name.
var stdlibInterfaceMethods = []string{"String", "Error", "Unwrap"}

// TestNoUnreachableCode walks the module's call graph and fails on
// every function or method under internal/ that no root reaches. The
// graph has an edge from each non-test function to every module
// function its declaration names (calls, method values, function
// values alike). The roots are:
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

	type decl struct {
		name   string
		method bool
		pos    token.Position
		pkg    string
	}
	decls := map[string]decl{}
	edges := map[string][]string{}
	var roots []string
	ifaceNames := map[string]bool{}
	for _, name := range stdlibInterfaceMethods {
		ifaceNames[name] = true
	}
	// uses lists the module functions n names.
	uses := func(pkg *Package, n ast.Node) []string {
		var out []string
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && inModule(fn) {
					out = append(out, funcKey(fn))
				}
			}
			return true
		})
		return out
	}
	for _, pkg := range pkgs {
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
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					key := funcKey(fn)
					decls[key] = decl{name: d.Name.Name, method: d.Recv != nil, pos: pkg.Fset.Position(d.Pos()), pkg: pkg.Path}
					edges[key] = append(edges[key], uses(pkg, d)...)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") {
						roots = append(roots, key)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR || d.Tok == token.CONST {
						roots = append(roots, uses(pkg, d)...)
					}
				}
			}
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
				if m := ms.At(i).Obj(); m.Exported() {
					roots = append(roots, funcKey(m.(*types.Func)))
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
			if fn, ok := obj.(*types.Func); ok {
				roots = append(roots, funcKey(fn))
			}
			walkType(obj.Type())
		}
	}

	if _, ok := decls[modPath+"/journeybench.main"]; !ok {
		t.Fatal("journeybench's main was not loaded; the functions only it calls would read as unreachable")
	}
	for key, d := range decls {
		if d.method && ifaceNames[d.name] {
			roots = append(roots, key)
		}
	}

	reached := map[string]bool{}
	for len(roots) > 0 {
		key := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[key] {
			continue
		}
		reached[key] = true
		roots = append(roots, edges[key]...)
	}

	var dead []string
	for key, d := range decls {
		if reached[key] || !strings.Contains(d.pkg+"/", "/internal/") {
			continue
		}
		if _, ok := unreachableAllowlist[key]; ok {
			continue
		}
		file, err := filepath.Rel(root, d.pos.Filename)
		if err != nil {
			file = d.pos.Filename
		}
		dead = append(dead, fmt.Sprintf("%s:%d: %s", file, d.pos.Line, key))
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("unreachable: %s", line)
	}
	for key := range unreachableAllowlist {
		if _, ok := decls[key]; !ok || reached[key] {
			t.Errorf("allowlisted %s is gone or reachable; drop it from unreachableAllowlist", key)
		}
	}
}

// funcKey names a function or method by its generic origin, so every
// package's view of it (the loaded package's own objects, and the
// importer's copy other packages see) maps to one graph node.
func funcKey(fn *types.Func) string { return fn.Origin().FullName() }
