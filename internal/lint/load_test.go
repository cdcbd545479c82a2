package lint

import (
	"fmt"
	"go/types"
	"strings"
	"testing"
)

// TestModuleImportsAreLoadedPackages: a module import resolves to the
// loader's own package, so every package sees one set of
// types.Objects and each package is type-checked once.
func TestModuleImportsAreLoadedPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module from source")
	}
	pkgs := loadRepo(t)
	loaded := map[string]*types.Package{}
	for _, pkg := range pkgs {
		loaded[pkg.Path] = pkg.Types
	}
	checked := 0
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			want, ok := loaded[imp.Path()]
			if !ok {
				continue
			}
			checked++
			if imp != want {
				t.Errorf("%s imports a second copy of %s", pkg.Path, imp.Path())
			}
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d module imports; the loader lost the tree", checked)
	}
}

// TestFindingsIndependentOfPatterns: loading only the daemon and its
// binary gives the findings, and the function summaries, that a ./...
// load gives. The daemon's allowed lockflow findings keep the clean
// comparison honest: one the subset load missed would leave its
// //lint:allow suppressing nothing, which is a finding.
func TestFindingsIndependentOfPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module from source")
	}
	full := map[string]*Package{}
	for _, pkg := range loadRepo(t) {
		full[pkg.Path] = pkg
	}
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./internal/daemon/", "./cmd/activedrd/")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, pkg := range pkgs {
		got := fmt.Sprint(Check(pkg, Analyzers()))
		if want := fmt.Sprint(Check(full[pkg.Path], Analyzers())); got != want {
			t.Errorf("%s findings depend on the pattern:\n subset %s\n   full %s", pkg.Path, got, want)
		}
	}

	summary := func(n *funcNode) string {
		chain := ""
		if n.depth >= 0 {
			chain = n.chain()
		}
		return fmt.Sprintf("blocks %q, syncs %v, unsynced %v, signals %d", chain, n.syncs, n.unsynced, len(n.signals))
	}
	fullByName := map[string]*funcNode{}
	for fn, n := range full[pkgs[0].Path].prog.funcs {
		fullByName[fn.FullName()] = n
	}
	compared := 0
	for fn, n := range pkgs[0].prog.funcs {
		if fn.Name() == "init" || !strings.HasPrefix(fn.Pkg().Path(), loader.ModulePath+"/") {
			continue
		}
		m := fullByName[fn.FullName()]
		if m == nil {
			t.Errorf("%s is missing from the ./... load", fn.FullName())
			continue
		}
		compared++
		if got, want := summary(n), summary(m); got != want {
			t.Errorf("%s summary depends on the pattern:\n subset %s\n   full %s", fn.FullName(), got, want)
		}
	}
	if compared < 300 {
		t.Fatalf("compared only %d summaries; the subset load lost the daemon's dependencies", compared)
	}
}
