package lint

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Dir is the package directory on disk.
	Dir string
	// Path is the import path derived from the module root (fixture
	// packages under testdata get their directory-derived path, which
	// preserves any internal/<pkg> suffix the rules scope on).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages with a shared FileSet and a
// shared source importer, so the (expensive) transitive stdlib
// type-check is paid once per run, not once per package.
type Loader struct {
	// ModuleRoot is the directory containing go.mod. Patterns are
	// resolved relative to it.
	ModuleRoot string
	// ModulePath is the module's import path from go.mod.
	ModulePath string
	// IncludeTests includes _test.go files. Off by default: tests
	// legitimately reach for wall clocks and dropped errors, and the
	// invariants guard production replay paths.
	IncludeTests bool

	fset *token.FileSet
	imp  types.Importer
}

// NewLoader locates the enclosing module starting from dir (or the
// working directory when dir is empty).
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		dir = wd
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		// The "source" compiler importer type-checks dependencies from
		// source; inside a module it resolves module-local import
		// paths through the go tool, so vetadr needs no compiled
		// export data and no dependency beyond the stdlib.
		imp: importer.ForCompiler(fset, "source", nil),
	}, nil
}

// findModuleRoot walks up from dir to the directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("lint: no go.mod found in any parent directory")
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves the given patterns — "./...", "dir/...", or plain
// package directories — and returns the parsed, type-checked
// packages in deterministic (path-sorted) order. Walked patterns
// skip testdata, vendor, and hidden directories; naming a directory
// explicitly always loads it, which is how the golden tests reach
// the fixture packages.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !dirSet[d] {
			dirSet[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := rest
			if base == "." || base == "" {
				base = l.ModuleRoot
			}
			if !filepath.IsAbs(base) {
				base = filepath.Join(l.ModuleRoot, base)
			}
			walked, err := walkPackageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
			continue
		}
		d := pat
		if !filepath.IsAbs(d) {
			d = filepath.Join(l.ModuleRoot, d)
		}
		add(d)
	}

	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// walkPackageDirs returns every directory under root containing at
// least one non-test .go file, skipping testdata, vendor, and hidden
// directories.
func walkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && isGoSource(e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

func isGoSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// buildTagSatisfied evaluates one //go:build tag against the host
// platform, the way the loader's single-configuration type-check sees
// it: GOOS/GOARCH of the running binary, "unix" for unix-like GOOS
// values, and every go1.N release tag (the toolchain compiling the
// linter satisfies the module's language version by construction).
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH:
		return true
	case "unix":
		switch runtime.GOOS {
		case "aix", "android", "darwin", "dragonfly", "freebsd", "hurd",
			"illumos", "ios", "linux", "netbsd", "openbsd", "solaris":
			return true
		}
		return false
	}
	return strings.HasPrefix(tag, "go1")
}

// excludedByBuildConstraint reports whether path carries a //go:build
// line that rules this platform out. Platform-split files (e.g.
// journeybench's sys_linux.go / sys_other.go pair) otherwise load into
// one package and collide on their shared declarations. Only the modern
// //go:build form is honored; unparseable or absent constraints keep
// the file in, matching the loader's permissive posture.
func excludedByBuildConstraint(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "package ") {
			break // constraints must precede the package clause
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return false
		}
		return !expr.Eval(buildTagSatisfied)
	}
	return false
}

// loadDir parses and type-checks the single package in dir. It
// returns nil (no error) for directories with no matching Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !isGoSource(e.Name()) {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		if excludedByBuildConstraint(filepath.Join(dir, e.Name())) {
			continue
		}
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		// A directory can host both "foo" and (black-box) "foo_test"
		// packages; keep the first (non-test) package's files.
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name == pkgName {
			files = append(files, f)
		}
	}

	importPath := l.importPathFor(dir)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	return &Package{
		Dir:   dir,
		Path:  importPath,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// importPathFor derives the import path of dir from the module root.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}
