package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
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

	// prog is the call graph over every package the loader has
	// type-checked, this one included.
	prog *program
}

// Loader parses and type-checks each package exactly once, with one
// FileSet. It is its own importer for module packages: an import of
// one loads and type-checks it on demand, so every package sees the
// same types.Objects and the call graph reaches every module function
// a loaded package calls. The standard library goes through a shared
// source importer, so its transitive type-check is paid once per run.
// Test files are never loaded: tests legitimately reach for wall
// clocks and dropped errors, and the invariants guard production
// replay paths.
type Loader struct {
	// ModuleRoot is the directory containing go.mod. Patterns are
	// resolved relative to it.
	ModuleRoot string
	// ModulePath is the module's import path from go.mod.
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	byPath  map[string]*Package // by import path; nil for a directory without Go files
	loading map[string]bool     // import paths being type-checked
	order   []*Package          // every loaded package, each after its imports
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
		// The "source" compiler importer type-checks the standard
		// library from source, so vetadr needs no compiled export data
		// and no dependency beyond the stdlib.
		std:     importer.ForCompiler(fset, "source", nil),
		byPath:  make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Import makes the Loader the types.Importer of the packages it
// type-checks: a module import resolves to the loader's own package,
// loaded on demand; anything else goes to the standard-library
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.ModulePath)
	if !ok || (rel != "" && rel[0] != '/') {
		return l.std.Import(path)
	}
	pkg, err := l.loadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: import %s: no Go files", path)
	}
	return pkg.Types, nil
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
	prog := newProgram(l.order)
	for _, pkg := range l.order {
		pkg.prog = prog
	}
	return pkgs, nil
}

// walkPackageDirs returns every directory under root, skipping
// testdata, vendor, and hidden or underscore-prefixed directories;
// loadDir passes over the ones without Go files.
func walkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// loadDir parses and type-checks the single package in dir, once:
// later calls return the first result. It returns nil (no error) for
// directories with no matching Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	importPath := l.importPathFor(dir)
	if pkg, ok := l.byPath[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	// go/build picks the files a build on this platform compiles: no
	// tests, //go:build lines and _GOOS/_GOARCH name suffixes honored,
	// so platform-split files (journeybench's sys_linux.go and
	// sys_other.go) do not collide on their shared declarations.
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		l.byPath[importPath] = nil
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	pkg := &Package{
		Dir:   dir,
		Path:  importPath,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.byPath[importPath] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// importPathFor derives the import path of dir from the module root.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}
