package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testLoader is the one loader the fixture loads and loadRepo share,
// so the standard library and each module package are type-checked
// once per test binary. Loaded packages are read-only.
var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { testLoader, loaderErr = NewLoader("") })
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return testLoader
}

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	dir := filepath.Join("internal/lint/testdata/src", rel)
	pkgs, err := sharedLoader(t).Load(dir)
	if err != nil {
		t.Fatalf("load %s: %v", rel, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", rel, len(pkgs))
	}
	return pkgs[0]
}

// wantRe matches one `// want "re1" "re2"` expectation comment.
var wantRe = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)$`)

var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants extracts expectations from every fixture file.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(arg[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, arg[1], err)
				}
				wants = append(wants, &expectation{file: name, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// checkGolden runs one analyzer over a fixture and matches the
// diagnostics one-to-one against the fixture's want comments.
func checkGolden(t *testing.T, fixture string, a *Analyzer) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	diags := Check(pkg, []*Analyzer{a})
	wants := parseWants(t, pkg)

outer:
	for _, d := range diags {
		for _, w := range wants {
			if !w.hit && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Msg) {
				w.hit = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestNondeterminismGolden(t *testing.T) {
	checkGolden(t, "nondeterminism/internal/sim", NondeterminismAnalyzer)
}

func TestMapOrderGolden(t *testing.T) {
	checkGolden(t, "maporder/m", MapOrderAnalyzer)
}

func TestUncheckedCloseGolden(t *testing.T) {
	checkGolden(t, "uncheckedclose/internal/trace", UncheckedCloseAnalyzer)
}

func TestRandSplitGolden(t *testing.T) {
	checkGolden(t, "randsplit/r", RandSplitAnalyzer)
}

func TestLockFlowGolden(t *testing.T) {
	checkGolden(t, "lockflow/l", LockFlowAnalyzer)
}

func TestFsyncOrderGolden(t *testing.T) {
	checkGolden(t, "fsyncorder/internal/wal", FsyncOrderAnalyzer)
}

func TestGoroutineLeakGolden(t *testing.T) {
	checkGolden(t, "goroutineleak/g", GoroutineLeakAnalyzer)
}

func TestFlagValidateGolden(t *testing.T) {
	checkGolden(t, "flagvalidate/cmd/app", FlagValidateAnalyzer)
}

func TestCheckpointFieldsGolden(t *testing.T) {
	checkGolden(t, "checkpointfields/internal/sim", CheckpointFieldsAnalyzer)
}

// TestSuppression pins the exact surviving diagnostics of the
// suppress fixture: well-formed directives silence their line,
// malformed or unknown-rule directives surface themselves and leave
// the finding alive, and a directive that silences nothing surfaces.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "suppress/internal/sim")
	diags := Check(pkg, []*Analyzer{NondeterminismAnalyzer})

	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s@%s", d.Rule, markerFor(t, pkg, d.Line)))
	}
	want := []string{
		"lint-allow@MissingReason-directive",
		"nondeterminism@MissingReason-finding",
		"lint-allow@UnknownRule-directive",
		"nondeterminism@UnknownRule-finding",
		"lint-allow@StaleAllow-directive",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("suppression diagnostics:\n got %v\nwant %v", got, want)
	}
}

// markerFor labels a fixture line by content so the test is not
// coupled to line numbers.
func markerFor(t *testing.T, pkg *Package, line int) string {
	t.Helper()
	name := pkg.Fset.Position(pkg.Files[0].Pos()).Filename
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if line < 1 || line > len(lines) {
		return fmt.Sprintf("line%d", line)
	}
	text := lines[line-1]
	// Walk back to the nearest enclosing func to name the site.
	fn := "?"
	for i := line - 1; i >= 0; i-- {
		if strings.HasPrefix(lines[i], "func ") {
			fn = strings.TrimSuffix(strings.SplitN(strings.TrimPrefix(lines[i], "func "), "(", 2)[0], " ")
			break
		}
	}
	if strings.Contains(text, "//lint:allow") && !strings.Contains(text, "time.") {
		return fn + "-directive"
	}
	return fn + "-finding"
}

// TestAllowlistMalformedKnownRules guards the rule registry: every
// analyzer name must be allowable.
func TestAllowlistKnownRules(t *testing.T) {
	for _, name := range AnalyzerNames() {
		if !knownRule(name) {
			t.Errorf("rule %q not recognized by knownRule", name)
		}
	}
	if knownRule("nosuchrule") {
		t.Error("knownRule accepted a bogus rule name")
	}
}

// repoOnce guards the one load of the whole module that the
// repo-wide tests share.
var (
	repoOnce sync.Once
	repoPkgs []*Package
	repoErr  error
)

// loadRepo loads ./... once per test binary and hands every caller
// the same packages.
func loadRepo(t *testing.T) []*Package {
	t.Helper()
	loader := sharedLoader(t)
	repoOnce.Do(func() { repoPkgs, repoErr = loader.Load("./...") })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoPkgs
}

// TestSelfCheck proves vetadr is clean over the whole repository at
// HEAD: the invariants hold, with every legitimate exception
// explicitly annotated.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check type-checks the entire module from source")
	}
	pkgs := loadRepo(t)
	if len(pkgs) < 10 {
		t.Fatalf("self-check loaded only %d packages; loader lost the tree", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, d := range Check(pkg, Analyzers()) {
			t.Errorf("HEAD not clean: %s", d)
		}
	}
}
