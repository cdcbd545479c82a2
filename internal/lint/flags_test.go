package lint

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// flagDocs are the files whose command lines count as exercising a
// flag: the user-facing docs and the two scripts CI runs.
var flagDocs = []string{"README.md", "EXPERIMENTS.md", "scripts/verify.sh", ".github/workflows/ci.yml"}

// flagRegistrations are the flag package's registration functions and
// methods; the *Var forms take the flag name second, the rest first.
var flagRegistrations = map[string]bool{
	"Bool": true, "BoolFunc": true, "Duration": true, "Float64": true, "Func": true,
	"Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true,
	"BoolVar": true, "DurationVar": true, "Float64Var": true, "Int64Var": true, "IntVar": true,
	"StringVar": true, "TextVar": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// TestEveryFlagIsExercised holds every flag a cmd/ binary registers
// to the rule that a flag stays only if something uses it. A flag
// passes when either
//
//   - a command line in one of flagDocs runs its binary (the bare
//     name, or a path ending in cmd/<binary>) and carries it as a
//     -name token, or
//   - one of the binary's _test.go files holds it as a "-name"
//     literal.
func TestEveryFlagIsExercised(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module from source")
	}
	pkgs := loadRepo(t)
	root, err := findModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string][]string{} // binary → flag names
	for _, pkg := range pkgs {
		dir, err := filepath.Rel(root, pkg.Dir)
		if err != nil || filepath.Dir(dir) != "cmd" {
			continue
		}
		bin := filepath.Base(dir)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagRegistrations[fn.Name()] {
					return true
				}
				arg := call.Args[0]
				if strings.HasSuffix(fn.Name(), "Var") {
					arg = call.Args[1]
				}
				tv := pkg.Info.Types[arg]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					t.Errorf("%s: cmd/%s registers a flag whose name is not a constant", pkg.Fset.Position(call.Pos()), bin)
					return true
				}
				registered[bin] = append(registered[bin], constant.StringVal(tv.Value))
				return true
			})
		}
	}
	if len(registered) == 0 {
		t.Fatal("found no flags under cmd/; the loader lost the binaries")
	}

	used := map[string]map[string]bool{}
	for bin := range registered {
		used[bin] = map[string]bool{}
	}
	for _, doc := range flagDocs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range commandSegments(string(data)) {
			for i, tok := range cmd {
				bin := tok[strings.LastIndex(tok, "/")+1:]
				if _, ok := used[bin]; !ok || (tok != bin && !strings.HasSuffix(tok, "cmd/"+bin)) {
					continue
				}
				for _, arg := range cmd[i+1:] {
					if name, ok := flagToken(arg); ok {
						used[bin][name] = true
					}
				}
				break
			}
		}
	}
	for bin := range registered {
		tests, err := filepath.Glob(filepath.Join(root, "cmd", bin, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range tests {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range registered[bin] {
				if strings.Contains(string(data), `"-`+name+`"`) {
					used[bin][name] = true
				}
			}
		}
	}

	var bins []string
	for bin := range registered {
		bins = append(bins, bin)
	}
	sort.Strings(bins)
	total := 0
	for _, bin := range bins {
		for _, name := range registered[bin] {
			total++
			if !used[bin][name] {
				t.Errorf("cmd/%s: flag -%s appears on no command line in %s and in no test of the binary",
					bin, name, strings.Join(flagDocs, ", "))
			}
		}
	}
	t.Logf("%d flags across %d binaries", total, len(bins))
}

// commandBreak ends one shell command inside a line: an inline-code
// backtick, a pipe, &&, a semicolon or a # comment.
var commandBreak = regexp.MustCompile("`|\\||&&|;|(^|\\s)#")

// commandSegments splits a document into the whitespace-separated
// words of each command it shows, joining backslash-continued lines
// first.
func commandSegments(doc string) [][]string {
	doc = strings.ReplaceAll(doc, "\\\n", " ")
	var out [][]string
	for _, line := range strings.Split(doc, "\n") {
		for _, seg := range commandBreak.Split(line, -1) {
			if words := strings.Fields(seg); len(words) > 0 {
				out = append(out, words)
			}
		}
	}
	return out
}

// flagToken reports the flag a command-line word sets: -name,
// --name, -name=value.
func flagToken(word string) (string, bool) {
	name := strings.TrimLeft(word, "-")
	if name == word || name == "" || name[0] < 'a' || name[0] > 'z' {
		return "", false
	}
	if i := strings.IndexByte(name, '='); i >= 0 {
		name = name[:i]
	}
	return name, true
}

// TestCIRunPatternsNameTests holds every go test command in CI's
// workflow and in scripts/*.sh to the names it selects: each
// |-separated alternative of a -run pattern, and each -fuzz name, must
// match a Test, Fuzz or Benchmark function of a package the command
// names. go test passes silently when an alternative matches nothing,
// so a renamed test would quietly drop out of the step that names it.
// The pattern '^$' (no tests) is exempt.
func TestCIRunPatternsNameTests(t *testing.T) {
	root, err := findModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range append([]string{filepath.Join(root, ".github", "workflows", "ci.yml")}, scripts...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, path)
		for _, cmd := range goTestCommands(string(data)) {
			var pkgs, patterns []string
			for i := 0; i < len(cmd); i++ {
				arg := cmd[i]
				switch name, value, _ := strings.Cut(strings.TrimLeft(arg, "-"), "="); {
				case arg == "":
				case arg[0] == '.':
					pkgs = append(pkgs, arg)
				case arg[0] == '-' && (name == "run" || name == "fuzz"):
					if !strings.Contains(arg, "=") && i+1 < len(cmd) {
						i++
						value = cmd[i]
					}
					if name == "run" {
						value, _, _ = strings.Cut(value, "/") // the top-level tests
					}
					if value != "^$" {
						patterns = append(patterns, splitAlternatives(value)...)
					}
				}
			}
			if len(patterns) == 0 {
				continue
			}
			if len(pkgs) == 0 {
				pkgs = []string{"."}
			}
			names := testFuncNames(t, root, pkgs)
			for _, p := range patterns {
				re, err := regexp.Compile(p)
				if err != nil {
					t.Errorf("%s: go test pattern %q: %v", rel, p, err)
					continue
				}
				checked++
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s: go test pattern %q matches no test, fuzz or benchmark function in %s",
						rel, p, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in CI's go test commands; the command parser lost them")
	}
	t.Logf("%d patterns checked", checked)
}

// goTestCommands returns the words of each go test command in a shell
// script or a workflow file: backslash-continued lines are joined,
// quotes group and are dropped, # starts a comment, and an unquoted
// |, ;, &, ( or ) ends a command.
func goTestCommands(doc string) [][]string {
	doc = strings.ReplaceAll(doc, "\\\n", " ")
	var out [][]string
	for _, line := range strings.Split(doc, "\n") {
		var words []string
		var word strings.Builder
		inWord, quote := false, byte(0)
		flush := func(end bool) {
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
			if end {
				if len(words) > 2 && words[0] == "go" && words[1] == "test" {
					out = append(out, words[2:])
				}
				words = nil
			}
		}
		for i := 0; i < len(line); i++ {
			c := line[i]
			switch {
			case quote != 0:
				if c == quote {
					quote = 0
				} else {
					word.WriteByte(c)
				}
			case c == '\'' || c == '"':
				quote, inWord = c, true
			case c == '#' && !inWord:
				i = len(line)
			case strings.IndexByte("|;&()", c) >= 0:
				flush(true)
			case c == ' ' || c == '\t':
				flush(false)
				if len(words) == 1 && words[0] != "go" {
					words = nil // "run:" and other leading words
				}
			default:
				word.WriteByte(c)
				inWord = true
			}
		}
		flush(true)
	}
	return out
}

// splitAlternatives splits a regular expression at its top-level |.
func splitAlternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

// testFuncNames returns the Test, Fuzz and Benchmark functions declared
// in the _test.go files of the named packages, relative to root; ./...
// names every package of the module.
func testFuncNames(t *testing.T, root string, pkgs []string) []string {
	t.Helper()
	var dirs []string
	for _, p := range pkgs {
		if p != "./..." {
			dirs = append(dirs, filepath.Join(root, p))
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != root && (name[0] == '.' || name[0] == '_' || name == "testdata" || name == "journeybench") {
				return filepath.SkipDir // go test ./... skips these; journeybench is its own module
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil {
					continue
				}
				for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
					if strings.HasPrefix(fn.Name.Name, prefix) {
						names = append(names, fn.Name.Name)
					}
				}
			}
		}
	}
	return names
}
