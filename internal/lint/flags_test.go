package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
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
