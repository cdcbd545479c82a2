// Package lint is the repository's custom static-analysis framework:
// a stdlib-only loader (go/parser + go/ast + go/types, no x/tools)
// plus the analyzers that mechanically enforce the invariants the
// replayable emulation rests on — no wall clock or global randomness
// in deterministic packages, no map-iteration order leaking into
// output, no dropped writer errors on persistence paths, no random
// source shared across goroutines without a Split — and the
// flow-sensitive rules over the module call graph. See DESIGN.md §9
// and §14.
//
// Findings can be suppressed at a specific line with
//
//	//lint:allow <rule> <reason>
//
// either trailing the offending line or on the line immediately
// above it. The reason is mandatory: an inhibition without a written
// justification is itself reported, as is one that suppresses
// nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the source tree.
type Diagnostic struct {
	Rule string `json:"rule"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// String renders the diagnostic in the conventional
// file:line:col: rule: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
}

// Analyzer is one named invariant check run over a type-checked
// package.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and in
	// //lint:allow comments.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass hands one type-checked package to an analyzer. Its Path is
// the package's import path (or a directory-derived path for fixture
// packages outside the module's package graph).
type Pass struct {
	*Package

	rule string
	out  *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		Rule: p.rule,
		File: position.Filename,
		Line: position.Line,
		Col:  position.Column,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer,
		MapOrderAnalyzer,
		UncheckedCloseAnalyzer,
		RandSplitAnalyzer,
		LockFlowAnalyzer,
		FsyncOrderAnalyzer,
		GoroutineLeakAnalyzer,
		FlagValidateAnalyzer,
		CheckpointFieldsAnalyzer,
	}
}

// AnalyzerNames returns the rule names of the full suite.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Check runs the given analyzers over one loaded package, applies
// //lint:allow suppressions, and returns the surviving diagnostics
// sorted by position. A directive that suppressed nothing, for a rule
// that ran, is reported as stale.
func Check(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
		a.Run(&Pass{Package: pkg, rule: a.Name, out: &diags})
	}
	allows, malformed := collectAllows(pkg)
	covered := make(map[allowKey]bool)
	for _, a := range allows {
		covered[a.allowKey] = true
		covered[allowKey{a.file, a.line + 1, a.rule}] = true
	}
	hit := make(map[allowKey]bool)
	kept := malformed
	for _, d := range diags {
		key := allowKey{d.File, d.Line, d.Rule}
		if covered[key] {
			hit[key] = true
			continue
		}
		kept = append(kept, d)
	}
	for _, a := range allows {
		if ran[a.rule] && !hit[a.allowKey] && !hit[allowKey{a.file, a.line + 1, a.rule}] {
			kept = append(kept, Diagnostic{
				Rule: "lint-allow",
				File: a.file,
				Line: a.line,
				Col:  a.col,
				Msg:  fmt.Sprintf("//lint:allow %s suppresses no finding: delete it", a.rule),
			})
		}
	}
	diags = kept
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags
}

// allowKey identifies one suppression site: a rule allowed at a
// specific file line.
type allowKey struct {
	file string
	line int
	rule string
}

// allow is one well-formed //lint:allow directive.
type allow struct {
	allowKey
	col int
}

const allowPrefix = "//lint:allow"

// collectAllows scans every comment in the package for
// //lint:allow directives. A well-formed directive suppresses its
// rule on the directive's own line and on the line immediately
// following (so it can trail the offending line or sit just above
// it). Malformed directives — missing rule or missing reason — are
// returned as diagnostics themselves so an empty justification can
// never silence a finding.
func collectAllows(pkg *Package) ([]allow, []Diagnostic) {
	var allows []allow
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rule, reason, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				msg := ""
				switch {
				case rule == "" || reason == "":
					msg = "malformed //lint:allow: need a rule name and a reason"
				case !knownRule(rule):
					msg = fmt.Sprintf("//lint:allow names unknown rule %q", rule)
				default:
					allows = append(allows, allow{allowKey{pos.Filename, pos.Line, rule}, pos.Column})
					continue
				}
				malformed = append(malformed, Diagnostic{
					Rule: "lint-allow",
					File: pos.Filename,
					Line: pos.Line,
					Col:  pos.Column,
					Msg:  msg,
				})
			}
		}
	}
	return allows, malformed
}

func knownRule(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// pathHasSuffix reports whether the import path is exactly suffix or
// ends with "/"+suffix — the matcher used to scope rules to package
// families (fixture packages under testdata reproduce the suffix, so
// golden tests exercise the same scoping as the real tree).
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// typeString renders t relative to nothing (fully qualified).
func typeString(t types.Type) string {
	return types.TypeString(t, nil)
}

// elemTypeName renders e's type behind at most one pointer, fully
// qualified ("os.File" for an *os.File), or "" when e has no type.
func elemTypeName(pass *Pass, e ast.Expr) string {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return typeString(t)
}
