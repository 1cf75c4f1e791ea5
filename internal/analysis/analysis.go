// Package analysis is pcflint's static-analysis framework: a small,
// stdlib-only (go/parser, go/ast, go/types, go/token) driver that
// loads the module, type-checks every package, and runs the
// project-specific analyzers. Each guards an invariant the compiler
// cannot see but PCF's guarantee or its serving path relies on:
// tolerance-aware float comparisons, never-discarded solver errors, typed errors instead of
// panics in library code, immutability of published plans, and
// deadline-carrying HTTP. DESIGN.md §10 documents the analyzers, §15
// the record each one earned its place with.
//
// Diagnostics can be suppressed per line with a directive comment
//
//	//lint:ignore pcflint/<analyzer> <reason>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory; a directive without one, one naming an unknown
// analyzer, and one that suppresses nothing are each reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String formats the diagnostic the way compilers do, so editors and CI
// annotators pick the position up.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (pcflint/%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one pluggable check.
type Analyzer struct {
	// Name is the identifier used in diagnostics and suppression
	// directives (pcflint/<Name>).
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// guards.
	Doc string
	// Match, when non-nil, restricts the analyzer to packages for which
	// it returns true (import path relative to the module root).
	Match func(pkgPath string) bool
	// Run inspects one type-checked package and reports findings
	// through the pass.
	Run func(*Pass)
}

// Pass carries one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees (test files included only
	// when the loader was configured with IncludeTests).
	Files []*ast.File
	// Pkg is the type-checked package; PkgPath its import path.
	Pkg     *types.Package
	PkgPath string
	Info    *types.Info
	report  func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// All returns the default analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		CheckedErr,
		NoPanic,
		MutAfterPub,
		CtxHTTP,
	}
}

// ByName resolves a comma-separated analyzer list; an unknown name is
// an error. An empty list selects the whole suite.
func ByName(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("pcflint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzer string // analyzer name, without the pcflint/ prefix
	line     int
	// groupEnd is the last line of the comment group the directive sits
	// in, so a directive followed by further comment lines (including a
	// bare //) still suppresses the code line after the group.
	groupEnd int
	bad      bool // malformed (missing reason or analyzer)
	pos      token.Pos
}

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+pcflint/(\S+)\s*(.*)$`)

// collectIgnores parses the suppression directives of one file, keyed
// by line number.
func collectIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//lint:ignore") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			groupEnd := fset.Position(cg.End()).Line
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil || strings.TrimSpace(m[2]) == "" {
				out = append(out, ignoreDirective{line: line, groupEnd: groupEnd, bad: true, pos: c.Pos()})
				continue
			}
			out = append(out, ignoreDirective{analyzer: m[1], line: line, groupEnd: groupEnd, pos: c.Pos()})
		}
	}
	return out
}

// Run executes the analyzers over the loaded packages, applies the
// suppression directives, and returns the surviving diagnostics sorted
// by position. A directive that is malformed, names an unknown
// analyzer, or suppresses nothing is reported as a "directive"
// diagnostic. The last is reported only where the named analyzer ran
// over the directive's package, so an -analyzers subset or a Match
// scope never turns a working suppression into a finding.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	// known analyzer names, for validating suppression directives:
	// always the full suite, so `-analyzers floatcmp` does not start
	// flagging valid suppressions for the analyzers it skipped.
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	// covers maps a suppressed (file, line, analyzer) to the directives
	// reaching it; stale holds, for each directive that must suppress
	// something, the diagnostic reported if it does not.
	type site struct {
		file     string
		line     int
		analyzer string
	}
	covers := map[site][]*ignoreDirective{}
	stale := map[*ignoreDirective]Diagnostic{}

	for _, pkg := range pkgs {
		ran := map[string]bool{}
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			ran[a.Name] = true
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				PkgPath:  pkg.Path,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			})
		}
		for _, f := range pkg.Files {
			for _, d := range collectIgnores(pkg.Fset, f) {
				position := pkg.Fset.Position(d.pos)
				at := Diagnostic{Analyzer: "directive", File: position.Filename, Line: d.line, Col: position.Column}
				switch {
				case d.bad:
					at.Message = "malformed suppression; want //lint:ignore pcflint/<analyzer> <reason>"
					diags = append(diags, at)
				case !known[d.analyzer]:
					at.Message = fmt.Sprintf("suppression names unknown analyzer %q; see pcflint -list", d.analyzer)
					diags = append(diags, at)
				default:
					// The directive covers its own line and, when its
					// comment group continues past it, the line the
					// group ends on: each suppresses itself and the
					// line below.
					for _, line := range []int{d.line, d.groupEnd} {
						k := site{at.File, line, d.analyzer}
						covers[k] = append(covers[k], &d)
					}
					if ran[d.analyzer] {
						at.Message = fmt.Sprintf("suppression of pcflint/%s suppresses nothing; remove it", d.analyzer)
						stale[&d] = at
					}
				}
			}
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, line := range []int{d.Line, d.Line - 1} {
			for _, dir := range covers[site{d.File, line, d.Analyzer}] {
				delete(stale, dir)
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, at := range stale {
		kept = append(kept, at)
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].File != kept[j].File {
			return kept[i].File < kept[j].File
		}
		if kept[i].Line != kept[j].Line {
			return kept[i].Line < kept[j].Line
		}
		if kept[i].Col != kept[j].Col {
			return kept[i].Col < kept[j].Col
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}

// pathHasSuffix reports whether the import path ends with the given
// slash-separated suffix on a path-element boundary, so both the real
// module path (pcf/internal/lp) and the golden-test path (internal/lp)
// match "internal/lp".
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// funcFor returns the *types.Func a call resolves to, or nil for
// indirect calls, conversions, and builtins.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleeName returns the syntactic name of a call target ("" when the
// callee is not a named function or method).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// enclosingFuncName maps every node position to the name of the
// innermost enclosing function declaration.
type funcScopes struct {
	decls []*ast.FuncDecl
}

func newFuncScopes(f *ast.File) *funcScopes {
	fs := &funcScopes{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fs.decls = append(fs.decls, fd)
		}
	}
	return fs
}

func (fs *funcScopes) nameAt(pos token.Pos) string {
	for _, fd := range fs.decls {
		if fd.Pos() <= pos && pos <= fd.End() {
			return fd.Name.Name
		}
	}
	return ""
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
