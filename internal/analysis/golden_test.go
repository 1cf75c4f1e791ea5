package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation from a `// want "regex"` trailing
// comment in a testdata source file.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// runGolden loads the named directories from testdata/src in
// bare-directory mode, runs exactly one analyzer, and matches the
// resulting diagnostics bidirectionally against `// want` comments:
// every diagnostic must land on a line with a matching want, and every
// want must be hit by a diagnostic. Diagnostics from the "directive"
// pseudo-analyzer (malformed suppressions) are returned to the caller
// instead of matched, since a malformed-directive line cannot also
// carry a want comment.
func runGolden(t *testing.T, a *Analyzer, dirs ...string) []Diagnostic {
	t.Helper()
	return runGoldenLoader(t, a, false, dirs...)
}

// runGoldenLoader is runGolden with control over whether _test.go
// fixture files are loaded too.
func runGoldenLoader(t *testing.T, a *Analyzer, includeTests bool, dirs ...string) []Diagnostic {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	l := &Loader{Dir: root, IncludeTests: includeTests}
	pkgs, err := l.Load(dirs)
	if err != nil {
		t.Fatalf("load %v: %v", dirs, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("load %v: no packages", dirs)
	}
	diags := Run(pkgs, []*Analyzer{a})

	type key struct {
		file string
		line int
	}
	type want struct {
		re  *regexp.Regexp
		hit bool
	}
	wants := map[key][]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], &want{re: re})
				}
			}
		}
	}

	var directives []Diagnostic
	for _, d := range diags {
		if d.Analyzer == "directive" {
			directives = append(directives, d)
			continue
		}
		matched := false
		for _, w := range wants[key{d.File, d.Line}] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s:%d: want diagnostic matching %q, got none", k.file, k.line, w.re)
			}
		}
	}
	return directives
}

func TestFloatCmpGolden(t *testing.T)    { runGolden(t, FloatCmp, "floatcmp") }
func TestCheckedErrGolden(t *testing.T)  { runGolden(t, CheckedErr, "checkederr", "internal/routing") }
func TestNoPanicGolden(t *testing.T)     { runGolden(t, NoPanic, "internal/quiet") }
func TestMutAfterPubGolden(t *testing.T) { runGolden(t, MutAfterPub, "mutafterpub") }
func TestCtxHTTPGolden(t *testing.T)     { runGolden(t, CtxHTTP, "ctxhttp") }

// TestFloatCmpLiteralGolden holds floatcmp's literal rule: a bare
// float below 1e-3 under internal/ is flagged, the same literal in the
// vocabulary package or a _test.go file is not, nor is one at or above
// 1e-3, and a reasoned suppression takes.
func TestFloatCmpLiteralGolden(t *testing.T) {
	if d := runGoldenLoader(t, FloatCmp, true, "internal/tol", "internal/bare"); len(d) != 0 {
		t.Errorf("directive diagnostics %v, want none", d)
	}
}

// TestCtxHTTPTestFilesGolden reloads the ctxhttp fixture with its
// _test.go file: the client-literal rule goes quiet there while the
// default-client call rule keeps firing.
func TestCtxHTTPTestFilesGolden(t *testing.T) {
	runGoldenLoader(t, CtxHTTP, true, "ctxhttp")
}

// TestSuppression checks the directive machinery end to end: right-
// analyzer directives on the same line or the line above suppress,
// wrong-analyzer directives do not, and a directive without a reason or
// one that suppresses nothing is itself reported.
func TestSuppression(t *testing.T) {
	check := func(diags []Diagnostic) {
		t.Helper()
		want := map[int]string{15: "malformed suppression", 17: "pcflint/floatcmp suppresses nothing"}
		var got []Diagnostic
		for _, d := range diags {
			if d.Analyzer == "directive" {
				got = append(got, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("got %d directive diagnostics, want %d: %v", len(got), len(want), got)
		}
		for _, d := range got {
			if !strings.Contains(d.Message, want[d.Line]) || filepath.Base(d.File) != "suppress.go" {
				t.Errorf("directive diagnostic %v, want suppress.go:%d %q", d, d.Line, want[d.Line])
			}
		}
	}
	// The nopanic directive on line 13 suppresses nothing either. It is
	// not reported when nopanic is left out of the run, nor when
	// nopanic runs but its Match scope leaves this package out.
	check(runGolden(t, FloatCmp, "suppress"))
	check(Run(loadFixture(t, "suppress"), []*Analyzer{FloatCmp, NoPanic}))
}

// TestAnalyzerScoping checks that Match keeps analyzers out of
// packages they do not apply to: nopanic is inert outside its
// internal/ scope even when violations are present. floatcmp's literal
// rule covers internal/ and cmd/ but not internal/tol, benchmark/ or
// examples/.
func TestAnalyzerScoping(t *testing.T) {
	if NoPanic.Match("cmd/pcflint") {
		t.Error("nopanic should not match cmd/ packages")
	}
	if !NoPanic.Match("pcf/internal/lp") || !NoPanic.Match("internal/lp") {
		t.Error("nopanic should match internal packages in both path styles")
	}
	for path, want := range map[string]bool{
		"pcf/internal/lp": true, "internal/lp": true, "pcf/cmd/pcfplan": true,
		"pcf/internal/tol": false, "internal/tol": false,
		"pcf/benchmark": false, "pcf/examples/quickstart": false, "pcf": false,
	} {
		if got := inVocabularyScope(path); got != want {
			t.Errorf("inVocabularyScope(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestSuppressionEdgeCases pins the directive corner cases: a directive
// whose comment group continues (blank // line or trailing prose) still
// suppresses the code line below the group, and a directive naming an
// unknown analyzer is reported as its own finding and suppresses
// nothing.
func TestSuppressionEdgeCases(t *testing.T) {
	directives := runGolden(t, FloatCmp, "suppressedge")
	if len(directives) != 1 {
		t.Fatalf("got %d directive diagnostics, want 1: %v", len(directives), directives)
	}
	d := directives[0]
	if !strings.Contains(d.Message, `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("directive diagnostic message = %q, want unknown analyzer", d.Message)
	}
	if filepath.Base(d.File) != "suppressedge.go" {
		t.Errorf("directive diagnostic in %s, want suppressedge.go", d.File)
	}
}

// TestByName exercises analyzer selection.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("floatcmp, nopanic")
	if err != nil || len(two) != 2 || two[0].Name != "floatcmp" || two[1].Name != "nopanic" {
		t.Fatalf("ByName(floatcmp, nopanic) = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
}
