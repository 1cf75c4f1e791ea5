package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// FloatCmp flags == and != between floating-point expressions. PCF's
// guarantees are proofs about LPs whose solutions carry simplex
// round-off, so exact equality on computed values silently breaks the
// tolerance discipline the solvers rely on (feasTol/optTol in
// internal/lp, the 1e-6..1e-12 ladder in routing). Allowed without a
// suppression:
//
//   - comparison against an exact constant zero (x == 0 is the
//     idiomatic sparse-entry / unset-value test and is exact for any
//     value that was stored as literal zero);
//   - comparison against math.Inf(...), which is exact by IEEE-754;
//   - comparisons inside tolerance helpers (function names matching
//     approx/almost/near/feq), which implement the discipline.
//
// Anything else needs a tolerance (math.Abs(a-b) < eps) or a justified
// //lint:ignore pcflint/floatcmp comment, e.g. for exact comparisons
// that implement a strict weak ordering in sort predicates.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flag == / != between floating-point expressions outside tolerance helpers",
	Run:  runFloatCmp,
}

var tolHelperRe = regexp.MustCompile(`(?i)(approx|almost|near|feq)`)

func runFloatCmp(pass *Pass) {
	for _, f := range pass.Files {
		scopes := newFuncScopes(f)
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.TypeOf(be.X)) && !isFloat(pass.TypeOf(be.Y)) {
				return true
			}
			if isExactZero(pass, be.X) || isExactZero(pass, be.Y) {
				return true
			}
			if isInfCall(pass, be.X) || isInfCall(pass, be.Y) {
				return true
			}
			if tolHelperRe.MatchString(scopes.nameAt(be.Pos())) {
				return true
			}
			pass.Reportf(be.OpPos, "floating-point %s comparison; use a tolerance (math.Abs(a-b) < eps) or a tolerance helper", be.Op)
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isExactZero reports whether e is a compile-time constant equal to 0.
func isExactZero(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0" || tv.Value.String() == "-0"
}

// isInfCall reports whether e is a call to math.Inf.
func isInfCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := funcFor(pass.Info, call)
	return fn != nil && fn.Name() == "Inf" && fn.Pkg() != nil && fn.Pkg().Path() == "math"
}
