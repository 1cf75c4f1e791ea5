package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CheckedErr enforces that solver and realization results are never
// silently dropped: Solve* reports numerical breakdown and
// cancellation, Realize* singular matrices and oversubscription, and
// (*routing.Sweep).Check — resolved by type — is the verifier of
// Proposition 6. It flags calls to them (and to lp's Solve entry points
// and method values like lu.Solve) whose error result is assigned to
// the blank identifier or whose results are discarded entirely
// (expression statements, go/defer calls).
var CheckedErr = &Analyzer{
	Name: "checkederr",
	Doc:  "Solve*/Realize*/Sweep.Check errors must not be dropped or assigned to _",
	Run:  runCheckedErr,
}

// checkedCallee reports whether the called function is one whose error
// the analyzer protects.
func checkedCallee(pass *Pass, call *ast.CallExpr) (string, bool) {
	name := calleeName(call)
	if name == "" {
		return "", false
	}
	if name == "Check" {
		return "Sweep.Check", isSweepCheck(funcFor(pass.Info, call))
	}
	if strings.HasPrefix(name, "Solve") || strings.HasPrefix(name, "Realize") {
		return name, true
	}
	// lp.*Solve: any exported function of an lp package with Solve in
	// its name (covers future SolveDual etc. without a rename here).
	if strings.Contains(name, "Solve") {
		if fn := funcFor(pass.Info, call); fn != nil && fn.Pkg() != nil && pathHasSuffix(fn.Pkg().Path(), "internal/lp") {
			return name, true
		}
	}
	return "", false
}

// isSweepCheck reports whether fn is a method Check on a type Sweep
// of a package whose path ends in internal/routing.
func isSweepCheck(fn *types.Func) bool {
	var recv *types.Var
	if fn != nil {
		recv = fn.Type().(*types.Signature).Recv()
	}
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Sweep" && pathHasSuffix(named.Obj().Pkg().Path(), "internal/routing")
}

// errResultIndexes returns the positions of error-typed results in the
// call's signature (nil when the callee is not a simple function or
// has no error results).
func errResultIndexes(pass *Pass, call *ast.CallExpr) []int {
	t := pass.TypeOf(call.Fun)
	sig, ok := t.(*types.Signature)
	if !ok {
		return nil
	}
	var out []int
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			out = append(out, i)
		}
	}
	return out
}

func runCheckedErr(pass *Pass) {
	checkDropped := func(call *ast.CallExpr, how string) {
		name, ok := checkedCallee(pass, call)
		if !ok || len(errResultIndexes(pass, call)) == 0 {
			return
		}
		pass.Reportf(call.Pos(), "error from %s is %s; handle it or degrade explicitly", name, how)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDropped(call, "discarded")
				}
			case *ast.GoStmt:
				checkDropped(n.Call, "discarded by go statement")
			case *ast.DeferStmt:
				checkDropped(n.Call, "discarded by defer")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
}

// checkBlankAssign flags `_ = Solve(...)` and `x, _ := Realize(...)`
// where the blank identifier covers an error result.
func checkBlankAssign(pass *Pass, as *ast.AssignStmt) {
	// Tuple-call form: lhs... = f().
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		name, protected := checkedCallee(pass, call)
		if !protected {
			return
		}
		for _, i := range errResultIndexes(pass, call) {
			if i < len(as.Lhs) && isBlank(as.Lhs[i]) {
				pass.Reportf(as.Lhs[i].Pos(), "error from %s assigned to _; handle it or degrade explicitly", name)
			}
		}
		return
	}
	// Parallel form: a, b = f(), g().
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		name, protected := checkedCallee(pass, call)
		if !protected || len(errResultIndexes(pass, call)) == 0 {
			continue
		}
		pass.Reportf(as.Lhs[i].Pos(), "error from %s assigned to _; handle it or degrade explicitly", name)
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
