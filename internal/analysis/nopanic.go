package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoPanic forbids panic(...) in internal/ library packages. The repo's
// contract since PR 1 is typed errors end to end: a panic in lp, core
// or routing can abort a long planning run that a typed error would
// have degraded gracefully (the SolveBest ladder, the sweep's cold
// fallback). The only
// sanctioned panics are the documented programmer-error constructors:
// functions whose name starts with Must/must (MustAdd, MustLoad,
// mustPath), which exist precisely to convert errors to panics for
// compile-time-fixed fixtures. Anything else needs a justified
// //lint:ignore pcflint/nopanic comment stating why the condition is
// unreachable from library inputs.
var NoPanic = &Analyzer{
	Name: "nopanic",
	Doc:  "no panic() in internal/ library packages outside Must* constructors",
	Match: func(pkgPath string) bool {
		return strings.HasPrefix(pkgPath, "internal/") || strings.Contains(pkgPath, "/internal/")
	},
	Run: runNoPanic,
}

func runNoPanic(pass *Pass) {
	for _, f := range pass.Files {
		scopes := newFuncScopes(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			// Only the builtin counts; a local function named panic
			// (unlikely, but legal) resolves to a non-builtin object.
			if obj := pass.Info.Uses[id]; obj != nil {
				if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
					return true
				}
			}
			if fn := scopes.nameAt(call.Pos()); strings.HasPrefix(fn, "Must") || strings.HasPrefix(fn, "must") {
				return true
			}
			pass.Reportf(call.Pos(), "panic in library package; return a typed error (or wrap in a Must* constructor)")
			return true
		})
	}
}
