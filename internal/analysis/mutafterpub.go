package analysis

import (
	"go/ast"
	"go/types"
)

// MutAfterPub treats published plans, realizations, and fleet
// envelopes as immutable. A core.Plan returned by Solve* carries the
// proved guarantee (its reservations satisfy P1/P2 for the designed
// failure set); a routing.Realization returned by Realize* has passed
// — or will be passed through — CheckRealization; a serve.Envelope is
// the checkpoint/wire form of a validated plan and a serve.Published
// is the hot-swapped epoch that concurrent requests read lock-free.
// If a caller mutates their maps, slices or fields afterwards
// (plan.TunnelRes[t] = ..., env.Plan = ...), the proof — or the
// epoch another replica installed — no longer covers the object anyone
// else sees. The analyzer flags, outside the defining package, any
// assignment through a field selector of these types (direct field
// writes, element writes through a field, delete on a field map). The
// defining packages stay free to build and post-process their own
// values (extractPlan, materialize, NewEnvelope); everyone else
// builds a new value instead of editing in place.
var MutAfterPub = &Analyzer{
	Name: "mutafterpub",
	Doc:  "core.Plan / routing.Realization / serve.Envelope / serve.Published must not be mutated outside their packages",
	Run:  runMutAfterPub,
}

// publishedTypes lists (package base name, type name) pairs protected
// by the analyzer. Matching uses the package path's last element so the
// golden-test tree (core, routing, serve) matches like the real module
// (pcf/internal/core, pcf/internal/routing, pcf/internal/serve).
var publishedTypes = [][2]string{
	{"core", "Plan"},
	{"routing", "Realization"},
	{"serve", "Envelope"},
	{"serve", "Published"},
}

func runMutAfterPub(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkMutation(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkMutation(pass, n.X)
			case *ast.CallExpr:
				// delete(x.F, k) and clear(x.F) mutate the field map.
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") {
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) > 0 {
						checkMutation(pass, n.Args[0])
					}
				}
			}
			return true
		})
	}
}

// checkMutation unwraps index/star expressions down to a field
// selector and reports if the selector's base is a protected published
// type defined in another package.
func checkMutation(pass *Pass, lhs ast.Expr) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		case *ast.SelectorExpr:
			_, name, ok := publishedBase(pass, e)
			if !ok {
				return
			}
			pass.Reportf(e.Pos(), "mutates field %s of a published %s; published plans/realizations are immutable — copy before editing",
				e.Sel.Name, name)
		}
		return
	}
}

// publishedBase reports whether sel selects a field of a protected
// type defined outside the current package. It returns the defining
// package base name and the qualified type name.
func publishedBase(pass *Pass, sel *ast.SelectorExpr) (pkgBase, typeName string, ok bool) {
	// Only field selections mutate state; method selections are fine.
	if s, found := pass.Info.Selections[sel]; !found || s.Kind() != types.FieldVal {
		return "", "", false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
		return "", "", false
	}
	base := pathBase(obj.Pkg().Path())
	for _, pt := range publishedTypes {
		if base == pt[0] && obj.Name() == pt[1] {
			return base, base + "." + obj.Name(), true
		}
	}
	return "", "", false
}

func pathBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
