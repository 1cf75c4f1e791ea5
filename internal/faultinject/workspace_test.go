package faultinject

import (
	"fmt"
	"math"
	"testing"

	"pcf/internal/lp"
)

// sameAnswer requires two optimal solutions of the same model to be
// bit-identical in every value and every dual.
func sameAnswer(t *testing.T, label string, rows int, got, want *lp.Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, fresh %v", label, got.Status, want.Status)
	}
	if want.Status != lp.StatusOptimal {
		return
	}
	gv, wv := got.Values(), want.Values()
	for j := range wv {
		if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
			t.Fatalf("%s: value[%d] = %.17g, fresh %.17g", label, j, gv[j], wv[j])
		}
	}
	for r := 0; r < rows; r++ {
		if math.Float64bits(got.Dual(r)) != math.Float64bits(want.Dual(r)) {
			t.Fatalf("%s: dual[%d] = %.17g, fresh %.17g", label, r, got.Dual(r), want.Dual(r))
		}
	}
}

// TestWorkspaceCarriesNothingOver: a Compiled keeps its factorization
// workspace from solve to solve, and nothing but capacity may survive
// in it. Across the corpus, a cold solve on a used workspace must be
// bit-identical — values and duals — to the cold solve of a freshly
// compiled copy: solved twice in a row, after AddRow raised the row
// count (cold, then warm from the old basis), and after a warm start
// that pivoted, broke down and fell back to the cold path inside one
// Solve (leaving a partitioned, factored warm basis and its eta chain
// behind in the workspace).
func TestWorkspaceCarriesNothingOver(t *testing.T) {
	fallbacks := 0
	for i, m := range LPCorpus(7) {
		label := fmt.Sprintf("corpus[%d]", i)
		solve := func(cm *lp.Compiled, opts lp.Options) *lp.Solution {
			t.Helper()
			sol, err := cm.Solve(opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return sol
		}
		rows := m.NumConstraints()
		used := lp.Compile(m)
		first := solve(used, lp.Options{})
		sameAnswer(t, label+"/again", rows, solve(used, lp.Options{}), first)

		// A warm start that breaks down after its first pivot: the RHS
		// edits make the old basis primal infeasible, the dual simplex
		// pivots, the hook reports a numerical failure once, and Solve
		// falls back to the cold path on the same workspace.
		shrink := func(cm *lp.Compiled) {
			for r := 0; r < cm.NumRows(); r++ {
				cm.SetRowRHS(r, cm.RowRHS(r)*0.7)
			}
		}
		shrink(used)
		fired := false
		broken := solve(used, lp.Options{WarmStart: first.Basis, FaultHook: func(ev lp.FaultEvent) error {
			if !fired && ev.Point == lp.FaultIteration && ev.Iter >= 1 {
				fired = true
				return lp.ErrNumerical
			}
			return nil
		}})
		fresh := lp.Compile(m)
		shrink(fresh)
		if fired {
			if broken.Stats.WarmHit {
				t.Fatalf("%s: the injected failure did not force the cold path", label)
			}
			fallbacks++
			sameAnswer(t, label+"/fallback", rows, broken, solve(fresh, lp.Options{}))
		}

		// Appended row: m grows, the workspace's buffers are re-sliced.
		v0 := lp.Var(0)
		capRow := func(cm *lp.Compiled) {
			cm.AddRow(lp.NewExpr().Add(1, v0), lp.LE, first.Value(v0)/2)
		}
		capRow(used)
		capRow(fresh)
		sameAnswer(t, label+"/addrow", rows+1, solve(used, lp.Options{}), solve(fresh, lp.Options{}))
		// And warm from the old basis, whose refactorization partitions a
		// basis with a kernel into the re-sliced buffers straight away.
		fresh = lp.Compile(m)
		shrink(fresh)
		capRow(fresh)
		warm := lp.Options{WarmStart: first.Basis}
		sameAnswer(t, label+"/addrow-warm", rows+1, solve(used, warm), solve(fresh, warm))
	}
	if fallbacks == 0 {
		t.Fatal("no corpus model took the warm→cold fallback; the test lost its third case")
	}
}
