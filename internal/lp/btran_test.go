package lp_test

import (
	"fmt"
	"math"
	"testing"

	"pcf/internal/lp"
)

// TestBTRANMatchesDenseOracle: BTRAN follows the non-zeros of its input
// instead of walking every row (factor.go), and the claim is that this
// changes no pivot. Each model of the LP corpus, the gadget and Sprint
// cut masters and the Sprint flow LP is compiled twice and taken through
// the same steps: a cold solve, then warm re-solves after every
// right-hand side is cut by 30 % (the dual simplex), after it is put
// back, after an appended row and after an appended EQ row pinning a
// variable at its current value. One copy solves on
// the non-zero walk alone; on the other every BTRAN also runs the dense
// oracle (btran_oracle_test.go) and must match it entry for entry, and
// the solve goes on with the oracle's prices. Both must make the same
// (entering, leaving) pivots and end on bit-equal objectives, values and
// (under ==) duals, and c_B and its non-zero list must match a fresh
// gather after every pivot.
func TestBTRANMatchesDenseOracle(t *testing.T) {
	var checked, dualIters, warmHits, phase1Iters int
	for name, m := range kernelModels(t) {
		walk, oracle := lp.Compile(m), lp.Compile(m)
		var walkBasis, oracleBasis *lp.Basis
		step := func(label string) *lp.Solution {
			t.Helper()
			got, gotTr, err := lp.SolveWithBTRANOracle(walk, lp.Options{WarmStart: walkBasis}, false)
			if err != nil {
				t.Fatalf("%s %s, non-zero walk: %v", name, label, err)
			}
			want, wantTr, err := lp.SolveWithBTRANOracle(oracle, lp.Options{WarmStart: oracleBasis}, true)
			if err != nil {
				t.Fatalf("%s %s, dense oracle: %v", name, label, err)
			}
			if err := samePath(got, want, gotTr, wantTr, walk.NumRows()); err != nil {
				t.Fatalf("%s %s: %v", name, label, err)
			}
			checked += wantTr.Checked
			dualIters += got.Stats.DualIters
			phase1Iters += got.Stats.Phase1Iters
			if got.Stats.WarmHit {
				warmHits++
			}
			if got.Status == lp.StatusOptimal {
				walkBasis, oracleBasis = got.Basis, want.Basis
			}
			return got
		}
		both := func(edit func(*lp.Compiled)) { edit(walk); edit(oracle) }

		sol := step("cold")
		if sol.Status != lp.StatusOptimal {
			continue
		}
		both(func(cm *lp.Compiled) {
			for r := 0; r < cm.NumRows(); r++ {
				cm.SetRowRHS(r, cm.RowRHS(r)*0.7)
			}
		})
		step("rhs")
		both(func(cm *lp.Compiled) {
			for r := 0; r < cm.NumRows(); r++ {
				cm.SetRowRHS(r, cm.RowRHS(r)/0.7)
			}
		})
		step("rhs-restore")
		v0 := lp.Var(0)
		both(func(cm *lp.Compiled) { cm.AddRow(lp.NewExpr().Add(1, v0), lp.LE, sol.Value(v0)/2) })
		if probe := step("addrow"); probe.Status == lp.StatusOptimal {
			vLast := lp.Var(m.NumVars() - 1)
			both(func(cm *lp.Compiled) { cm.AddRow(lp.NewExpr().Add(1, vLast), lp.EQ, probe.Value(vLast)) })
			step("pin")
		}
	}
	t.Logf("%d BTRANs checked; %d phase-1 and %d dual iterations, %d warm hits", checked, phase1Iters, dualIters, warmHits)
	if checked == 0 || dualIters == 0 || warmHits == 0 || phase1Iters == 0 {
		t.Fatalf("%d BTRANs checked, %d dual iterations, %d warm hits, %d phase-1 iterations: every path should have run", checked, dualIters, warmHits, phase1Iters)
	}
}

// samePath compares two solves of one model with rows logical rows,
// pivot for pivot and bit for bit.
func samePath(got, want *lp.Solution, gotTr, wantTr lp.BTRANTrace, rows int) error {
	if got.Status != want.Status {
		return fmt.Errorf("status %v, with the dense oracle %v", got.Status, want.Status)
	}
	if len(gotTr.Pivots) != len(wantTr.Pivots) {
		return fmt.Errorf("%d pivots, with the dense oracle %d", len(gotTr.Pivots), len(wantTr.Pivots))
	}
	for i := range gotTr.Pivots {
		if gotTr.Pivots[i] != wantTr.Pivots[i] {
			return fmt.Errorf("pivot %d (enter, leave) = %v, with the dense oracle %v", i, gotTr.Pivots[i], wantTr.Pivots[i])
		}
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Errorf("objective %.17g, with the dense oracle %.17g", got.Objective, want.Objective)
	}
	gv, wv := got.Values(), want.Values()
	for v := range wv {
		if math.Float64bits(gv[v]) != math.Float64bits(wv[v]) {
			return fmt.Errorf("value[%d] %.17g, with the dense oracle %.17g", v, gv[v], wv[v])
		}
	}
	for i := 0; i < rows; i++ {
		if g, w := got.Dual(i), want.Dual(i); g != w {
			return fmt.Errorf("dual[%d] %.17g, with the dense oracle %.17g", i, g, w)
		}
	}
	return nil
}
