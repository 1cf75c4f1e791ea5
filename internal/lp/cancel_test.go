package lp

import (
	"context"
	"errors"
	"testing"
)

// cancelAt returns a context and a FaultHook that cancels it at the
// top of simplex iteration k; the hook itself never fails the solve,
// so only the loop's own context check can stop it.
func cancelAt(k int) (context.Context, func(FaultEvent) error) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, func(ev FaultEvent) error {
		if ev.Point == FaultIteration && ev.Iter == k {
			cancel()
		}
		return nil
	}
}

// checkCanceledBy requires err to be a SolveError for context.Canceled
// raised at most ctxCheckPeriod iterations after iteration k, in phase.
func checkCanceledBy(t *testing.T, err error, k, phase int) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a *SolveError: %v", err)
	}
	if se.Iterations < k || se.Iterations > k+ctxCheckPeriod {
		t.Fatalf("stopped after %d iterations, want %d..%d", se.Iterations, k, k+ctxCheckPeriod)
	}
	if se.Phase != phase {
		t.Fatalf("stopped in phase %d, want %d", se.Phase, phase)
	}
}

// dualBlocksLP is n independent blocks max 2x+y, x+y ≤ 1, x ≤ 0.5. Its
// optimal basis holds both x and y of every block, so raising every
// "x ≤" row above 1 leaves each y negative: one dual-simplex pivot per
// block. It returns the model and the "x ≤" rows.
func dualBlocksLP(n int) (*Model, []int) {
	m := NewModel()
	obj := NewExpr()
	lim := make([]int, n)
	for i := range lim {
		x, y := m.AddNonNeg(), m.AddNonNeg()
		m.AddConstraint(NewExpr().Add(1, x).Add(1, y), LE, 1)
		lim[i] = m.AddConstraint(NewExpr().Add(1, x), LE, 0.5)
		obj.Add(2, x).Add(1, y)
	}
	m.SetObjective(obj, Maximize)
	return m, lim
}

// TestColdPrimalHonorsCancel: a context cancelled at iteration k of a
// cold solve stops the primal loop at its next context check.
func TestColdPrimalHonorsCancel(t *testing.T) {
	const k = 5
	cm := Compile(chainLP(200)) // 200 phase-1 pivots
	ctx, hook := cancelAt(k)
	_, err := cm.Solve(Options{Context: ctx, FaultHook: hook})
	checkCanceledBy(t, err, k, 1)
}

// TestWarmDualHonorsCancel: a context cancelled at iteration k of a
// warm re-solve after SetRowRHS stops the dual simplex loop at its
// next context check.
func TestWarmDualHonorsCancel(t *testing.T) {
	const k, n = 5, 200
	m, lim := dualBlocksLP(n)
	cm := Compile(m)
	sol, err := cm.Solve(Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("cold solve: %v, %v", sol, err)
	}
	for _, r := range lim {
		cm.SetRowRHS(r, 2)
	}
	warm, err := cm.Solve(Options{WarmStart: sol.Basis})
	if err != nil || !warm.Stats.WarmHit || warm.Stats.DualIters < k+ctxCheckPeriod {
		t.Fatalf("uncancelled warm solve: %v, %d dual iterations, warm hit %v: the dual loop must outlast the check", err, warm.Stats.DualIters, warm.Stats.WarmHit)
	}
	ctx, hook := cancelAt(k)
	_, err = cm.Solve(Options{WarmStart: sol.Basis, Context: ctx, FaultHook: hook})
	checkCanceledBy(t, err, k, 3)
}
