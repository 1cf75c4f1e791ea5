package lp

import (
	"math"
	"slices"
	"testing"
)

// buildCapModel builds a small capacitated-flow-shaped LP:
// maximize z with per-"arc" usage bounded by capacity rows whose RHS
// the tests then toggle, mimicking the mcf scenario sweep.
func buildCapModel(t *testing.T) (*Model, Var, []int) {
	t.Helper()
	m := NewModel()
	z := m.AddNonNeg()
	x := make([]Var, 4)
	for i := range x {
		x[i] = m.AddNonNeg()
	}
	// Two "paths" carrying z: x0+x1 and x2+x3.
	m.AddConstraint(NewExpr().Add(1, x[0]).Add(-1, x[1]), EQ, 0)
	m.AddConstraint(NewExpr().Add(1, x[2]).Add(-1, x[3]), EQ, 0)
	m.AddConstraint(NewExpr().Add(1, x[0]).Add(1, x[2]).Add(-1, z), GE, 0)
	caps := make([]int, 4)
	for i := range x {
		caps[i] = m.AddConstraint(NewExpr().Add(1, x[i]), LE, float64(3+i))
	}
	m.SetObjective(NewExpr().Add(1, z), Maximize)
	return m, z, caps
}

func TestWarmSameRHSNoWork(t *testing.T) {
	m, _, _ := buildCapModel(t)
	cm := Compile(m)
	sol, err := cm.Solve(Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("cold solve: %v status %v", err, sol.Status)
	}
	if sol.Basis == nil {
		t.Fatal("optimal solution missing basis")
	}
	warm, err := cm.Solve(Options{WarmStart: sol.Basis})
	if err != nil || warm.Status != StatusOptimal {
		t.Fatalf("warm solve: %v status %v", err, warm.Status)
	}
	if !warm.Stats.WarmHit {
		t.Fatal("unchanged re-solve did not take the warm path")
	}
	if math.Abs(warm.Objective-sol.Objective) > 1e-9*(1+math.Abs(sol.Objective)) {
		t.Fatalf("warm objective %g != cold %g", warm.Objective, sol.Objective)
	}
	if it := warm.Stats.Iterations(); it > 2 {
		t.Fatalf("unchanged warm re-solve took %d iterations", it)
	}
}

func TestWarmAfterRHSToggle(t *testing.T) {
	m, _, caps := buildCapModel(t)
	cm := Compile(m)
	sol, err := cm.Solve(Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("cold solve: %v status %v", err, sol.Status)
	}
	basis := sol.Basis
	// Toggle each capacity to zero and back, comparing warm vs cold.
	for _, row := range caps {
		saved := cm.RowRHS(row)
		cm.SetRowRHS(row, 0)
		warm, err := cm.Solve(Options{WarmStart: basis})
		if err != nil || warm.Status != StatusOptimal {
			t.Fatalf("warm solve row %d: %v status %v", row, err, warm.Status)
		}
		cold, err := cm.Solve(Options{})
		if err != nil || cold.Status != StatusOptimal {
			t.Fatalf("cold solve row %d: %v status %v", row, err, cold.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
			t.Fatalf("row %d: warm %g != cold %g", row, warm.Objective, cold.Objective)
		}
		if !warm.Stats.WarmHit {
			t.Errorf("row %d: warm start fell back to cold", row)
		}
		cm.SetRowRHS(row, saved)
	}
}

func TestWarmAfterAddRow(t *testing.T) {
	m, z, _ := buildCapModel(t)
	cm := Compile(m)
	sol, err := cm.Solve(Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("cold solve: %v status %v", err, sol.Status)
	}
	// Append a violated cut: z <= half its current optimum.
	cut := sol.Objective / 2
	cm.AddRow(NewExpr().Add(1, z), LE, cut)
	warm, err := cm.Solve(Options{WarmStart: sol.Basis})
	if err != nil || warm.Status != StatusOptimal {
		t.Fatalf("warm solve: %v status %v", err, warm.Status)
	}
	if !warm.Stats.WarmHit {
		t.Error("appended-row warm start fell back to cold")
	}
	if math.Abs(warm.Objective-cut) > 1e-9*(1+cut) {
		t.Fatalf("warm objective %g, want %g", warm.Objective, cut)
	}
	// An equivalent model built from scratch must agree.
	m2, z2, _ := buildCapModel(t)
	m2.AddConstraint(NewExpr().Add(1, z2), LE, cut)
	cold, err := Solve(m2)
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("fresh cold solve: %v status %v", err, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
		t.Fatalf("warm %g != fresh cold %g", warm.Objective, cold.Objective)
	}
}

// TestWarmAppendedEQGoesCold: an appended EQ row the warm basis does
// not satisfy leaves its artificial basic and carrying value. The warm
// path does not repair that; it hands the solve to the cold path,
// which it must then agree with.
func TestWarmAppendedEQGoesCold(t *testing.T) {
	m, z, _ := buildCapModel(t)
	cm := Compile(m)
	sol, err := cm.Solve(Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("cold solve: %v status %v", err, sol.Status)
	}
	want := sol.Objective / 3
	cm.AddRow(NewExpr().Add(1, z), EQ, want)
	warm, err := cm.Solve(Options{WarmStart: sol.Basis})
	if err != nil || warm.Status != StatusOptimal {
		t.Fatalf("warm solve: %v status %v", err, warm.Status)
	}
	if !warm.Stats.WarmStarted || warm.Stats.WarmHit {
		t.Fatalf("warm started %v, hit %v: want a cold fallback", warm.Stats.WarmStarted, warm.Stats.WarmHit)
	}
	cold, err := cm.Solve(Options{})
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("cold re-solve: %v status %v", err, cold.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
		t.Fatalf("warm %g != cold %g", warm.Objective, cold.Objective)
	}
	if math.Abs(warm.Objective-want) > 1e-9*(1+want) {
		t.Fatalf("pinned objective %g, want %g", warm.Objective, want)
	}
}

func TestWarmInfeasibleRHSFallsBackConsistently(t *testing.T) {
	// Force an infeasible system via RHS edits: x <= 1 with x >= 2.
	m := NewModel()
	x := m.AddNonNeg()
	up := m.AddConstraint(NewExpr().Add(1, x), LE, 5)
	m.AddConstraint(NewExpr().Add(1, x), GE, 2)
	m.SetObjective(NewExpr().Add(1, x), Maximize)
	cm := Compile(m)
	sol, err := cm.Solve(Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("cold solve: %v status %v", err, sol.Status)
	}
	cm.SetRowRHS(up, 1)
	warm, err := cm.Solve(Options{WarmStart: sol.Basis})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", warm.Status)
	}
}

// TestWarmInfeasibleAfterDualPivots makes the warm basis infeasible in
// two places by RHS edits: the worse one the dual simplex repairs with
// a pivot, the other has no admissible pivot — the LP is infeasible.
// That verdict is reached on the second iteration since the refactor,
// so it is confirmed by one more refactorization; the solve must then
// hand over to the cold path at once and agree with it.
func TestWarmInfeasibleAfterDualPivots(t *testing.T) {
	m := NewModel()
	x, y := m.AddNonNeg(), m.AddNonNeg()
	u, v := m.AddNonNeg(), m.AddNonNeg()
	upX := m.AddConstraint(NewExpr().Add(1, x), LE, 5)
	upY := m.AddConstraint(NewExpr().Add(1, y), LE, 5)
	m.AddConstraint(NewExpr().Add(1, x).Add(1, y), GE, 2)
	sum := m.AddConstraint(NewExpr().Add(1, u).Add(1, v), LE, 4)
	m.AddConstraint(NewExpr().Add(1, u), LE, 3)
	m.SetObjective(NewExpr().Add(1, x).Add(1, y).Add(2, u).Add(1, v), Maximize)
	cm := Compile(m)
	sol, err := cm.Solve(Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("cold solve: %v status %v", err, sol.Status)
	}
	cm.SetRowRHS(sum, 2)   // v = 2 - u = -1: repairable
	cm.SetRowRHS(upX, 1)   // x + y = 1.5 < 2: infeasible
	cm.SetRowRHS(upY, 0.5) //
	refactors := 0
	hook := func(ev FaultEvent) error {
		if ev.Point == FaultRefactor {
			refactors++
		}
		return nil
	}
	warm, err := cm.Solve(Options{WarmStart: sol.Basis, FaultHook: hook})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	cold, err := cm.Solve(Options{})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if warm.Status != StatusInfeasible || cold.Status != StatusInfeasible {
		t.Fatalf("warm %v, cold %v, want both infeasible", warm.Status, cold.Status)
	}
	if refactors > 8 {
		t.Fatalf("warm solve refactorized %d times", refactors)
	}
}

// TestSparseFactorSteadyStateAllocs: after one warm-up cycle the
// factor's refactor — partition, kernel transpose and LU — FTRAN,
// BTRAN from c_B's non-zero list, inverse row, dense solve, the ratio
// test's candidate list and a pivot there and back (eta update, c_B and
// its list gaining a position and losing it) run out of the workspace's
// reused buffers: a simplex iteration allocates nothing, and neither do
// a solve's hundred refactorizations.
func TestSparseFactorSteadyStateAllocs(t *testing.T) {
	m := NewModel()
	obj := NewExpr()
	x := make([]Var, 12)
	for i := range x {
		x[i] = m.AddNonNeg()
		obj.Add(1+float64(i%3), x[i])
	}
	for i := 0; i+1 < len(x); i++ {
		m.AddConstraint(NewExpr().Add(1, x[i]).Add(2, x[i+1]), LE, 4)
	}
	m.SetObjective(obj, Maximize)
	cm := Compile(m)
	st := newSimplexState(cm, Options{}.withDefaults(cm.nRows, cm.nCols))
	cost := st.phase2Cost()
	if status, err := st.runPhase(cost, false); err != nil || status != StatusOptimal {
		t.Fatalf("phase 2 from the slack start: %v, %v", status, err)
	}
	enter := 0
	for st.inB[enter] {
		enter++
	}
	d, y := st.d, st.y
	st.ftran(enter, d)
	r := 0
	for d[r] == 0 {
		r++
	}
	// The costs make the pivot in add position r to c_B's non-zero list
	// and the pivot back take it out.
	left := st.basis[r]
	probe := append([]float64(nil), cost...)
	probe[enter], probe[left] = 1, 0
	st.costs.reset(probe, st.basis)
	listed := 0
	cycle := func() {
		if !st.refactor() {
			t.Fatal("refactor failed")
		}
		st.fac.invRow(0, y)
		st.fac.applyInv(cm.b, d)
		st.btran(y)
		st.ftran(enter, d)
		st.ratioRows(d, 1e-8)
		st.pivot(enter, r, d)
		listed = len(st.costs.nz)
		st.btran(y) // through the eta
		st.ftran(left, d)
		st.pivot(left, r, d)
		st.btran(y)
	}
	cycle()
	if k := len(st.fac.kPos); k == 0 || k == st.m {
		t.Fatalf("the optimal basis has a kernel of %d of %d rows: the cycle should cross both blocks of the solve", k, st.m)
	}
	if listed != len(st.costs.nz)+1 {
		t.Fatalf("c_B lists %d positions after the pivot and %d after the pivot back, want one more", listed, len(st.costs.nz))
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("refactor + solves + two pivots allocate %v times per cycle in steady state", allocs)
	}
}

// TestAddColumnWarmMatchesCold: a column appended to a solved Compiled
// leaves the captured basis primal feasible, so the warm re-solve takes
// the warm path, prices the column in and reaches the optimum a cold
// solve of the model built with the column from the start reaches. A
// row appended after it may use the new variable. The Compiled the
// column went into was a clone, and its source still solves the model
// without the column.
func TestAddColumnWarmMatchesCold(t *testing.T) {
	m, _, caps := buildCapModel(t)
	src := Compile(m)
	cm := src.Clone()
	sol, err := cm.Solve(Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("cold solve: %v status %v", err, sol.Status)
	}
	// A third path carrying z through x3's capacity, worth 0.1 besides.
	y := cm.AddColumn(0.1, []ColTerm{{Row: 2, Coeff: 1}, {Row: caps[3], Coeff: 0.5}, {Row: caps[3], Coeff: 0.5}})
	warm, err := cm.Solve(Options{WarmStart: sol.Basis})
	if err != nil || warm.Status != StatusOptimal {
		t.Fatalf("warm solve: %v status %v", err, warm.Status)
	}
	if !warm.Stats.WarmHit {
		t.Error("the warm start after AddColumn fell back to cold")
	}
	// The same model built with the column from the start.
	fresh := func(cut bool) *Solution {
		m2 := NewModel()
		z2 := m2.AddNonNeg()
		x := make([]Var, 4)
		for i := range x {
			x[i] = m2.AddNonNeg()
		}
		y2 := m2.AddNonNeg()
		m2.AddConstraint(NewExpr().Add(1, x[0]).Add(-1, x[1]), EQ, 0)
		m2.AddConstraint(NewExpr().Add(1, x[2]).Add(-1, x[3]), EQ, 0)
		m2.AddConstraint(NewExpr().Add(1, x[0]).Add(1, x[2]).Add(1, y2).Add(-1, z2), GE, 0)
		for i := range x {
			e := NewExpr().Add(1, x[i])
			if i == 3 {
				e.Add(1, y2)
			}
			m2.AddConstraint(e, LE, float64(3+i))
		}
		if cut {
			m2.AddConstraint(NewExpr().Add(1, y2), LE, 0.5)
		}
		m2.SetObjective(NewExpr().Add(1, z2).Add(0.1, y2), Maximize)
		cold, err := Solve(m2)
		if err != nil || cold.Status != StatusOptimal {
			t.Fatalf("fresh cold solve: %v status %v", err, cold.Status)
		}
		return cold
	}
	close := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("%s: %.12g, want %.12g", what, got, want)
		}
	}
	cold := fresh(false)
	close("objective after AddColumn", warm.Objective, cold.Objective)
	close("objective, known optimum", warm.Objective, 9.6)
	close("the new column's value", warm.Value(y), 6)

	cm.AddRow(NewExpr().Add(1, y), LE, 0.5)
	cut, err := cm.Solve(Options{WarmStart: warm.Basis})
	if err != nil || cut.Status != StatusOptimal {
		t.Fatalf("warm solve after AddRow: %v status %v", err, cut.Status)
	}
	close("objective after a row on the new column", cut.Objective, fresh(true).Objective)

	orig, err := src.Solve(Options{})
	if err != nil || orig.Status != StatusOptimal {
		t.Fatalf("source solve: %v status %v", err, orig.Status)
	}
	close("the clone's source", orig.Objective, sol.Objective)
	if v := orig.Value(y); v != 0 {
		t.Fatalf("the clone's source has a value %g for the clone's column", v)
	}
}

// TestReuseMatchesFreshSolution: a solve handed an earlier Solution to
// reuse, holding its own warm-start basis, returns that Solution
// rewritten with exactly what a solve allocating a new one returns —
// value, duals and basis, bit for bit.
func TestReuseMatchesFreshSolution(t *testing.T) {
	m, z, _ := buildCapModel(t)
	cm := Compile(m)
	first, err := cm.Solve(Options{})
	if err != nil || first.Status != StatusOptimal {
		t.Fatalf("cold solve: %v status %v", err, first.Status)
	}
	cm.AddRow(NewExpr().Add(1, z), LE, first.Objective/2)
	fresh, err := cm.Clone().Solve(Options{WarmStart: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	reused, err := cm.Solve(Options{WarmStart: first.Basis, Reuse: first})
	if err != nil {
		t.Fatal(err)
	}
	if reused != first {
		t.Fatal("the solve allocated a new Solution instead of reusing the one it was given")
	}
	if reused.Status != fresh.Status || math.Float64bits(reused.Objective) != math.Float64bits(fresh.Objective) {
		t.Fatalf("reused %v %v, fresh %v %v", reused.Status, reused.Objective, fresh.Status, fresh.Objective)
	}
	for v := Var(0); int(v) < m.NumVars(); v++ {
		if math.Float64bits(reused.Value(v)) != math.Float64bits(fresh.Value(v)) {
			t.Fatalf("variable %d: reused %g, fresh %g", v, reused.Value(v), fresh.Value(v))
		}
	}
	for r := 0; r < cm.nLogical; r++ {
		if math.Float64bits(reused.Dual(r)) != math.Float64bits(fresh.Dual(r)) {
			t.Fatalf("row %d: reused dual %g, fresh %g", r, reused.Dual(r), fresh.Dual(r))
		}
	}
	if !slices.Equal(reused.Basis.cols, fresh.Basis.cols) || reused.Basis.nRows != fresh.Basis.nRows {
		t.Fatalf("basis %v, fresh %v", reused.Basis.cols, fresh.Basis.cols)
	}
}
