package faultinject

import (
	"fmt"
	"math"
	"testing"

	"pcf/internal/lp"
	"pcf/internal/lp/lptest"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
)

// relClose reports |a-b| <= tol*(1+|b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

// checkWarmEqualsCold solves the compiled model cold and warm (from
// the supplied basis) and requires identical statuses and, when
// optimal, objectives within 1e-9 relative. It returns the cold
// solution's basis for chaining.
func checkWarmEqualsCold(t *testing.T, label string, cm *lp.Compiled, basis *lp.Basis) *lp.Basis {
	t.Helper()
	cold, err := cm.Solve(lp.Options{})
	if err != nil {
		t.Fatalf("%s: cold solve: %v", label, err)
	}
	warm, err := cm.Solve(lp.Options{WarmStart: basis})
	if err != nil {
		t.Fatalf("%s: warm solve: %v", label, err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("%s: warm status %v != cold %v", label, warm.Status, cold.Status)
	}
	if cold.Status == lp.StatusOptimal && !relClose(warm.Objective, cold.Objective, 1e-9) {
		t.Fatalf("%s: warm objective %g != cold %g", label, warm.Objective, cold.Objective)
	}
	return cold.Basis
}

// TestWarmColdEquivalenceCorpus: across the seeded LP corpus, a
// warm-started re-solve always reaches the cold solve's objective —
// unchanged, after RHS edits, and after appended rows (the three
// mutations the incremental pipeline performs).
func TestWarmColdEquivalenceCorpus(t *testing.T) {
	for i, m := range LPCorpus(7) {
		label := fmt.Sprintf("corpus[%d]", i)
		cm := lp.Compile(m)
		sol, err := cm.Solve(lp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("%s: corpus model not optimal: %v", label, sol.Status)
		}
		basis := sol.Basis

		// Unchanged re-solve.
		checkWarmEqualsCold(t, label+"/same", cm, basis)

		// RHS edits: tighten every row by 30% (zero RHS rows stay 0,
		// so EQ couplings and GE floors remain feasible).
		for r := 0; r < cm.NumRows(); r++ {
			cm.SetRowRHS(r, cm.RowRHS(r)*0.7)
		}
		basis = checkWarmEqualsCold(t, label+"/rhs", cm, basis)
		for r := 0; r < cm.NumRows(); r++ {
			cm.SetRowRHS(r, cm.RowRHS(r)/0.7)
		}
		basis = checkWarmEqualsCold(t, label+"/rhs-restore", cm, basis)

		// Appended row: cap the first variable at half its optimal
		// value. On some perturbed models this makes the LP infeasible
		// (a neighbor's upper bound can no longer cover a >= row) —
		// checkWarmEqualsCold then verifies warm and cold agree on the
		// infeasibility, which is exactly the contract.
		v0 := lp.Var(0)
		cm.AddRow(lp.NewExpr().Add(1, v0), lp.LE, sol.Value(v0)/2)
		basis = checkWarmEqualsCold(t, label+"/addrow", cm, basis)

		probe, err := cm.Solve(lp.Options{WarmStart: basis})
		if err != nil {
			t.Fatalf("%s: probe solve: %v", label, err)
		}
		if probe.Status != lp.StatusOptimal {
			continue // appended cap made the model infeasible; agreement verified above
		}
		vLast := lp.Var(m.NumVars() - 1)
		cm.AddRow(lp.NewExpr().Add(1, vLast), lp.EQ, probe.Value(vLast))
		checkWarmEqualsCold(t, label+"/pin", cm, probe.Basis)
	}
}

// gadgetFlowModel builds the single-destination max-concurrent-flow LP
// of a gadget: per-arc flow variables toward T, balance rows, capacity
// rows, maximize the demand scale z.
func gadgetFlowModel(gad *topozoo.Gadget) (*lp.Model, []int) {
	g := gad.Graph
	m := lp.NewModel()
	z := m.AddNonNeg()
	n := g.NumNodes()
	numArcs := g.NumArcs()
	vars := make([]lp.Var, numArcs)
	for a := 0; a < numArcs; a++ {
		vars[a] = m.AddNonNeg()
	}
	for v := 0; v < n; v++ {
		if topology.NodeID(v) == gad.T {
			continue
		}
		e := lp.NewExpr()
		for _, a := range g.OutArcs(topology.NodeID(v)) {
			e.Add(1, vars[a])
			e.Add(-1, vars[a^1])
		}
		if topology.NodeID(v) == gad.S {
			e.Add(-1, z)
		}
		m.AddConstraint(e, lp.EQ, 0)
	}
	capRows := make([]int, numArcs)
	for a := 0; a < numArcs; a++ {
		e := lp.NewExpr().Add(1, vars[a])
		capRows[a] = m.AddConstraint(e, lp.LE, g.ArcCapacity(topology.ArcID(a)))
	}
	m.SetObjective(lp.NewExpr().Add(1, z), lp.Maximize)
	return m, capRows
}

// TestWarmColdEquivalenceGadgets: on every paper gadget's flow LP,
// warm re-solves match cold solves while capacity rows are toggled to
// zero and back (the mcf scenario sweep's access pattern) and after a
// cut row is appended.
func TestWarmColdEquivalenceGadgets(t *testing.T) {
	gadgets := map[string]*topozoo.Gadget{
		"Fig1":        topozoo.Fig1(),
		"Fig3":        topozoo.Fig3(),
		"Fig4(3,2,3)": topozoo.Fig4(3, 2, 3),
		"Fig5":        topozoo.Fig5(),
	}
	for name, gad := range gadgets {
		m, capRows := gadgetFlowModel(gad)
		cm := lp.Compile(m)
		sol, err := cm.Solve(lp.Options{})
		if err != nil || sol.Status != lp.StatusOptimal {
			t.Fatalf("%s: base solve: %v status %v", name, err, sol.Status)
		}
		basis := sol.Basis
		// Kill each link (both arc capacity rows) in turn, as the
		// scenario sweep does.
		g := gad.Graph
		for l := 0; l < g.NumLinks(); l++ {
			fwd, rev := capRows[2*l], capRows[2*l+1]
			s1, s2 := cm.RowRHS(fwd), cm.RowRHS(rev)
			cm.SetRowRHS(fwd, 0)
			cm.SetRowRHS(rev, 0)
			basis = checkWarmEqualsCold(t, fmt.Sprintf("%s/link%d", name, l), cm, basis)
			cm.SetRowRHS(fwd, s1)
			cm.SetRowRHS(rev, s2)
		}
		// Appended violated cut: z at most half its optimum.
		cm.AddRow(lp.NewExpr().Add(1, lp.Var(0)), lp.LE, sol.Objective/2)
		checkWarmEqualsCold(t, name+"/cut", cm, basis)
	}
}

// TestSparseWarmStart checks warm starts across a whole-model RHS
// shift: every row of each corpus LP moves by 1 %, and the warm
// re-solve must match the cold one — itself certified against the
// edited rows — and fall back cleanly rather than diverge.
func TestSparseWarmStart(t *testing.T) {
	for i, m := range LPCorpus(99) {
		comp := lp.Compile(m)
		cold, err := comp.Solve(lp.Options{})
		if err != nil || cold.Status != lp.StatusOptimal {
			continue
		}
		basis := cold.Basis
		if basis == nil {
			continue
		}
		// Perturb every row RHS slightly and re-solve warm and cold.
		nr := comp.NumRows()
		for r := 0; r < nr; r++ {
			comp.SetRowRHS(r, comp.RowRHS(r)*1.01)
		}
		warm, err := comp.Solve(lp.Options{WarmStart: basis})
		if err != nil {
			t.Fatalf("corpus[%d]: warm: %v", i, err)
		}
		coldB, err := comp.Solve(lp.Options{})
		if err != nil {
			t.Fatalf("corpus[%d]: cold: %v", i, err)
		}
		if warm.Status != coldB.Status {
			t.Fatalf("corpus[%d]: warm %v, cold %v", i, warm.Status, coldB.Status)
		}
		if warm.Status != lp.StatusOptimal {
			continue
		}
		if !relClose(warm.Objective, coldB.Objective, 1e-9) {
			t.Fatalf("corpus[%d]: warm %.15g, cold %.15g", i, warm.Objective, coldB.Objective)
		}
		if err := lptest.Certify(m, comp.RowRHS, coldB); err != nil {
			t.Fatalf("corpus[%d]: cold after the shift: %v", i, err)
		}
	}
}
