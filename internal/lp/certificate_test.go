package lp_test

import (
	"testing"

	"pcf/internal/lp"
	"pcf/internal/lp/lptest"
)

// TestSlackStartRule pins which rows a cold solve starts on their
// slack: LE rows with b ≥ 0 and GE rows with b ≤ 0 do, GE rows with
// b > 0 and EQ rows need an artificial. Every answer is certified.
func TestSlackStartRule(t *testing.T) {
	m := lp.NewModel()
	x, y, z := m.AddNonNeg(), m.AddNonNeg(), m.AddVar(0, 4) // z's bound is one more LE row
	m.AddConstraint(lp.NewExpr().Add(1, x).Add(2, y), lp.LE, 10)
	m.AddConstraint(lp.NewExpr().Add(1, x).Add(-1, y), lp.GE, 0)
	m.AddConstraint(lp.NewExpr().Add(1, z).Add(-1, y), lp.GE, -1)
	m.SetObjective(lp.NewExpr().Add(1, x).Add(1, y).Add(1, z), lp.Maximize)
	sol, err := lp.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := lptest.Certify(m, nil, sol); err != nil {
		t.Fatal(err)
	}
	if sol.Stats.SlackStartRows != 4 || sol.Stats.Phase1Iters != 0 {
		t.Fatalf("%d of 4 rows slack-started, %d phase-1 iterations; want all and none",
			sol.Stats.SlackStartRows, sol.Stats.Phase1Iters)
	}

	m.AddConstraint(lp.NewExpr().Add(1, x), lp.GE, 1)
	m.AddConstraint(lp.NewExpr().Add(1, y).Add(-1, z), lp.EQ, 0)
	sol, err = lp.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := lptest.Certify(m, nil, sol); err != nil {
		t.Fatal(err)
	}
	if sol.Stats.SlackStartRows != 4 || sol.Stats.Phase1Iters == 0 {
		t.Fatalf("%d of 6 rows slack-started, %d phase-1 iterations; want 4 and some",
			sol.Stats.SlackStartRows, sol.Stats.Phase1Iters)
	}
}

// TestCertifyAfterNegativeRHS edits right-hand sides negative on a
// compiled model, which flips which rows can start on their slack (a
// compiled LE row with b < 0 cannot, a GE row with b < 0 can), and
// certifies the cold and the warm answer against the edited rows.
func TestCertifyAfterNegativeRHS(t *testing.T) {
	m := lp.NewModel()
	x, y := m.AddNonNeg(), m.AddNonNeg()
	le := m.AddConstraint(lp.NewExpr().Add(1, x).Add(-1, y), lp.LE, 4)
	ge := m.AddConstraint(lp.NewExpr().Add(1, x).Add(1, y), lp.GE, 3)
	m.AddConstraint(lp.NewExpr().Add(1, x).Add(1, y), lp.LE, 20)
	m.SetObjective(lp.NewExpr().Add(2, x).Add(1, y), lp.Minimize)
	cm := lp.Compile(m)
	first, err := cm.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lptest.Certify(m, cm.RowRHS, first); err != nil {
		t.Fatalf("before edits: %v", err)
	}
	if first.Stats.SlackStartRows != 2 {
		t.Fatalf("%d rows slack-started before edits, want 2 (le, cap)", first.Stats.SlackStartRows)
	}
	cm.SetRowRHS(le, -2) // x - y <= -2: slack would start at -2
	cm.SetRowRHS(ge, -3) // x + y >= -3: surplus starts at +3
	cold, err := cm.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lptest.Certify(m, cm.RowRHS, cold); err != nil {
		t.Fatalf("cold after edits: %v", err)
	}
	if cold.Stats.SlackStartRows != 2 {
		t.Fatalf("%d rows slack-started after edits, want 2 (ge, cap)", cold.Stats.SlackStartRows)
	}
	warm, err := cm.Solve(lp.Options{WarmStart: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if err := lptest.Certify(m, cm.RowRHS, warm); err != nil {
		t.Fatalf("warm after edits: %v", err)
	}
}

// TestCertifyRejects: the certificate is only worth something if a
// wrong answer fails it.
func TestCertifyRejects(t *testing.T) {
	m := lp.NewModel()
	x := m.AddNonNeg()
	m.AddConstraint(lp.NewExpr().Add(1, x), lp.LE, 3)
	m.SetObjective(lp.NewExpr().Add(1, x), lp.Maximize)
	cm := lp.Compile(m)
	sol, err := cm.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lptest.Certify(m, nil, sol); err != nil {
		t.Fatal(err)
	}
	// The same answer against a tighter row is infeasible, against a
	// looser one feasible but not optimal.
	for _, rhs := range []float64{2, 5} {
		if lptest.Certify(m, func(int) float64 { return rhs }, sol) == nil {
			t.Fatalf("x = 3 certified optimal for max x, x <= %g", rhs)
		}
	}
}
