package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatal("sense strings wrong")
	}
	if Sense(9).String() != "?" {
		t.Fatal("unknown sense")
	}
	if StatusOptimal.String() != "optimal" || Status(9).String() != "unknown" {
		t.Fatal("status strings wrong")
	}
}

func TestIterLimitStatus(t *testing.T) {
	// A feasible LP with an absurdly small iteration budget.
	m := NewModel()
	vars := make([]Var, 12)
	for i := range vars {
		vars[i] = m.AddVar(0, 1)
	}
	obj := NewExpr()
	for _, v := range vars {
		obj.Add(1, v)
	}
	for i := 0; i+1 < len(vars); i++ {
		m.AddConstraint(NewExpr().Add(1, vars[i]).Add(1, vars[i+1]), LE, 1.5)
	}
	m.SetObjective(obj, Maximize)
	sol, err := SolveWithOptions(m, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusIterLimit {
		t.Fatalf("status = %v, want iteration-limit", sol.Status)
	}
}

func TestVarBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted bounds")
		}
	}()
	m := NewModel()
	m.AddVar(2, 1)
}

func TestDualOnEqualityRow(t *testing.T) {
	// max x+y s.t. x+y = 4 (dual 1), x <= 3.
	m := NewModel()
	x := m.AddVar(0, 3)
	y := m.AddNonNeg()
	eq := m.AddConstraint(NewExpr().Add(1, x).Add(1, y), EQ, 4)
	m.SetObjective(NewExpr().Add(1, x).Add(1, y), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 4, "objective")
	approx(t, sol.Dual(eq), 1, "equality dual")
}

// TestHighlyDegenerateAssignment exercises Bland's fallback on a
// degenerate assignment polytope.
func TestHighlyDegenerateAssignment(t *testing.T) {
	const n = 6
	m := NewModel()
	x := make([][]Var, n)
	for i := range x {
		x[i] = make([]Var, n)
		for j := range x[i] {
			x[i][j] = m.AddNonNeg()
		}
	}
	for i := 0; i < n; i++ {
		rowE, colE := NewExpr(), NewExpr()
		for j := 0; j < n; j++ {
			rowE.Add(1, x[i][j])
			colE.Add(1, x[j][i])
		}
		m.AddConstraint(rowE, EQ, 1)
		m.AddConstraint(colE, EQ, 1)
	}
	rng := rand.New(rand.NewSource(3))
	obj := NewExpr()
	costs := make([][]float64, n)
	for i := range costs {
		costs[i] = make([]float64, n)
		for j := range costs[i] {
			costs[i][j] = float64(rng.Intn(10))
			obj.Add(costs[i][j], x[i][j])
		}
	}
	m.SetObjective(obj, Minimize)
	sol := mustOptimal(t, m)
	// Cross-check with brute-force assignment enumeration.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			total := 0.0
			for r, c := range perm {
				total += costs[r][c]
			}
			if total < best {
				best = total
			}
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	approx(t, sol.Objective, best, "assignment optimum")
}

func BenchmarkSolveTransportation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const plants, markets = 12, 18
	supply := make([]float64, plants)
	demand := make([]float64, markets)
	total := 0.0
	for j := range demand {
		demand[j] = 1 + 9*rng.Float64()
		total += demand[j]
	}
	for i := range supply {
		supply[i] = total / plants * 1.2
	}
	build := func() *Model {
		m := NewModel()
		x := make([][]Var, plants)
		for i := range x {
			x[i] = make([]Var, markets)
			for j := range x[i] {
				x[i][j] = m.AddNonNeg()
			}
		}
		for i := 0; i < plants; i++ {
			e := NewExpr()
			for j := 0; j < markets; j++ {
				e.Add(1, x[i][j])
			}
			m.AddConstraint(e, LE, supply[i])
		}
		for j := 0; j < markets; j++ {
			e := NewExpr()
			for i := 0; i < plants; i++ {
				e.Add(1, x[i][j])
			}
			m.AddConstraint(e, GE, demand[j])
		}
		obj := NewExpr()
		for i := 0; i < plants; i++ {
			for j := 0; j < markets; j++ {
				obj.Add(1+10*rng.Float64(), x[i][j])
			}
		}
		m.SetObjective(obj, Minimize)
		return m
	}
	m := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := Solve(m)
		if err != nil || sol.Status != StatusOptimal {
			b.Fatalf("%v %v", err, sol.Status)
		}
	}
}

func BenchmarkRobustCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := NewModel()
		p := NewPolytope()
		costs := make([]*Expr, 20)
		constPart := NewExpr()
		var bud []AdvTerm
		for k := 0; k < 20; k++ {
			a := m.AddNonNeg()
			y := p.AddVar()
			p.AddUpperBound(y, 1)
			bud = append(bud, AdvTerm{y, 1})
			costs[k] = NewExpr().Add(-1, a)
			constPart.Add(1, a)
		}
		p.AddRow(bud, LE, 2)
		z := m.AddNonNeg()
		RobustGE(m, p, costs, constPart, NewExpr().Add(1, z))
	}
}

// TestRandomWithEqualityAndFreeVars stresses the standard-form
// conversion: random LPs mixing EQ rows, free variables and negative
// bounds, cross-checked against brute-force vertex enumeration.
func TestRandomWithEqualityAndFreeVars(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(3)
		m := NewModel()
		vars := make([]Var, n)
		for i := range vars {
			switch rng.Intn(3) {
			case 0:
				vars[i] = m.AddVar(0, 1+4*rng.Float64())
			case 1:
				vars[i] = m.AddVar(-2, 3)
			default:
				// Free variable, later pinned by constraints.
				vars[i] = m.AddVar(math.Inf(-1), math.Inf(1))
			}
		}
		// Box everything so the LP stays bounded even with free vars.
		for i := range vars {
			m.AddConstraint(NewExpr().Add(1, vars[i]), GE, -4)
			m.AddConstraint(NewExpr().Add(1, vars[i]), LE, 4)
		}
		k := 1 + rng.Intn(3)
		for r := 0; r < k; r++ {
			e := NewExpr()
			for i := 0; i < n; i++ {
				e.Add(math.Floor(5*rng.Float64()-2), vars[i])
			}
			sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
			m.AddConstraint(e, sense, math.Floor(6*rng.Float64()-2))
		}
		obj := NewExpr()
		for i := 0; i < n; i++ {
			obj.Add(math.Floor(7*rng.Float64()-3), vars[i])
		}
		m.SetObjective(obj, Maximize)
		sol, err := Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		want, feasible := bruteForceLPFull(m)
		if !feasible {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: got %v, brute force infeasible", trial, sol.Status)
			}
			continue
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v (brute force %g)", trial, sol.Status, want)
		}
		approx(t, sol.Objective, want, "vs brute force with EQ/free vars")
	}
}
