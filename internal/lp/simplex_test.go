package lp

import (
	"math"
	"math/rand"
	"testing"
)

const tol = 1e-6

func approx(t *testing.T, got, want float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("%s: got %.9g, want %.9g", msg, got, want)
	}
}

func mustOptimal(t *testing.T, m *Model) *Solution {
	t.Helper()
	sol, err := Solve(m)
	if err != nil {
		t.Fatalf("solve error: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestMaximizeSimple2D(t *testing.T) {
	// max 3x + 2y s.t. x+y <= 4, x+3y <= 6, x,y >= 0. Optimum at (4,0): 12.
	m := NewModel()
	x := m.AddNonNeg()
	y := m.AddNonNeg()
	m.AddConstraint(NewExpr().Add(1, x).Add(1, y), LE, 4)
	m.AddConstraint(NewExpr().Add(1, x).Add(3, y), LE, 6)
	m.SetObjective(NewExpr().Add(3, x).Add(2, y), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 12, "objective")
	approx(t, sol.Value(x), 4, "x")
	approx(t, sol.Value(y), 0, "y")
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3. Optimum 2*7+3*3 = 23.
	m := NewModel()
	x := m.AddVar(2, math.Inf(1))
	y := m.AddVar(3, math.Inf(1))
	m.AddConstraint(NewExpr().Add(1, x).Add(1, y), GE, 10)
	m.SetObjective(NewExpr().Add(2, x).Add(3, y), Minimize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 23, "objective")
	approx(t, sol.Value(x), 7, "x")
	approx(t, sol.Value(y), 3, "y")
}

func TestEqualityConstraint(t *testing.T) {
	// max x + y s.t. x + 2y = 4, x <= 3. Optimum x=3,y=0.5 -> 3.5.
	m := NewModel()
	x := m.AddVar(0, 3)
	y := m.AddNonNeg()
	m.AddConstraint(NewExpr().Add(1, x).Add(2, y), EQ, 4)
	m.SetObjective(NewExpr().Add(1, x).Add(1, y), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 3.5, "objective")
	approx(t, sol.Value(x), 3, "x")
	approx(t, sol.Value(y), 0.5, "y")
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddNonNeg()
	m.AddConstraint(NewExpr().Add(1, x), GE, 5)
	m.AddConstraint(NewExpr().Add(1, x), LE, 3)
	m.SetObjective(NewExpr().Add(1, x), Maximize)
	sol, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddNonNeg()
	y := m.AddNonNeg()
	m.AddConstraint(NewExpr().Add(1, x).Add(-1, y), LE, 1)
	m.SetObjective(NewExpr().Add(1, x), Maximize)
	sol, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

// TestUnboundedAfterPivots meets the unbounded ray only after phase 2
// has pivoted: w enters first (u+w ≤ 2 binds), then x has no blocking
// row. The confirmatory refactorization before trusting the ray must
// happen once, not once per remaining iteration.
func TestUnboundedAfterPivots(t *testing.T) {
	m := NewModel()
	u := m.AddNonNeg()
	x := m.AddNonNeg()
	y := m.AddNonNeg()
	w := m.AddNonNeg()
	m.AddConstraint(NewExpr().Add(1, x).Add(-1, y), LE, 1)
	m.AddConstraint(NewExpr().Add(1, u).Add(1, w), LE, 2)
	m.SetObjective(NewExpr().Add(1, x).Add(3, w), Maximize)
	sol, err := SolveWithOptions(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
	if sol.Stats.Refactors > 2 {
		t.Fatalf("%d refactorizations to confirm one ray", sol.Stats.Refactors)
	}
}

func TestFreeVariable(t *testing.T) {
	// min |style| problem: min x' s.t. x' >= x - 5, x' >= 5 - x with x free
	// fixed by x = 2 via equality. Optimum x'=3.
	m := NewModel()
	x := m.AddVar(math.Inf(-1), math.Inf(1))
	ax := m.AddNonNeg()
	m.AddConstraint(NewExpr().Add(1, x), EQ, 2)
	m.AddConstraint(NewExpr().Add(1, ax).Add(-1, x), GE, -5)
	m.AddConstraint(NewExpr().Add(1, ax).Add(1, x), GE, 5)
	m.SetObjective(NewExpr().Add(1, ax), Minimize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 3, "objective")
	approx(t, sol.Value(x), 2, "x")
}

func TestNegativeLowerBound(t *testing.T) {
	// max x with x in [-4, -1].
	m := NewModel()
	x := m.AddVar(-4, -1)
	m.SetObjective(NewExpr().Add(1, x), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, -1, "objective")
	approx(t, sol.Value(x), -1, "x")
}

func TestUpperBoundedOnly(t *testing.T) {
	// min x with x <= 7 (and unbounded below) is unbounded.
	m := NewModel()
	x := m.AddVar(math.Inf(-1), 7)
	m.SetObjective(NewExpr().Add(1, x), Minimize)
	sol, err := Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
	// max x with x <= 7: optimum 7.
	m2 := NewModel()
	x2 := m2.AddVar(math.Inf(-1), 7)
	m2.SetObjective(NewExpr().Add(1, x2), Maximize)
	sol2 := mustOptimal(t, m2)
	approx(t, sol2.Objective, 7, "objective")
}

func TestObjectiveOffset(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 2)
	m.SetObjective(NewExpr().Add(3, x).AddConst(10), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 16, "objective")
}

func TestDegenerateDiet(t *testing.T) {
	// Classic diet-style LP with degenerate vertices.
	m := NewModel()
	a := m.AddNonNeg()
	b := m.AddNonNeg()
	c := m.AddNonNeg()
	m.AddConstraint(NewExpr().Add(2, a).Add(3, b).Add(1, c), GE, 10)
	m.AddConstraint(NewExpr().Add(1, a).Add(1, b).Add(2, c), GE, 8)
	m.AddConstraint(NewExpr().Add(4, a).Add(2, b).Add(1, c), GE, 12)
	m.SetObjective(NewExpr().Add(1.5, a).Add(2, b).Add(1, c), Minimize)
	sol := mustOptimal(t, m)
	// Verify feasibility and optimality against brute enumeration.
	want := bruteForceLP(t, m)
	approx(t, sol.Objective, want, "objective vs brute force")
}

func TestTransportation(t *testing.T) {
	// 2 plants x 3 markets balanced transportation problem.
	supply := []float64{30, 40}
	demand := []float64{20, 25, 25}
	cost := [][]float64{{8, 6, 10}, {9, 12, 13}}
	m := NewModel()
	x := make([][]Var, 2)
	for i := range x {
		x[i] = make([]Var, 3)
		for j := range x[i] {
			x[i][j] = m.AddNonNeg()
		}
	}
	for i := 0; i < 2; i++ {
		e := NewExpr()
		for j := 0; j < 3; j++ {
			e.Add(1, x[i][j])
		}
		m.AddConstraint(e, LE, supply[i])
	}
	for j := 0; j < 3; j++ {
		e := NewExpr()
		for i := 0; i < 2; i++ {
			e.Add(1, x[i][j])
		}
		m.AddConstraint(e, GE, demand[j])
	}
	obj := NewExpr()
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			obj.Add(cost[i][j], x[i][j])
		}
	}
	m.SetObjective(obj, Minimize)
	sol := mustOptimal(t, m)
	// Known optimum: ship plant0->m1 25, plant0->m2 5 (cost 6*25+10*5)=200,
	// plant1->m0 20, plant1->m2 20 (9*20+13*20)=440. Total 640.
	approx(t, sol.Objective, 640, "objective")
}

func TestDualValuesMax(t *testing.T) {
	// max 3x+2y s.t. x+y<=4 (dual 2.5), x-y<=2 (dual 0.5).
	m := NewModel()
	x := m.AddNonNeg()
	y := m.AddNonNeg()
	c1 := m.AddConstraint(NewExpr().Add(1, x).Add(1, y), LE, 4)
	c2 := m.AddConstraint(NewExpr().Add(1, x).Add(-1, y), LE, 2)
	m.SetObjective(NewExpr().Add(3, x).Add(2, y), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 11, "objective")
	approx(t, sol.Dual(c1), 2.5, "dual c1")
	approx(t, sol.Dual(c2), 0.5, "dual c2")
}

func TestStrongDualityRandom(t *testing.T) {
	// For random feasible bounded max LPs: primal objective equals
	// b'y computed from returned duals (strong duality).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		k := 2 + rng.Intn(6)
		m := NewModel()
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = m.AddNonNeg()
		}
		rhs := make([]float64, k)
		rows := make([]int, k)
		for r := 0; r < k; r++ {
			e := NewExpr()
			for i := 0; i < n; i++ {
				e.Add(float64(rng.Intn(7)), vars[i]) // nonneg coeffs keep it bounded
			}
			rhs[r] = 1 + 10*rng.Float64()
			rows[r] = m.AddConstraint(e, LE, rhs[r])
		}
		// Ensure every var is bounded: add sum <= big.
		all := NewExpr()
		for _, v := range vars {
			all.Add(1, v)
		}
		capIdx := m.AddConstraint(all, LE, 50)
		obj := NewExpr()
		for _, v := range vars {
			obj.Add(rng.Float64()*5, v)
		}
		m.SetObjective(obj, Maximize)
		sol := mustOptimal(t, m)
		dualObj := 50 * sol.Dual(capIdx)
		for r := 0; r < k; r++ {
			dualObj += rhs[r] * sol.Dual(rows[r])
		}
		approx(t, dualObj, sol.Objective, "strong duality")
	}
}

func TestRandomVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3) // 2..4 vars keeps enumeration cheap
		k := 1 + rng.Intn(4)
		m := NewModel()
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = m.AddVar(0, 1+9*rng.Float64())
		}
		for r := 0; r < k; r++ {
			e := NewExpr()
			for i := 0; i < n; i++ {
				e.Add(math.Floor(6*rng.Float64()-2), vars[i])
			}
			sense := LE
			if rng.Intn(3) == 0 {
				sense = GE
			}
			m.AddConstraint(e, sense, math.Floor(12*rng.Float64()-2))
		}
		obj := NewExpr()
		for i := 0; i < n; i++ {
			obj.Add(math.Floor(9*rng.Float64()-3), vars[i])
		}
		m.SetObjective(obj, Maximize)
		sol, err := Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		want, feasible := bruteForceLPFull(m)
		if !feasible {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: got %v, brute force says infeasible", trial, sol.Status)
			}
			continue
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, want optimal (brute force %g)", trial, sol.Status, want)
		}
		approx(t, sol.Objective, want, "vs brute force")
	}
}

func TestSolutionEval(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 5)
	m.SetObjective(NewExpr().Add(1, x), Maximize)
	sol := mustOptimal(t, m)
	got := sol.Eval(NewExpr().Add(2, x).AddConst(1))
	approx(t, got, 11, "eval")
}

func TestExprCompact(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 10)
	// 2x + 3x - 5x == 0x: constraint reduces to 0 <= 4, trivially true.
	e := NewExpr().Add(2, x).Add(3, x).Add(-5, x)
	m.AddConstraint(e, LE, 4)
	m.SetObjective(NewExpr().Add(1, x), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 10, "objective")
}

func TestLargeSparseChain(t *testing.T) {
	// Chain flow: max z s.t. z <= x_i for a path of 200 capacitated hops.
	m := NewModel()
	z := m.AddNonNeg()
	for i := 0; i < 200; i++ {
		x := m.AddVar(0, float64(100+i%7))
		m.AddConstraint(NewExpr().Add(1, z).Add(-1, x), LE, 0)
	}
	m.SetObjective(NewExpr().Add(1, z), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 100, "objective")
}

// bruteForceLP enumerates basic solutions of small inequality-only
// models used in tests and returns the optimal objective.
func bruteForceLP(t *testing.T, m *Model) float64 {
	t.Helper()
	v, ok := bruteForceLPFull(m)
	if !ok {
		t.Fatal("brute force found no feasible point")
	}
	return v
}

// bruteForceLPFull enumerates all vertices of {x : constraints, bounds}
// by solving every n x n subsystem of tight constraints, then evaluates
// the objective. Only suitable for tiny models. Returns (best, feasible).
func bruteForceLPFull(m *Model) (float64, bool) {
	n := m.NumVars()
	// Build the full list of hyperplanes: each constraint as equality,
	// plus bound hyperplanes.
	type hp struct {
		a []float64
		b float64
	}
	var planes []hp
	for _, c := range m.cons {
		a := make([]float64, n)
		for _, t := range c.Expr.Terms {
			a[t.Var] += t.Coeff
		}
		planes = append(planes, hp{a, c.RHS})
	}
	for i := 0; i < n; i++ {
		lo, hi := m.lower[i], m.upper[i]
		if !math.IsInf(lo, -1) {
			a := make([]float64, n)
			a[i] = 1
			planes = append(planes, hp{a, lo})
		}
		if !math.IsInf(hi, 1) {
			a := make([]float64, n)
			a[i] = 1
			planes = append(planes, hp{a, hi})
		}
	}
	feasible := func(x []float64) bool {
		for _, c := range m.cons {
			v := 0.0
			for _, t := range c.Expr.Terms {
				v += t.Coeff * x[t.Var]
			}
			switch c.Sense {
			case LE:
				if v > c.RHS+1e-7 {
					return false
				}
			case GE:
				if v < c.RHS-1e-7 {
					return false
				}
			case EQ:
				if math.Abs(v-c.RHS) > 1e-7 {
					return false
				}
			}
		}
		for i := 0; i < n; i++ {
			if x[i] < m.lower[i]-1e-7 || x[i] > m.upper[i]+1e-7 {
				return false
			}
		}
		return true
	}
	evalObj := func(x []float64) float64 {
		v := m.obj.Offset
		for _, t := range m.obj.Terms {
			v += t.Coeff * x[t.Var]
		}
		return v
	}
	best := math.Inf(-1)
	if m.dir == Minimize {
		best = math.Inf(1)
	}
	found := false
	idx := make([]int, n)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == n {
			// Solve the n x n system.
			A := make([]float64, n*n)
			bb := make([]float64, n)
			for r := 0; r < n; r++ {
				copy(A[r*n:(r+1)*n], planes[idx[r]].a)
				bb[r] = planes[idx[r]].b
			}
			x, ok := solveDense(A, bb, n)
			if !ok || !feasible(x) {
				return
			}
			found = true
			v := evalObj(x)
			if m.dir == Maximize && v > best || m.dir == Minimize && v < best {
				best = v
			}
			return
		}
		for i := start; i < len(planes); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return best, found
}

func solveDense(A, b []float64, n int) ([]float64, bool) {
	a := make([]float64, len(A))
	copy(a, A)
	x := make([]float64, n)
	copy(x, b)
	for c := 0; c < n; c++ {
		p, bestV := -1, 1e-9
		for r := c; r < n; r++ {
			if v := math.Abs(a[r*n+c]); v > bestV {
				bestV, p = v, r
			}
		}
		if p < 0 {
			return nil, false
		}
		if p != c {
			for j := 0; j < n; j++ {
				a[p*n+j], a[c*n+j] = a[c*n+j], a[p*n+j]
			}
			x[p], x[c] = x[c], x[p]
		}
		pv := a[c*n+c]
		for r := 0; r < n; r++ {
			if r == c {
				continue
			}
			f := a[r*n+c] / pv
			if f == 0 {
				continue
			}
			for j := c; j < n; j++ {
				a[r*n+j] -= f * a[c*n+j]
			}
			x[r] -= f * x[c]
		}
	}
	for i := 0; i < n; i++ {
		x[i] /= a[i*n+i]
	}
	return x, true
}
