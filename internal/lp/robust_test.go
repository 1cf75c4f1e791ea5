package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRobustKnapsackAdversary models the FFC-style inner problem: the
// adversary may fail up to f of k tunnels; the planner reserves a_l on
// each and must guarantee z despite the worst failure. With equal
// capacity budget C split across k tunnels, the best guarantee is
// C*(k-f)/k.
func TestRobustKnapsackAdversary(t *testing.T) {
	const k, f, C = 4, 1, 8.0
	m := NewModel()
	a := make([]Var, k)
	for i := range a {
		a[i] = m.AddNonNeg()
	}
	z := m.AddNonNeg()
	budget := NewExpr()
	for _, v := range a {
		budget.Add(1, v)
	}
	m.AddConstraint(budget, LE, C)

	p := NewPolytope()
	y := make([]AdvVar, k)
	bud := make([]AdvTerm, k)
	for i := range y {
		y[i] = p.AddVar()
		p.AddUpperBound(y[i], 1)
		bud[i] = AdvTerm{y[i], 1}
	}
	p.AddRow(bud, LE, f)

	// constPart = sum a_l; costs_j = -a_j (inner min of sum a_l(1-y_l)).
	constPart := NewExpr()
	costs := make([]*Expr, k)
	for i := range a {
		constPart.Add(1, a[i])
		costs[i] = NewExpr().Add(-1, a[i])
	}
	RobustGE(m, p, costs, constPart, NewExpr().Add(1, z))
	m.SetObjective(NewExpr().Add(1, z), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, C*float64(k-f)/float64(k), "guaranteed bandwidth")
}

// TestRobustMatchesSeparation cross-checks the dualized compilation
// against direct inner minimization at the optimal master point.
func TestRobustMatchesSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		k := 2 + rng.Intn(5)
		f := 1 + rng.Intn(k)
		caps := make([]float64, k)
		for i := range caps {
			caps[i] = 1 + 5*rng.Float64()
		}
		m := NewModel()
		a := make([]Var, k)
		for i := range a {
			a[i] = m.AddVar(0, caps[i])
		}
		z := m.AddNonNeg()

		p := NewPolytope()
		costs := make([]*Expr, k)
		constPart := NewExpr()
		bud := make([]AdvTerm, 0, k)
		for i := 0; i < k; i++ {
			y := p.AddVar()
			p.AddUpperBound(y, 1)
			bud = append(bud, AdvTerm{y, 1})
			costs[i] = NewExpr().Add(-1, a[i])
			constPart.Add(1, a[i])
		}
		p.AddRow(bud, LE, float64(f))
		RobustGE(m, p, costs, constPart, NewExpr().Add(1, z))
		m.SetObjective(NewExpr().Add(1, z), Maximize)
		sol := mustOptimal(t, m)

		// Direct separation at the optimal a.
		numCosts := make([]float64, k)
		total := 0.0
		for i := range a {
			v := sol.Value(a[i])
			numCosts[i] = -v
			total += v
		}
		inner, w, err := p.Minimize(numCosts)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Contains(w, 1e-7) {
			t.Fatal("separation point outside polytope")
		}
		worst := total + inner
		if worst < sol.Objective-1e-6 {
			t.Fatalf("trial %d: dualized guarantee %.9g exceeds true worst case %.9g",
				trial, sol.Objective, worst)
		}
		// And they should be equal at optimality (guarantee is tight).
		approx(t, worst, sol.Objective, "dual = separation")
	}
}

// TestRobustWithEqualityRows exercises free dual variables: adversary
// h tied to x by h = x (conditional-LS style condition).
func TestRobustWithEqualityRows(t *testing.T) {
	// Planner reserves b (conditioned on h) and a (always, capacity 1).
	// Adversary picks x in [0,1] with h = x: available = a*(1) + b*h - b*h
	// ... instead make available = a + b*h with budget x <= 1, and the
	// worst case is x = 0 (h = 0): guarantee = a.
	m := NewModel()
	a := m.AddVar(0, 1)
	b := m.AddVar(0, 2)
	z := m.AddNonNeg()

	p := NewPolytope()
	x := p.AddVar()
	h := p.AddVar()
	p.AddUpperBound(x, 1)
	p.AddRow([]AdvTerm{{h, 1}, {x, -1}}, EQ, 0)

	costs := []*Expr{nil, NewExpr().Add(1, b)} // cost on h is +b
	constPart := NewExpr().Add(1, a)
	RobustGE(m, p, costs, constPart, NewExpr().Add(1, z))
	m.SetObjective(NewExpr().Add(1, z), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 1, "guarantee ignores conditional reservation")
}

// TestRobustConditionalHelps mirrors the PCF-CLS intuition: a backup
// reservation active exactly when the primary fails raises the
// guarantee.
func TestRobustConditionalHelps(t *testing.T) {
	// Primary tunnel reservation a (fails when x=1), backup b active
	// when h=x. Guarantee = min over x in [0,1] of a(1-x) + b*x.
	// With a <= 2, b <= 1.5 the best is z = min(a, b) = 1.5.
	m := NewModel()
	a := m.AddVar(0, 2)
	b := m.AddVar(0, 1.5)
	z := m.AddNonNeg()

	p := NewPolytope()
	x := p.AddVar()
	h := p.AddVar()
	p.AddUpperBound(x, 1)
	p.AddRow([]AdvTerm{{h, 1}, {x, -1}}, EQ, 0)

	costs := []*Expr{NewExpr().Add(-1, a), NewExpr().Add(1, b)}
	constPart := NewExpr().Add(1, a)
	RobustGE(m, p, costs, constPart, NewExpr().Add(1, z))
	m.SetObjective(NewExpr().Add(1, z), Maximize)
	sol := mustOptimal(t, m)
	approx(t, sol.Objective, 1.5, "conditional backup guarantee")
}

// TestPolytopeMinimizeVertex ensures separation returns points inside
// the polytope and achieves the LP lower bound.
func TestPolytopeMinimizeVertex(t *testing.T) {
	p := NewPolytope()
	v1 := p.AddVar()
	v2 := p.AddVar()
	p.AddUpperBound(v1, 1)
	p.AddUpperBound(v2, 1)
	p.AddRow([]AdvTerm{{v1, 1}, {v2, 1}}, LE, 1)
	val, w, err := p.Minimize([]float64{-3, -2})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, val, -3, "minimize value")
	approx(t, w[0], 1, "w1")
	approx(t, w[1], 0, "w2")
}

// TestPolytopeMinimizeReusesCompiledRows: Minimize compiles the rows on
// its first call and only re-costs them afterwards, and every call
// solves cold — so a polytope that has answered other costs before, or
// was edited since, answers exactly (bit for bit: value and point) what
// a freshly built copy answers.
func TestPolytopeMinimizeReusesCompiledRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	build := func(vars int, extra bool) *Polytope {
		p := NewPolytope()
		terms := make([]AdvTerm, vars)
		for j := range terms {
			v := p.AddVar()
			p.AddUpperBound(v, 1)
			terms[j] = AdvTerm{v, 1}
		}
		p.AddRow(terms, LE, 2)
		if extra {
			p.AddRow(terms[:2], LE, 1)
		}
		return p
	}
	same := func(what string, p, fresh *Polytope, costs []float64) {
		t.Helper()
		gv, gw, gerr := p.Minimize(costs)
		wv, ww, werr := fresh.Minimize(costs)
		if gerr != nil || werr != nil {
			t.Fatalf("%s: %v / %v", what, gerr, werr)
		}
		if math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("%s: value %.17g, fresh polytope %.17g", what, gv, wv)
		}
		for j := range ww {
			if math.Float64bits(gw[j]) != math.Float64bits(ww[j]) {
				t.Fatalf("%s: w[%d] = %.17g, fresh polytope %.17g", what, j, gw[j], ww[j])
			}
		}
	}
	draw := func(n int) []float64 {
		costs := make([]float64, n)
		for j := range costs {
			if rng.Intn(4) > 0 { // zero costs drop out of the objective
				costs[j] = rng.NormFloat64()
			}
		}
		return costs
	}
	p := build(6, false)
	for round := 0; round < 10; round++ {
		same("re-costed", p, build(6, false), draw(6))
	}
	cm := p.cm
	if cm == nil {
		t.Fatal("Minimize kept no compiled rows")
	}
	p.AddRow([]AdvTerm{{0, 1}, {1, 1}}, LE, 1)
	same("after AddRow", p, build(6, true), []float64{-1, -1, -1, 0, 0, 0})
	if p.cm == cm {
		t.Fatal("AddRow kept the stale compiled rows")
	}
	cm = p.cm
	v := p.AddVar()
	p.AddUpperBound(v, 1)
	if got, _, err := p.Minimize([]float64{0, 0, 0, 0, 0, 0, -1}); err != nil || p.cm == cm {
		t.Fatalf("after AddVar: err %v, stale compiled rows kept: %v", err, p.cm == cm)
	} else {
		approx(t, got, -1, "new variable at its bound")
	}
}

// TestRobustGuaranteeIsLowerBound property: for random instances the
// dualized optimum never exceeds the true worst case computed by
// direct separation (weak duality direction), and matches it (strong).
func TestRobustGuaranteeIsLowerBound(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(11))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		m := NewModel()
		a := make([]Var, k)
		capTotal := NewExpr()
		for i := range a {
			a[i] = m.AddNonNeg()
			capTotal.Add(1, a[i])
		}
		m.AddConstraint(capTotal, LE, 5+5*rng.Float64())
		z := m.AddNonNeg()
		p := NewPolytope()
		costs := make([]*Expr, k)
		constPart := NewExpr()
		bud := make([]AdvTerm, 0, k)
		for i := 0; i < k; i++ {
			y := p.AddVar()
			p.AddUpperBound(y, 1)
			bud = append(bud, AdvTerm{y, 1})
			costs[i] = NewExpr().Add(-1, a[i])
			constPart.Add(1, a[i])
		}
		p.AddRow(bud, LE, 1+float64(rng.Intn(k)))
		RobustGE(m, p, costs, constPart, NewExpr().Add(1, z))
		m.SetObjective(NewExpr().Add(1, z), Maximize)
		sol, err := Solve(m)
		if err != nil || sol.Status != StatusOptimal {
			return false
		}
		numCosts := make([]float64, k)
		tot := 0.0
		for i := range a {
			v := sol.Value(a[i])
			numCosts[i] = -v
			tot += v
		}
		inner, _, err := p.Minimize(numCosts)
		if err != nil {
			return false
		}
		return tot+inner >= sol.Objective-1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRobustPanicsOnBadCosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched cost slice")
		}
	}()
	m := NewModel()
	p := NewPolytope()
	p.AddVar()
	RobustGE(m, p, nil, nil, nil)
}

func TestContainsTolerance(t *testing.T) {
	p := NewPolytope()
	w := p.AddVar()
	p.AddUpperBound(w, 1)
	if !p.Contains([]float64{1 + 1e-9}, 1e-7) {
		t.Fatal("should accept within tolerance")
	}
	if p.Contains([]float64{1.1}, 1e-7) {
		t.Fatal("should reject outside tolerance")
	}
	if p.Contains([]float64{-0.5}, 1e-7) {
		t.Fatal("should reject negative")
	}
	if p.Contains([]float64{0, 0}, 1e-7) {
		t.Fatal("should reject wrong dimension")
	}
	_ = math.Pi
}
