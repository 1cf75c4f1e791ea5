package lp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
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

// polytopeCorpus returns builders of the polytope shapes the adversary
// specs produce — FFC's tunnel knapsack, the link-aware unit/link/
// tunnel polytope, a linearized condition with its EQ-free rows and an
// h = x equality — plus rows Model would clean up first (a repeated
// variable, a zero coefficient, a negative right-hand side, a GE row
// that starts phase 1) and seeded random polytopes. Every one contains
// w = 0 and bounds each variable by 1, so every cost has an answer.
func polytopeCorpus(rng *rand.Rand) map[string]func(*Polytope) {
	corpus := map[string]func(*Polytope){
		"knapsack": func(p *Polytope) {
			bud := make([]AdvTerm, 5)
			for i := range bud {
				y := p.AddVar()
				p.AddUpperBound(y, 1)
				bud[i] = AdvTerm{y, 1}
			}
			p.AddRow(bud, LE, 2)
		},
		"link-aware": func(p *Polytope) {
			units := make([]AdvVar, 4)
			bud := make([]AdvTerm, len(units))
			for i := range units {
				units[i] = p.AddVar()
				p.AddUpperBound(units[i], 1)
				bud[i] = AdvTerm{units[i], 1}
			}
			p.AddRow(bud, LE, 2)
			links := make([]AdvVar, len(units))
			for i, u := range units {
				links[i] = p.AddVar()
				p.AddUpperBound(links[i], 1)
				p.AddRow([]AdvTerm{{links[i], 1}, {u, -1}}, LE, 0)
				p.AddRow([]AdvTerm{{u, 1}, {links[i], -1}}, LE, 0)
			}
			for _, path := range [][]int{{0, 1}, {2}, {1, 3}} {
				y := p.AddVar()
				p.AddUpperBound(y, 1)
				sum := []AdvTerm{{y, 1}}
				for _, l := range path {
					p.AddRow([]AdvTerm{{links[l], 1}, {y, -1}}, LE, 0)
					sum = append(sum, AdvTerm{links[l], -1})
				}
				p.AddRow(sum, LE, 0)
			}
		},
		"condition": func(p *Polytope) {
			x0, x1, h := p.AddVar(), p.AddVar(), p.AddVar()
			for _, v := range []AdvVar{x0, x1, h} {
				p.AddUpperBound(v, 1)
			}
			p.AddRow([]AdvTerm{{x0, 1}, {x1, 1}}, LE, 1)
			p.AddRow([]AdvTerm{{h, 1}, {x0, 1}}, LE, 1)
			p.AddRow([]AdvTerm{{h, 1}, {x1, -1}}, LE, 0)
			p.AddRow([]AdvTerm{{h, -1}, {x0, -1}, {x1, 1}}, LE, 0)
		},
		"equality": func(p *Polytope) {
			x, h := p.AddVar(), p.AddVar()
			p.AddUpperBound(x, 1)
			p.AddRow([]AdvTerm{{h, 1}, {x, -1}}, EQ, 0)
		},
		"unclean rows": func(p *Polytope) {
			a, b, c := p.AddVar(), p.AddVar(), p.AddVar()
			p.AddRow([]AdvTerm{{a, 1}, {b, 0}, {a, 1}}, LE, 2)        // 2a ≤ 2
			p.AddRow([]AdvTerm{{b, 1}, {c, 1}, {b, -1}}, LE, 1)       // c ≤ 1
			p.AddRow([]AdvTerm{{b, -1}, {c, 0}}, GE, -1)              // b ≤ 1
			p.AddRow([]AdvTerm{{a, 1}, {b, 1}, {c, 1}}, GE, 0)        // phase-1 free
			p.AddRow([]AdvTerm{{a, -1}, {b, -1}, {c, -1}}, LE, -0.25) // Σ ≥ 1/4: phase 1
		},
	}
	for k := 0; k < 8; k++ {
		vars, rows := 2+rng.Intn(6), 1+rng.Intn(6)
		senses := make([]Sense, rows)
		coeffs := make([][]float64, rows)
		for r := range coeffs {
			senses[r] = []Sense{LE, GE, EQ}[rng.Intn(3)]
			coeffs[r] = make([]float64, vars)
			for j := range coeffs[r] {
				if rng.Intn(2) == 0 {
					coeffs[r][j] = math.Round(8*rng.Float64()-4) / 2
				}
			}
		}
		corpus[fmt.Sprintf("random %d", k)] = func(p *Polytope) {
			for j := 0; j < vars; j++ {
				p.AddUpperBound(p.AddVar(), 1)
			}
			for r, cs := range coeffs {
				var terms []AdvTerm
				for j, c := range cs {
					if c != 0 {
						terms = append(terms, AdvTerm{AdvVar(j), c})
					}
				}
				p.AddRow(terms, senses[r], 0) // w = 0 satisfies every row
			}
		}
	}
	return corpus
}

// TestPolytopeLoweringMatchesCompile: Minimize lowers a polytope's rows
// straight into standard form. The layout must be the one Compile gives
// the model the rows used to be copied into — every array, every
// column's entries bit for bit — so the simplex pivots as it did.
func TestPolytopeLoweringMatchesCompile(t *testing.T) {
	for name, build := range polytopeCorpus(rand.New(rand.NewSource(13))) {
		p := NewPolytope()
		build(p)
		p.lower()
		m := NewModel()
		for j := 0; j < p.nVars; j++ {
			m.AddNonNeg()
		}
		for _, row := range p.rows {
			e := NewExpr()
			for _, t := range row.terms {
				e.Add(t.Coeff, Var(t.Var))
			}
			m.AddConstraint(e, row.sense, row.rhs)
		}
		got, want := p.cm, Compile(m)
		if got.nRows != want.nRows || got.nCols != want.nCols || got.nLogical != want.nLogical {
			t.Fatalf("%s: %d×%d (%d logical), Compile %d×%d (%d)", name, got.nRows, got.nCols, got.nLogical, want.nRows, want.nCols, want.nLogical)
		}
		for j := range want.cols {
			if !slices.Equal(bitsOf(got.cols[j]), bitsOf(want.cols[j])) {
				t.Fatalf("%s: column %d is %v, Compile %v", name, j, got.cols[j], want.cols[j])
			}
		}
		same := func(what string, eq bool) {
			if !eq {
				t.Fatalf("%s: %s differs from Compile's", name, what)
			}
		}
		same("b", slices.Equal(floatBits(got.b), floatBits(want.b)))
		same("c", slices.Equal(floatBits(got.c), floatBits(want.c)))
		same("rowSign", slices.Equal(floatBits(got.rowSign), floatBits(want.rowSign)))
		same("rhsOff", slices.Equal(floatBits(got.rhsOff), floatBits(want.rhsOff)))
		same("lrhs", slices.Equal(floatBits(got.lrhs), floatBits(want.lrhs)))
		same("rowOf", slices.Equal(got.rowOf, want.rowOf))
		same("rowNeg", slices.Equal(got.rowNeg, want.rowNeg))
		same("slack", slices.Equal(got.slack, want.slack))
		same("stdRow", slices.Equal(got.stdRow, want.stdRow))
		same("maps", slices.Equal(got.maps, want.maps))
		same("refs", slices.Equal(got.refs, want.refs))
		same("ownCol", slices.Equal(got.ownCol, want.ownCol))
	}
}

func floatBits(s []float64) []uint64 {
	out := make([]uint64, len(s))
	for i, v := range s {
		out[i] = math.Float64bits(v)
	}
	return out
}

func bitsOf(col []entry) []uint64 {
	out := make([]uint64, 0, 2*len(col))
	for _, e := range col {
		out = append(out, uint64(e.row), math.Float64bits(e.val))
	}
	return out
}

// TestPolytopeMinimizeReusesAnswer: a call whose costs repeat the
// previous call's bit for bit returns the saved answer without solving
// and without allocating, and that answer is a fresh Polytope's, bit for
// bit. Costs one ulp apart, an AddRow and an AddVar each force a solve;
// writing to the cost buffer or the returned point after a call changes
// no later answer. The polytopes under test share one Workspace and
// interleave with the standalone fresh ones, as the cut loop's do.
func TestPolytopeMinimizeReusesAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ws := NewWorkspace()
	corpus := polytopeCorpus(rng)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	slices.Sort(names)
	draw := func(n int) []float64 {
		costs := make([]float64, n)
		for j := range costs {
			if rng.Intn(4) > 0 {
				costs[j] = rng.NormFloat64()
			}
		}
		return costs
	}
	// answer is Minimize's result, checked against a fresh copy of the
	// polytope built by build, and whether it solved.
	answer := func(what string, p *Polytope, build func(*Polytope), costs []float64) (float64, []float64, bool) {
		t.Helper()
		before := p.Solves()
		v, w, err := p.Minimize(costs)
		fresh := NewPolytope()
		build(fresh)
		fv, fw, ferr := fresh.Minimize(costs)
		if err != nil || ferr != nil {
			t.Fatalf("%s: %v / fresh %v", what, err, ferr)
		}
		if math.Float64bits(v) != math.Float64bits(fv) || !slices.Equal(floatBits(w), floatBits(fw)) {
			t.Fatalf("%s: %.17g at %v, fresh polytope %.17g at %v", what, v, w, fv, fw)
		}
		return v, w, p.Solves() > before
	}
	polys := make(map[string]*Polytope, len(names))
	for _, name := range names {
		polys[name] = ws.NewPolytope()
		corpus[name](polys[name])
	}
	for round := 0; round < 3; round++ {
		for _, name := range names {
			p, build := polys[name], corpus[name]
			costs := draw(p.NumVars())
			if _, _, solved := answer(name+": new costs", p, build, costs); !solved {
				t.Fatalf("%s, round %d: new costs were not solved", name, round)
			}
			again := slices.Clone(costs)
			v, w, _ := p.Minimize(again)
			want := slices.Clone(w)
			for j := range w {
				w[j], costs[j] = math.NaN(), 7
			}
			if gv, gw, solved := answer(name+": repeated costs", p, build, again); solved {
				t.Fatalf("%s: repeated costs were solved again", name)
			} else if math.Float64bits(gv) != math.Float64bits(v) || !slices.Equal(floatBits(gw), floatBits(want)) {
				t.Fatalf("%s: reuse after the caller wrote to its buffers: %v at %v, want %v at %v", name, gv, gw, v, want)
			}
			if !raceEnabled() {
				if allocs := testing.AllocsPerRun(10, func() { p.Minimize(again) }); allocs != 0 {
					t.Fatalf("%s: a reused answer allocates %v times", name, allocs)
				}
			}
			ulp := slices.Clone(again)
			j := rng.Intn(len(ulp))
			ulp[j] = math.Nextafter(ulp[j], math.Inf(1))
			if _, _, solved := answer(name+": one ulp apart", p, build, ulp); !solved {
				t.Fatalf("%s: costs one ulp apart reused the answer", name)
			}
		}
	}
	for _, name := range names {
		p, build := polys[name], corpus[name]
		costs := draw(p.NumVars())
		p.Minimize(costs)
		rows := func(q *Polytope) {
			build(q)
			all := make([]AdvTerm, q.NumVars())
			for j := range all {
				all[j] = AdvTerm{AdvVar(j), 1}
			}
			q.AddRow(all, LE, 1)
		}
		all := make([]AdvTerm, p.NumVars())
		for j := range all {
			all[j] = AdvTerm{AdvVar(j), 1}
		}
		p.AddRow(all, LE, 1)
		if _, _, solved := answer(name+": after AddRow", p, rows, costs); !solved {
			t.Fatalf("%s: AddRow kept the saved answer", name)
		}
		p.AddVar()
		vars := func(q *Polytope) {
			rows(q)
			q.AddVar()
		}
		if _, _, solved := answer(name+": after AddVar", p, vars, append(costs, 0)); !solved {
			t.Fatalf("%s: AddVar kept the saved answer", name)
		}
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, whose own allocations would count against an allocation
// budget.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
