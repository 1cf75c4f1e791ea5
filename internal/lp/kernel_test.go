package lp_test

import (
	"errors"
	"fmt"
	"testing"

	"pcf/internal/faultinject"
	"pcf/internal/lp"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// cutMaster is the seeded master of core's cut loop written out by hand
// (core's builder is not exported): a reservation per tunnel and the
// scale z, a "≤ capacity" row per arc carrying tunnels, and per pair a
// "≥ 0" cut for the no-failure scenario and for every single link its
// tunnels use — the live tunnels' reservations must cover d·z.
func cutMaster(g *topology.Graph, tm *traffic.Matrix, ts *tunnels.Set) *lp.Model {
	m := lp.NewModel()
	z := m.AddNonNeg()
	res := map[tunnels.ID]lp.Var{}
	perArc := make([]*lp.Expr, g.NumArcs())
	for _, p := range ts.Pairs() {
		for _, id := range ts.ForPair(p) {
			res[id] = m.AddNonNeg()
			for _, arc := range ts.Tunnel(id).Path.Arcs {
				if perArc[arc] == nil {
					perArc[arc] = lp.NewExpr()
				}
				perArc[arc].Add(1, res[id])
			}
		}
	}
	for arc, e := range perArc {
		if e != nil {
			m.AddConstraint(e, lp.LE, g.ArcCapacity(topology.ArcID(arc)))
		}
	}
	for _, p := range ts.Pairs() {
		for dead := -1; dead < g.NumLinks(); dead++ {
			e := lp.NewExpr().Add(-tm.At(p), z)
			hit := dead < 0
			for _, id := range ts.ForPair(p) {
				alive := true
				for _, l := range ts.Tunnel(id).Path.Links() {
					alive = alive && int(l) != dead
				}
				if alive {
					e.Add(1, res[id])
				} else {
					hit = true
				}
			}
			if hit {
				m.AddConstraint(e, lp.GE, 0)
			}
		}
	}
	m.SetObjective(lp.NewExpr().Add(1, z), lp.Maximize)
	return m
}

// flowLP is mcf's maximum-concurrent-flow model written out by hand
// (its builder is not exported either): a flow per (destination, arc),
// an equality per (destination, node ≠ destination) — out − in − d·z = 0
// — and a "≤ capacity" row per arc. Equality-heavy: phase 1 runs, and
// bases get close to all-structural.
func flowLP(g *topology.Graph, tm *traffic.Matrix) *lp.Model {
	m := lp.NewModel()
	z := m.AddNonNeg()
	n := g.NumNodes()
	perArc := make([]*lp.Expr, g.NumArcs())
	for a := range perArc {
		perArc[a] = lp.NewExpr()
	}
	for t := 0; t < n; t++ {
		in := 0.0
		for s := 0; s < n; s++ {
			in += tm.Demand[s][t]
		}
		if in <= 0 {
			continue
		}
		flow := make([]lp.Var, g.NumArcs())
		for a := range flow {
			flow[a] = m.AddNonNeg()
			perArc[a].Add(1, flow[a])
		}
		for v := 0; v < n; v++ {
			if v == t {
				continue
			}
			e := lp.NewExpr()
			for _, a := range g.OutArcs(topology.NodeID(v)) {
				e.Add(1, flow[a]).Add(-1, flow[a^1]) // the reverse of an outgoing arc comes in
			}
			if d := tm.Demand[v][t]; d > 0 {
				e.Add(-d, z)
			}
			m.AddConstraint(e, lp.EQ, 0)
		}
	}
	for a, e := range perArc {
		if len(e.Terms) > 0 {
			m.AddConstraint(e, lp.LE, g.ArcCapacity(topology.ArcID(a)))
		}
	}
	m.SetObjective(lp.NewExpr().Add(1, z), lp.Maximize)
	return m
}

// kernelModels are the LPs whose part-way bases the oracle checks.
func kernelModels(t *testing.T) map[string]*lp.Model {
	models := map[string]*lp.Model{}
	for _, seed := range []int64{7, 99, 12345} {
		for i, m := range faultinject.LPCorpus(seed) {
			models[fmt.Sprintf("corpus(%d)[%d]", seed, i)] = m
		}
	}
	for name, gad := range map[string]*topozoo.Gadget{
		"fig1": topozoo.Fig1(), "fig3": topozoo.Fig3(), "fig4": topozoo.Fig4(2, 3, 4), "fig5": topozoo.Fig5(),
	} {
		pair := topology.Pair{Src: gad.S, Dst: gad.T}
		ts := tunnels.NewSet(gad.Graph)
		for _, path := range gad.Tunnels {
			ts.MustAdd(pair, path)
		}
		if len(gad.Tunnels) == 0 {
			var err error
			if ts, err = tunnels.Select(gad.Graph, []topology.Pair{pair}, tunnels.SelectOptions{PerPair: 3}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		models["master/"+name] = cutMaster(gad.Graph, traffic.Single(gad.Graph.NumNodes(), pair, 1), ts)
	}
	sprint := topozoo.MustLoad("Sprint")
	tm := traffic.Gravity(sprint, traffic.GravityOptions{Seed: 3, Jitter: 0.4})
	pairs := tm.TopPairs(10)
	tm = tm.Restrict(pairs)
	ts, err := tunnels.Select(sprint, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	models["master/sprint"] = cutMaster(sprint, tm, ts)
	models["flow/sprint"] = flowLP(sprint, tm)
	return models
}

// TestKernelSolveMatchesFullLU: the simplex factors only the kernel of a
// refactored basis and solves the rest by substitution (factor.go).
// Here every basis reached by running the LP corpus, the gadget and
// Sprint cut masters and the Sprint flow LP for 0, 1, 3, … pivots and to
// the end is factored whole by linsolve as well, and ftran, btran,
// invRow and applyInv must agree with that to 1e-12 — with the pivots'
// eta chain in place and after a refactorization. The corner cases are
// then pinned one by one.
func TestKernelSolveMatchesFullLU(t *testing.T) {
	var seen lp.KernelShape
	smallKernel := false
	for name, m := range kernelModels(t) {
		cm := lp.Compile(m)
		for _, pivots := range []int{0, 1, 3, 8, 20, 60, 150, 1 << 20} {
			sh, err := lp.KernelOracle(cm, pivots)
			if err != nil {
				t.Fatalf("%s after %d pivots: %v", name, pivots, err)
			}
			if pivots == 0 && sh.K != 0 {
				t.Fatalf("%s: the cold-start basis has a kernel of %d", name, sh.K)
			}
			seen.SingleStructural = seen.SingleStructural || sh.SingleStructural
			seen.ForeignSlack = seen.ForeignSlack || sh.ForeignSlack
			seen.K = max(seen.K, sh.K)
			smallKernel = smallKernel || (0 < sh.K && 4*sh.K < sh.M)
		}
	}
	if !seen.SingleStructural || !seen.ForeignSlack || seen.K < 20 || !smallKernel {
		t.Fatalf("over all reached bases: %+v, a kernel under m/4: %v — want single-entry structurals, foreign slacks, a kernel of 20+ and a small one", seen, smallKernel)
	}

	// k = m: three equalities over three variables, two per row, so no
	// basic column of the optimal basis has a single entry.
	m := lp.NewModel()
	x := []lp.Var{m.AddNonNeg(), m.AddNonNeg(), m.AddNonNeg()}
	eq := make([]int, 3)
	for i, rhs := range []float64{3, 4, 5} {
		eq[i] = m.AddConstraint(lp.NewExpr().Add(1, x[i]).Add(1, x[(i+1)%3]), lp.EQ, rhs)
	}
	m.SetObjective(lp.NewExpr().Add(1, x[0]), lp.Minimize)
	cm := lp.Compile(m)
	if sh, err := lp.KernelOracle(cm, 1<<20); err != nil || sh.K != sh.M {
		t.Fatalf("all-structural basis: kernel %d of %d, err %v", sh.K, sh.M, err)
	}
	// An artificial with sign −1: the same rows with a right-hand side
	// edited negative start on one, and keep it through the first pivots.
	cm.SetRowRHS(eq[1], -4)
	for _, pivots := range []int{0, 1} {
		if sh, err := lp.KernelOracle(cm, pivots); err != nil || !sh.NegArtificial {
			t.Fatalf("negative artificial after %d pivots: %+v, err %v", pivots, sh, err)
		}
	}

	// Hand-placed bases over two "≤" rows: u sits in row 0 only, w in
	// row 1 only, v in both.
	m = lp.NewModel()
	u, v, w := m.AddNonNeg(), m.AddNonNeg(), m.AddNonNeg()
	r0 := m.AddConstraint(lp.NewExpr().Add(2, u).Add(1, v), lp.LE, 4)
	r1 := m.AddConstraint(lp.NewExpr().Add(1, w).Add(3, v), lp.LE, 6)
	m.SetObjective(lp.NewExpr().Add(1, u).Add(1, v).Add(1, w), lp.Maximize)
	cm = lp.Compile(m)
	s0, s1 := cm.SlackColumn(r0), cm.SlackColumn(r1)
	for _, tc := range []struct {
		what     string
		cols     []int
		singular bool
		want     lp.KernelShape
	}{
		{"each slack at the other row's position", []int{s1, s0}, false, lp.KernelShape{K: 0, M: 2, ForeignSlack: true}},
		{"a single-entry structural with a negative artificial", []int{cm.VarColumn(u), -2}, false,
			lp.KernelShape{K: 0, M: 2, SingleStructural: true, NegArtificial: true}},
		{"a two-entry column beside a slack", []int{s0, cm.VarColumn(v)}, false, lp.KernelShape{K: 1, M: 2}},
		{"a single-entry structural on each row", []int{cm.VarColumn(w), cm.VarColumn(u)}, false,
			lp.KernelShape{K: 0, M: 2, SingleStructural: true}},
		{"a slack and a structural both on row 0", []int{s0, cm.VarColumn(u)}, true, lp.KernelShape{}},
		{"a slack and the artificial of its row", []int{s1, -2}, true, lp.KernelShape{}},
	} {
		sh, err := lp.KernelOracleAt(cm, tc.cols, -1)
		if tc.singular {
			if !errors.Is(err, lp.ErrKernelSingular) {
				t.Fatalf("%s: %+v, err %v; want the singular verdict", tc.what, sh, err)
			}
			continue
		}
		if err != nil || sh != tc.want {
			t.Fatalf("%s: %+v, err %v; want %+v", tc.what, sh, err, tc.want)
		}
	}
}
