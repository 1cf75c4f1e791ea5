package routing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// fig1CLS builds a PCF-TF plan on the paper's Fig. 1 with 4 tunnels.
func fig1Plan(t *testing.T, f int) *core.Plan {
	t.Helper()
	gad := topozoo.Fig1()
	ts := tunnels.NewSet(gad.Graph)
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	for _, p := range gad.Tunnels {
		ts.MustAdd(pair, p)
	}
	in := &core.Instance{
		Graph:     gad.Graph,
		TM:        traffic.Single(gad.Graph.NumNodes(), pair, 1),
		Tunnels:   ts,
		Failures:  failures.SingleLinks(gad.Graph, f),
		Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRealizeTunnelOnlyPlan(t *testing.T) {
	plan := fig1Plan(t, 1)
	if err := validate(plan); err != nil {
		t.Fatalf("linear-system validation: %v", err)
	}
	if _, err := proportionalWorst(plan); err != nil {
		t.Fatalf("proportional validation: %v", err)
	}
}

// corollaryPlan builds the Fig. 4 PCF-LS plan used by Corollary 3.1.
func corollaryPlan(t *testing.T) *core.Plan {
	t.Helper()
	const p, n, m = 3, 2, 3
	gad := topozoo.Fig4(p, n, m)
	g := gad.Graph
	ts := tunnels.NewSet(g)
	for _, l := range g.Links() {
		ts.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
	}
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	in := &core.Instance{
		Graph:   g,
		TM:      traffic.Single(g.NumNodes(), pair, 1),
		Tunnels: ts,
		LSs: []core.LogicalSequence{{
			ID: 0, Pair: pair,
			Hops: []topology.NodeID{gad.Aux["s1"], gad.Aux["s2"]},
		}},
		Failures:  failures.SingleLinks(g, n-1),
		Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFLS(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRealizeLSPlanAllScenarios(t *testing.T) {
	plan := corollaryPlan(t)
	if err := validate(plan); err != nil {
		t.Fatalf("linear-system validation: %v", err)
	}
	if _, err := proportionalWorst(plan); err != nil {
		t.Fatalf("proportional validation: %v", err)
	}
}

// isMMatrix reports whether the dense n×n matrix has the M-matrix sign
// pattern: nonpositive off-diagonals and positive diagonals, both
// beyond tolerance. It is a necessary condition of Proposition 5.
func isMMatrix(a []float64, n int, tolerance float64) bool {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := a[i*n+j]
			if i == j {
				if v <= tolerance {
					return false
				}
			} else if v > tolerance {
				return false
			}
		}
	}
	return true
}

func TestIsMMatrix(t *testing.T) {
	good := []float64{2, -1, -0.5, 3}
	if !isMMatrix(good, 2, 1e-9) {
		t.Fatal("should be an M-matrix sign pattern")
	}
	badOff := []float64{2, 1, -0.5, 3}
	if isMMatrix(badOff, 2, 1e-9) {
		t.Fatal("positive off-diagonal should fail")
	}
	badDiag := []float64{0, -1, -0.5, 3}
	if isMMatrix(badDiag, 2, 1e-9) {
		t.Fatal("zero diagonal should fail")
	}
}

// TestProposition5 checks the reservation matrix is an M-matrix with
// solution in [0,1] for every scenario.
func TestProposition5(t *testing.T) {
	plan := corollaryPlan(t)
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		st := newState(plan, sc)
		n := len(st.pairs)
		if n == 0 {
			return true
		}
		mat := st.Matrix()
		if !isMMatrix(mat, n, 1e-12) {
			t.Fatalf("not an M-matrix sign pattern under %v", sc)
		}
		r, err := Realize(plan, sc)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range r.U {
			if u < -1e-7 || u > 1+1e-7 {
				t.Fatalf("U[%v]=%g outside [0,1] under %v", r.Pairs[i], u, sc)
			}
		}
		return true
	})
}

// TestProposition7 checks the proportional routing and the linear
// system agree when LSs are topologically sorted.
func TestProposition7(t *testing.T) {
	plan := corollaryPlan(t)
	if _, pruned := core.TopSortFilter(plan.Instance.LSs, false); pruned != 0 {
		t.Fatal("corollary plan should be sortable")
	}
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		lin, err := Realize(plan, sc)
		if err != nil {
			t.Fatal(err)
		}
		prop, err := RealizeProportional(plan, sc)
		if err != nil {
			t.Fatal(err)
		}
		for a := range lin.ArcLoad {
			if math.Abs(lin.ArcLoad[a]-prop.ArcLoad[a]) > 1e-6 {
				t.Fatalf("arc %d: linear %g vs proportional %g under %v",
					a, lin.ArcLoad[a], prop.ArcLoad[a], sc)
			}
		}
		return true
	})
}

// TestConditionalLSRealization validates the Fig. 5 PCF-CLS plan under
// every double-failure scenario using the linear-system realization.
func TestConditionalLSRealization(t *testing.T) {
	gad := topozoo.Fig5()
	g := gad.Graph
	s, tt, n4 := gad.S, gad.T, gad.Aux["4"]
	pair := topology.Pair{Src: s, Dst: tt}
	ts := tunnels.NewSet(g)
	for _, p := range gad.Tunnels {
		ts.MustAdd(pair, p)
	}
	mustPath := func(nodes ...topology.NodeID) topology.Path {
		var arcs []topology.ArcID
		for i := 0; i+1 < len(nodes); i++ {
			ok := false
			for _, a := range g.OutArcs(nodes[i]) {
				if _, to := g.ArcEnds(a); to == nodes[i+1] {
					arcs = append(arcs, a)
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("no link %d-%d", nodes[i], nodes[i+1])
			}
		}
		return topology.Path{Arcs: arcs}
	}
	s4 := topology.Pair{Src: s, Dst: n4}
	p4t := topology.Pair{Src: n4, Dst: tt}
	ts.MustAdd(s4, mustPath(s, n4))
	ts.MustAdd(p4t, mustPath(n4, gad.Aux["1"], gad.Aux["5"], tt))
	ts.MustAdd(p4t, mustPath(n4, gad.Aux["2"], gad.Aux["6"], tt))
	ts.MustAdd(p4t, mustPath(n4, gad.Aux["3"], gad.Aux["7"], tt))
	var s4link topology.LinkID = -1
	for _, l := range g.Links() {
		if (l.A == s && l.B == n4) || (l.A == n4 && l.B == s) {
			s4link = l.ID
		}
	}
	in := &core.Instance{
		Graph:     g,
		TM:        traffic.Single(g.NumNodes(), pair, 1),
		Tunnels:   ts,
		LSs:       []core.LogicalSequence{{ID: 0, Pair: pair, Hops: []topology.NodeID{n4}, Cond: core.LinkAlive(s4link)}},
		Failures:  failures.SingleLinks(g, 2),
		Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFCLS(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Value-1) > 1e-5 {
		t.Fatalf("PCF-CLS value %g, want 1", plan.Value)
	}
	if err := validate(plan); err != nil {
		t.Fatalf("validation: %v", err)
	}
}

// TestProportionalFailsOnCycles ensures the proportional router
// reports un-sortable LS structures instead of producing garbage.
func TestProportionalFailsOnCycles(t *testing.T) {
	// Mutually recursive LSs: (0,2) via 3 and (0,3) via 2 on a
	// 4-cycle.
	g := topology.New("ring4")
	for i := 0; i < 4; i++ {
		g.AddNode("n")
	}
	g.AddLink(0, 1, 10)
	g.AddLink(1, 2, 10)
	g.AddLink(2, 3, 10)
	g.AddLink(3, 0, 10)
	ts := tunnels.NewSet(g)
	for _, l := range g.Links() {
		ts.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
		ts.MustAdd(topology.Pair{Src: l.B, Dst: l.A}, topology.Path{Arcs: []topology.ArcID{l.Reverse()}})
	}
	// Give tunnels to the LS pairs too so the instance validates.
	p02 := topology.Pair{Src: 0, Dst: 2}
	p03 := topology.Pair{Src: 0, Dst: 3}
	path02, _ := g.ShortestPath(0, 2, nil, nil)
	ts.MustAdd(p02, path02)
	in := &core.Instance{
		Graph:   g,
		TM:      traffic.Single(4, p02, 1),
		Tunnels: ts,
		LSs: []core.LogicalSequence{
			{ID: 0, Pair: p02, Hops: []topology.NodeID{3}},
			{ID: 1, Pair: p03, Hops: []topology.NodeID{2}},
		},
		Failures:  failures.SingleLinks(g, 1),
		Objective: core.DemandScale,
	}
	// Hand-build a plan with both LSs live so the relation is cyclic.
	plan := &core.Plan{
		Scheme:    "synthetic",
		Z:         map[topology.Pair]float64{p02: 0.2},
		TunnelRes: map[tunnels.ID]float64{},
		LSRes:     map[core.LSID]float64{0: 0.1, 1: 0.1},
		Instance:  in,
	}
	for _, pr := range ts.Pairs() {
		for _, id := range ts.ForPair(pr) {
			//lint:ignore pcflint/mutafterpub hand-assembled local plan, never published; the test fills reservations to provoke ErrBadSplit
			plan.TunnelRes[id] = 0.3
		}
	}
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{}}
	if _, err := RealizeProportional(plan, sc); err == nil {
		t.Fatal("expected topological-order error")
	}
	// The general linear-system realization still works.
	if _, err := Realize(plan, sc); err != nil {
		t.Fatalf("linear realization should handle cycles: %v", err)
	}
}

// TestAggregateUtilSharesBound holds the §4.2 proportional router and
// the sweep to one utilization bound. On a star 0–1–{2,3}, demands
// 0→2 and 0→3 each ride an LS through 1, so pair (0,1) carries traffic
// toward two destinations. Each destination's utilization of (0,1) is
// about 1/2; their sum overshoots 1 by 5e-7, above tol.Util. Both
// realizations must refuse the pair, and both must accept it at a sum
// of exactly 1.
func TestAggregateUtilSharesBound(t *testing.T) {
	g := topology.New("star")
	for i := 0; i < 4; i++ {
		g.AddNode("n")
	}
	g.AddLink(0, 1, 10)
	g.AddLink(1, 2, 10)
	g.AddLink(1, 3, 10)
	ts := tunnels.NewSet(g)
	for _, l := range g.Links() {
		ts.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
	}
	p02, p03 := topology.Pair{Src: 0, Dst: 2}, topology.Pair{Src: 0, Dst: 3}
	tm := traffic.NewMatrix(4)
	tm.Set(p02, 1)
	tm.Set(p03, 1)
	in := &core.Instance{
		Graph:   g,
		TM:      tm,
		Tunnels: ts,
		LSs: []core.LogicalSequence{
			{ID: 0, Pair: p02, Hops: []topology.NodeID{1}},
			{ID: 1, Pair: p03, Hops: []topology.NodeID{1}},
		},
		Failures:  failures.SingleLinks(g, 0),
		Objective: core.DemandScale,
	}
	none := failures.Scenario{Dead: map[topology.LinkID]bool{}}
	for _, c := range []struct {
		sum    float64 // (0,1)'s utilization summed over destinations 2 and 3
		refuse bool
	}{{1, false}, {1 + 5e-7, true}} {
		res := map[tunnels.ID]float64{}
		for _, id := range ts.ForPair(topology.Pair{Src: 0, Dst: 1}) {
			res[id] = 2 / c.sum
		}
		for _, pr := range []topology.Pair{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}} {
			for _, id := range ts.ForPair(pr) {
				res[id] = 1
			}
		}
		plan := &core.Plan{
			Scheme:    "synthetic",
			Z:         map[topology.Pair]float64{p02: 1, p03: 1},
			TunnelRes: res,
			LSRes:     map[core.LSID]float64{0: 1, 1: 1},
			Instance:  in,
		}
		_, perr := RealizeProportional(plan, none)
		serr := validate(plan)
		if c.refuse {
			if perr == nil || !strings.Contains(perr.Error(), "aggregate utilization") {
				t.Errorf("sum %v: RealizeProportional = %v, want the aggregate utilization refused", c.sum, perr)
			}
			if !errors.Is(serr, ErrUnrealizable) {
				t.Errorf("sum %v: ValidateStats = %v, want ErrUnrealizable", c.sum, serr)
			}
		} else if perr != nil || serr != nil {
			t.Errorf("sum %v: RealizeProportional = %v, ValidateStats = %v, want both nil", c.sum, perr, serr)
		}
	}
}

// TestCheckRealizationCatchesOverload builds a deliberately broken
// realization and checks that Sweep.Check flags it.
func TestCheckRealizationCatchesOverload(t *testing.T) {
	plan := fig1Plan(t, 1)
	sw := newSweep(t, plan)
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{}}
	r, err := Realize(plan, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Check(r); err != nil {
		t.Fatalf("healthy realization flagged: %v", err)
	}
	r.ArcLoad[0] = plan.Instance.Graph.ArcCapacity(0) + 1
	if err := sw.Check(r); err == nil || !strings.Contains(err.Error(), "arc 0 (link 0) overloaded") {
		t.Fatalf("overload not caught: %v", err)
	}
}

// TestCheckRejectsMisshapenRealization: a realization that does not fit
// the plan — an arc count cut short, flows toward a node past the node
// range or toward one that is not among the plan's destinations, a
// flow on a tunnel past the tunnel set — is an error from Sweep.Check
// naming the mismatch, never a panic; and one that leaves out a
// destination of the plan is a balance error naming it, not a pass.
func TestCheckRejectsMisshapenRealization(t *testing.T) {
	plan := fig1Plan(t, 1)
	sw := newSweep(t, plan)
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{}}
	type mangling struct {
		name   string
		mangle func(r *Realization)
		want   string
	}
	cases := []mangling{
		{"arc count", func(r *Realization) { r.ArcLoad = r.ArcLoad[:1] }, "has 1 arc loads"},
		{"destination", func(r *Realization) { r.TunnelTo[999] = map[tunnels.ID]float64{0: 1} }, "node 999, not one of the plan's"},
		{"tunnel", func(r *Realization) {
			for dst := range r.TunnelTo {
				r.TunnelTo[dst][12345] = 1
			}
		}, "tunnel 12345, outside"},
	}
	// Flows toward two nodes that are not destinations: the lower is named.
	var foreign []topology.NodeID
	for v := 0; v < plan.Instance.Graph.NumNodes() && len(foreign) < 2; v++ {
		if !slices.Contains(sw.dests, topology.NodeID(v)) {
			foreign = append(foreign, topology.NodeID(v))
		}
	}
	if len(foreign) < 2 {
		t.Fatalf("the plan leaves %d nodes outside its destinations", len(foreign))
	}
	cases = append(cases, mangling{"non-destination", func(r *Realization) {
		r.TunnelTo[foreign[1]] = map[tunnels.ID]float64{}
		r.TunnelTo[foreign[0]] = map[tunnels.ID]float64{}
	}, fmt.Sprintf("routes to node %d, not one of the plan's %d destinations", foreign[0], len(sw.dests))})
	for _, tc := range cases {
		r, err := Realize(plan, sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Check(r); err != nil {
			t.Fatalf("healthy realization flagged: %v", err)
		}
		tc.mangle(r)
		if err := sw.Check(r); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("on a bad %s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	t.Run("fig1-f1", func(t *testing.T) { assertDroppedDestinationsFail(t, plan) })
	t.Run("sprint-cls", func(t *testing.T) { assertDroppedDestinationsFail(t, sprintCLSPlanOrSkip(t)) })
}

// assertDroppedDestinationsFail drops each destination of the plan in
// turn from its no-failure realization and requires Sweep.Check and
// the dense oracle alike to report a balance error naming it.
func assertDroppedDestinationsFail(t *testing.T, plan *core.Plan) {
	sw := newSweep(t, plan)
	for _, dst := range sw.dests {
		r, err := Realize(plan, failures.Scenario{})
		if err != nil {
			t.Fatal(err)
		}
		delete(r.TunnelTo, dst)
		want := fmt.Sprintf("routing: destination %d node ", dst)
		for _, check := range []struct {
			name string
			err  error
		}{{"Sweep.Check", sw.Check(r)}, {"denseCheck", denseCheck(plan, r)}} {
			if check.err == nil || !strings.HasPrefix(check.err.Error(), want) {
				t.Errorf("%s with destination %d dropped: %v, want an error starting %q", check.name, dst, check.err, want)
			}
		}
	}
}

// TestRealizeDeliversThroughputObjective checks realization under the
// throughput metric, where z varies per pair.
func TestRealizeDeliversThroughputObjective(t *testing.T) {
	gad := topozoo.Fig1()
	ts := tunnels.NewSet(gad.Graph)
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	for _, p := range gad.Tunnels {
		ts.MustAdd(pair, p)
	}
	tm := traffic.Single(gad.Graph.NumNodes(), pair, 3)
	in := &core.Instance{
		Graph:     gad.Graph,
		TM:        tm,
		Tunnels:   ts,
		Failures:  failures.SingleLinks(gad.Graph, 1),
		Objective: core.Throughput,
	}
	plan, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Value < 2-1e-5 {
		t.Fatalf("throughput %g, want >= 2", plan.Value)
	}
	if err := validate(plan); err != nil {
		t.Fatal(err)
	}
}

// TestTopSortPlanProportionallyRealizable is §5.2's punchline: after
// the per-scenario TopSort filter, a PCF-CLS plan is realizable with
// the FFC-style local proportional router in every protected scenario.
func TestTopSortPlanProportionallyRealizable(t *testing.T) {
	setupGraph := topozoo.MustLoad("Sprint")
	tm := traffic.Gravity(setupGraph, traffic.GravityOptions{Seed: 5, Jitter: 0.4})
	pairs := tm.TopPairs(12)
	tm = tm.Restrict(pairs)
	ts, err := tunnels.Select(setupGraph, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Graph:     setupGraph,
		TM:        tm,
		Tunnels:   ts,
		Failures:  failures.SingleLinks(setupGraph, 1),
		Objective: core.DemandScale,
	}
	clsIn, lss, err := core.BuildCLSQuick(in)
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := core.TopSortFilter(lss, true)
	tsExt, err := core.EnsureSegmentTunnels(clsIn.Tunnels, kept)
	if err != nil {
		t.Fatal(err)
	}
	clsIn.Tunnels = tsExt
	clsIn.LSs = kept
	plan, err := core.SolvePCFCLS(clsIn, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Value <= 0 {
		t.Fatal("plan admits no traffic")
	}
	if _, err := proportionalWorst(plan); err != nil {
		t.Fatalf("proportional replay failed: %v", err)
	}
	// And the linear-system realization agrees on every scenario.
	if err := validate(plan); err != nil {
		t.Fatalf("linear replay failed: %v", err)
	}
}

func TestWorstMLU(t *testing.T) {
	plan := fig1Plan(t, 1)
	mlu, sc, err := worstMLU(plan)
	if err != nil {
		t.Fatal(err)
	}
	if mlu <= 0 || mlu > 1+1e-6 {
		t.Fatalf("worst MLU = %g, want in (0, 1]", mlu)
	}
	_ = sc
	mluP, err := proportionalWorst(plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mlu-mluP) > 1e-6 {
		t.Fatalf("linear %g vs proportional %g", mlu, mluP)
	}
}

// TestMultiFailureCLSValidation is the heaviest end-to-end check: a
// PCF-CLS plan on Sprint designed for TWO simultaneous failures,
// replayed through the linear-system realization for every one of the
// 154 scenarios.
func TestMultiFailureCLSValidation(t *testing.T) {
	g := topozoo.MustLoad("Sprint")
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 9, Jitter: 0.4})
	fs := failures.SingleLinks(g, 2)
	// Keep only demand pairs that stay connected under every double
	// failure: a pair that two failures physically disconnect forces
	// the guaranteed scale to zero for every scheme, which would make
	// the positive-traffic assertion below depend on float noise.
	var pairs []topology.Pair
	unit := func(topology.LinkID) float64 { return 1 }
	for _, p := range tm.TopPairs(12) {
		connected := true
		fs.Enumerate(func(sc failures.Scenario) bool {
			if _, ok := g.ShortestPath(p.Src, p.Dst, unit, func(l topology.LinkID) bool { return sc.Dead[l] }); !ok {
				connected = false
			}
			return connected
		})
		if connected && len(pairs) < 8 {
			pairs = append(pairs, p)
		}
	}
	if len(pairs) < 4 {
		t.Fatalf("only %d doubly-connected pairs on Sprint", len(pairs))
	}
	tm = tm.Restrict(pairs)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Graph:     g,
		TM:        tm,
		Tunnels:   ts,
		Failures:  fs,
		Objective: core.DemandScale,
	}
	clsIn, _, err := core.BuildCLSQuick(in)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.SolvePCFCLS(clsIn, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Value <= 0 {
		t.Fatal("no admitted traffic under double failures")
	}
	if err := validate(plan); err != nil {
		t.Fatalf("double-failure validation: %v", err)
	}
	mlu, _, err := worstMLU(plan)
	if err != nil {
		t.Fatal(err)
	}
	if mlu > 1+1e-6 {
		t.Fatalf("worst MLU %g exceeds 1", mlu)
	}
}

// TestThroughputCLSValidation: throughput-objective CLS plans deliver
// their per-pair grants in every scenario.
func TestThroughputCLSValidation(t *testing.T) {
	g := topozoo.MustLoad("B4")
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 2, Jitter: 0.4})
	pairs := tm.TopPairs(8)
	tm = tm.Restrict(pairs)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Graph:     g,
		TM:        tm.Scale(3), // oversubscribe so z < 1 for some pairs
		Tunnels:   ts,
		Failures:  failures.SingleLinks(g, 1),
		Objective: core.Throughput,
	}
	clsIn, _, err := core.BuildCLSQuick(in)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.SolvePCFCLS(clsIn, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Value <= 0 {
		t.Fatal("zero throughput")
	}
	if err := validate(plan); err != nil {
		t.Fatalf("throughput validation: %v", err)
	}
}

// ExampleRealizeProportional shows the §4.2 data-plane response: after
// a link failure, traffic rescales proportionally over surviving
// tunnels and active logical sequences; no link exceeds capacity.
func ExampleRealizeProportional() {
	gad := topozoo.Fig1()
	ts := tunnels.NewSet(gad.Graph)
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	for _, p := range gad.Tunnels {
		ts.MustAdd(pair, p)
	}
	in := &core.Instance{
		Graph:     gad.Graph,
		TM:        traffic.Single(gad.Graph.NumNodes(), pair, 1),
		Tunnels:   ts,
		Failures:  failures.SingleLinks(gad.Graph, 1),
		Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		fmt.Println("solve:", err)
		return
	}

	// Link 0 (s-1) dies; the router rescales locally.
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{0: true}}
	r, err := RealizeProportional(plan, sc)
	if err != nil {
		fmt.Println("realize:", err)
		return
	}
	sw, err := NewSweepContext(context.Background(), plan)
	if err != nil {
		fmt.Println("engine:", err)
		return
	}
	if err := sw.Check(r); err != nil {
		fmt.Println("congestion:", err)
		return
	}
	fmt.Printf("guaranteed scale %.1f delivered under failure, congestion-free\n", plan.Value)
	// Output:
	// guaranteed scale 2.0 delivered under failure, congestion-free
}
