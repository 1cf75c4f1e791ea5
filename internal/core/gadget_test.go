package core

import (
	"context"
	"math"
	"testing"

	"pcf/internal/failures"
	"pcf/internal/mcf"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

func approx(t *testing.T, got, want float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
		t.Fatalf("%s: got %.9g, want %.9g", msg, got, want)
	}
}

// fig1Instance builds the Fig. 1 instance with the first k canonical
// tunnels and an f-failure budget.
func fig1Instance(k, f int) *Instance {
	gad := topozoo.Fig1()
	ts := tunnels.NewSet(gad.Graph)
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	for i := 0; i < k; i++ {
		ts.MustAdd(pair, gad.Tunnels[i])
	}
	return &Instance{
		Graph:     gad.Graph,
		TM:        traffic.Single(gad.Graph.NumNodes(), pair, 1),
		Tunnels:   ts,
		Failures:  failures.SingleLinks(gad.Graph, f),
		Objective: DemandScale,
	}
}

// TestFig2 reproduces the paper's Fig. 2 numbers: the throughput
// guarantee of FFC with 3 vs 4 tunnels against the optimal, under 1
// and 2 simultaneous link failures.
func TestFig2(t *testing.T) {
	cases := []struct {
		k, f int
		want float64
	}{
		{3, 1, 1.5}, // FFC-3, single failure
		{4, 1, 1.0}, // FFC-4 is WORSE despite the extra tunnel
		{3, 2, 0.5}, // FFC-3, double failures
		{4, 2, 0.0}, // FFC-4 carries nothing
	}
	for _, c := range cases {
		plan, err := SolveFFC(fig1Instance(c.k, c.f), SolveOptions{})
		if err != nil {
			t.Fatalf("FFC-%d f=%d: %v", c.k, c.f, err)
		}
		approx(t, plan.Value, c.want, "FFC guarantee")
	}
	// Optimal (intrinsic capability): 2 under f=1, 1 under f=2.
	gad := topozoo.Fig1()
	tm := traffic.Single(gad.Graph.NumNodes(), topology.Pair{Src: gad.S, Dst: gad.T}, 1)
	opt1, _, _, err := mcf.OptimalUnderFailuresStats(context.Background(), gad.Graph, tm, failures.SingleLinks(gad.Graph, 1))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, opt1, 2, "optimal f=1")
	opt2, _, _, err := mcf.OptimalUnderFailuresStats(context.Background(), gad.Graph, tm, failures.SingleLinks(gad.Graph, 2))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, opt2, 1, "optimal f=2")
}

// TestPCFTFOnFig1 shows PCF-TF's better structure modeling: with all 4
// tunnels it reaches the optimal guarantee (2 under single failures, 1
// under double failures), where FFC-4 got 1 and 0.
func TestPCFTFOnFig1(t *testing.T) {
	p1, err := SolvePCFTF(fig1Instance(4, 1), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, p1.Value, 2, "PCF-TF 4 tunnels f=1")
	p2, err := SolvePCFTF(fig1Instance(4, 2), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, p2.Value, 1, "PCF-TF 4 tunnels f=2")
}

// TestProposition1 checks FFC <= PCF-TF on the gadgets (feasible-region
// containment).
func TestProposition1(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, f := range []int{1, 2} {
			in := fig1Instance(k, f)
			ffc, err := SolveFFC(in, SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tf, err := SolvePCFTF(in, SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if ffc.Value > tf.Value+1e-6 {
				t.Fatalf("k=%d f=%d: FFC %.6g > PCF-TF %.6g", k, f, ffc.Value, tf.Value)
			}
		}
	}
}

// TestProposition2 checks PCF-TF monotonicity in tunnels on Fig 1,
// and documents FFC's non-monotonicity.
func TestProposition2(t *testing.T) {
	prevTF := -1.0
	for _, k := range []int{2, 3, 4} {
		tf, err := SolvePCFTF(fig1Instance(k, 1), SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if tf.Value < prevTF-1e-6 {
			t.Fatalf("PCF-TF degraded with more tunnels: %g -> %g", prevTF, tf.Value)
		}
		prevTF = tf.Value
	}
	// FFC: 3 tunnels beat 4 tunnels on this gadget (non-monotone).
	f3, err := SolveFFC(fig1Instance(3, 1), SolveOptions{})
	if err != nil {
		t.Fatalf("FFC with 3 tunnels: %v", err)
	}
	f4, err := SolveFFC(fig1Instance(4, 1), SolveOptions{})
	if err != nil {
		t.Fatalf("FFC with 4 tunnels: %v", err)
	}
	if f4.Value >= f3.Value-1e-6 {
		t.Fatalf("expected FFC to degrade with the 4th tunnel: FFC-3=%g FFC-4=%g", f3.Value, f4.Value)
	}
}

// fig4AllTunnelsInstance uses every physical path of Fig4(p,n,m) as a
// tunnel for the (s0, sm) pair.
func fig4AllTunnelsInstance(p, n, m, f int) (*Instance, *topozoo.Gadget) {
	gad := topozoo.Fig4(p, n, m)
	g := gad.Graph
	ts := tunnels.NewSet(g)
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	// Enumerate all arc choices per segment.
	var paths [][]topology.ArcID
	paths = append(paths, nil)
	for seg := 0; seg < m; seg++ {
		from := gad.Aux[segName(seg)]
		to := gad.Aux[segName(seg+1)]
		var arcs []topology.ArcID
		for _, a := range g.OutArcs(from) {
			if _, t2 := g.ArcEnds(a); t2 == to {
				arcs = append(arcs, a)
			}
		}
		var next [][]topology.ArcID
		for _, prefix := range paths {
			for _, a := range arcs {
				np := append(append([]topology.ArcID(nil), prefix...), a)
				next = append(next, np)
			}
		}
		paths = next
	}
	for _, arcs := range paths {
		ts.MustAdd(pair, topology.Path{Arcs: arcs})
	}
	return &Instance{
		Graph:     g,
		TM:        traffic.Single(g.NumNodes(), pair, 1),
		Tunnels:   ts,
		Failures:  failures.SingleLinks(g, f),
		Objective: DemandScale,
	}, gad
}

func segName(i int) string { return "s" + string(rune('0'+i)) }

// TestProposition3 reproduces the Fig. 3/Fig. 4 lower bound: with all
// p·n^(m-1) tunnels, PCF-TF guarantees only 1/n under n-1 failures,
// while the optimal is 1-(n-1)/p.
func TestProposition3(t *testing.T) {
	const p, n, m = 3, 2, 2 // Fig. 3
	in, gad := fig4AllTunnelsInstance(p, n, m, n-1)
	tf, err := SolvePCFTF(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, tf.Value, 1.0/float64(n), "PCF-TF on Fig 3")
	ffc, err := SolveFFC(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ffc.Value > tf.Value+1e-6 {
		t.Fatal("FFC beat PCF-TF")
	}
	opt, _, _, err := mcf.OptimalUnderFailuresStats(context.Background(), gad.Graph, in.TM, in.Failures)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, opt, 1-float64(n-1)/float64(p), "optimal on Fig 3")
}

// TestCorollary31 shows a single LS with per-link tunnels recovers the
// optimal on the Fig. 4 family.
func TestCorollary31(t *testing.T) {
	const p, n, m = 3, 2, 3
	gad := topozoo.Fig4(p, n, m)
	g := gad.Graph
	ts := tunnels.NewSet(g)
	// Each link is a tunnel for its endpoint pair.
	for _, l := range g.Links() {
		ts.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
	}
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	hops := make([]topology.NodeID, 0, m-1)
	for i := 1; i < m; i++ {
		hops = append(hops, gad.Aux[segName(i)])
	}
	in := &Instance{
		Graph:     g,
		TM:        traffic.Single(g.NumNodes(), pair, 1),
		Tunnels:   ts,
		LSs:       []LogicalSequence{{ID: 0, Pair: pair, Hops: hops}},
		Failures:  failures.SingleLinks(g, n-1),
		Objective: DemandScale,
	}
	ls, err := SolvePCFLS(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ls.Value, 1-float64(n-1)/float64(p), "PCF-LS matches optimal on Fig 4")
}

// fig5Instances builds the FFC/PCF-TF, PCF-LS, and PCF-CLS instances
// of the paper's Fig. 5 / Table 1.
func fig5TunnelInstance(f int) (*Instance, *topozoo.Gadget) {
	gad := topozoo.Fig5()
	ts := tunnels.NewSet(gad.Graph)
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	for _, p := range gad.Tunnels {
		ts.MustAdd(pair, p)
	}
	return &Instance{
		Graph:     gad.Graph,
		TM:        traffic.Single(gad.Graph.NumNodes(), pair, 1),
		Tunnels:   ts,
		Failures:  failures.SingleLinks(gad.Graph, f),
		Objective: DemandScale,
	}, gad
}

// nodePath is a convenience building a path through named nodes.
func nodePath(g *topology.Graph, nodes ...topology.NodeID) topology.Path {
	var arcs []topology.ArcID
	for i := 0; i+1 < len(nodes); i++ {
		found := false
		for _, a := range g.OutArcs(nodes[i]) {
			if _, to := g.ArcEnds(a); to == nodes[i+1] {
				arcs = append(arcs, a)
				found = true
				break
			}
		}
		if !found {
			//lint:ignore pcflint/nopanic test fixture builder without a *testing.T; an impossible topology should stop the suite with a stack
			panic("no link")
		}
	}
	return topology.Path{Arcs: arcs}
}

// TestTable1 reproduces the paper's Table 1 for the Fig. 5 gadget under
// two simultaneous link failures: Optimal=1, FFC=0, PCF-TF=2/3,
// PCF-LS=4/5, PCF-CLS=1.
func TestTable1(t *testing.T) {
	in, gad := fig5TunnelInstance(2)
	g := gad.Graph
	s, tt := gad.S, gad.T
	n4 := gad.Aux["4"]

	ffc, err := SolveFFC(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ffc.Value, 0, "Table 1 FFC")

	tf, err := SolvePCFTF(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, tf.Value, 2.0/3.0, "Table 1 PCF-TF")

	// PCF-LS: add unconditional LS (s,4,t); segment (s,4) gets tunnels
	// s-4, s-1-4, s-2-4, s-3-4; segment (4,t) gets the three 4-i paths.
	lsIn := *in
	lsTs := tunnels.NewSet(g)
	pair := topology.Pair{Src: s, Dst: tt}
	for _, p := range gad.Tunnels {
		lsTs.MustAdd(pair, p)
	}
	s4 := topology.Pair{Src: s, Dst: n4}
	lsTs.MustAdd(s4, nodePath(g, s, n4))
	lsTs.MustAdd(s4, nodePath(g, s, gad.Aux["1"], n4))
	lsTs.MustAdd(s4, nodePath(g, s, gad.Aux["2"], n4))
	lsTs.MustAdd(s4, nodePath(g, s, gad.Aux["3"], n4))
	p4t := topology.Pair{Src: n4, Dst: tt}
	lsTs.MustAdd(p4t, nodePath(g, n4, gad.Aux["1"], gad.Aux["5"], tt))
	lsTs.MustAdd(p4t, nodePath(g, n4, gad.Aux["2"], gad.Aux["6"], tt))
	lsTs.MustAdd(p4t, nodePath(g, n4, gad.Aux["3"], gad.Aux["7"], tt))
	lsIn.Tunnels = lsTs
	lsIn.LSs = []LogicalSequence{{ID: 0, Pair: pair, Hops: []topology.NodeID{n4}}}
	ls, err := SolvePCFLS(&lsIn, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ls.Value, 4.0/5.0, "Table 1 PCF-LS")

	// PCF-CLS: same LS but conditioned on link s-4 being alive, and
	// segment (s,4) served by the single s-4 tunnel.
	var s4link topology.LinkID = -1
	for _, l := range g.Links() {
		if (l.A == s && l.B == n4) || (l.A == n4 && l.B == s) {
			s4link = l.ID
		}
	}
	clsIn := *in
	clsTs := tunnels.NewSet(g)
	for _, p := range gad.Tunnels {
		clsTs.MustAdd(pair, p)
	}
	clsTs.MustAdd(s4, nodePath(g, s, n4))
	clsTs.MustAdd(p4t, nodePath(g, n4, gad.Aux["1"], gad.Aux["5"], tt))
	clsTs.MustAdd(p4t, nodePath(g, n4, gad.Aux["2"], gad.Aux["6"], tt))
	clsTs.MustAdd(p4t, nodePath(g, n4, gad.Aux["3"], gad.Aux["7"], tt))
	clsIn.Tunnels = clsTs
	clsIn.LSs = []LogicalSequence{{ID: 0, Pair: pair, Hops: []topology.NodeID{n4}, Cond: LinkAlive(s4link)}}
	cls, err := SolvePCFCLS(&clsIn, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, cls.Value, 1, "Table 1 PCF-CLS")

	// Optimal = 1.
	opt, _, _, err := mcf.OptimalUnderFailuresStats(context.Background(), g, in.TM, in.Failures)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, opt, 1, "Table 1 Optimal")
}

// TestEnginesAgree cross-checks the cut loop against the appendix-D2
// dualization (solveDualized) on every gadget instance, FFC and PCF-TF:
// both must reach the same optimum.
func TestEnginesAgree(t *testing.T) {
	instances := gadgetInstances(t)
	instances["fig1-k3-f1"] = fig1Instance(3, 1)
	for name, in := range instances {
		for _, e := range engines {
			d, err := solveDualized(in, e.build)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			c, err := e.solve(in, SolveOptions{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if math.Abs(c.Value-d) > 1e-9*(1+math.Abs(d)) {
				t.Fatalf("%s/%s: cuts %.12g, dualized %.12g", name, c.Scheme, c.Value, d)
			}
		}
	}
}
