package mcf

import (
	"context"
	"math"
	"testing"

	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/traffic"
)

func approx(t *testing.T, got, want float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("%s: got %.9g, want %.9g", msg, got, want)
	}
}

// twoPath builds s -(cap 3)- m -(cap 3)- t plus a direct s-t link of cap 2.
func twoPath() (*topology.Graph, topology.NodeID, topology.NodeID) {
	g := topology.New("twopath")
	s := g.AddNode("s")
	m := g.AddNode("m")
	t := g.AddNode("t")
	g.AddLink(s, m, 3)
	g.AddLink(m, t, 3)
	g.AddLink(s, t, 2)
	return g, s, t
}

func TestMaxConcurrentFlowSinglePair(t *testing.T) {
	g, s, tt := twoPath()
	tm := traffic.Single(g.NumNodes(), topology.Pair{Src: s, Dst: tt}, 1)
	res, err := MaxConcurrentFlow(g, tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Max s->t flow = 3 (via m) + 2 (direct) = 5; demand 1 -> z = 5.
	approx(t, res.Objective, 5, "concurrent flow")
}

func TestMaxConcurrentFlowWithDeadLink(t *testing.T) {
	g, s, tt := twoPath()
	tm := traffic.Single(g.NumNodes(), topology.Pair{Src: s, Dst: tt}, 1)
	res, err := MaxConcurrentFlow(g, tm, map[topology.LinkID]bool{2: true}) // kill direct
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Objective, 3, "flow without direct link")
}

func TestDisconnectedGivesZero(t *testing.T) {
	g := topology.New("disc")
	a := g.AddNode("a")
	b := g.AddNode("b")
	l := g.AddLink(a, b, 1)
	tm := traffic.Single(2, topology.Pair{Src: a, Dst: b}, 1)
	res, err := MaxConcurrentFlow(g, tm, map[topology.LinkID]bool{l: true})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Objective, 0, "disconnected")
}

func TestMultiCommodityShareCapacity(t *testing.T) {
	// Triangle, capacity 1 per link. Demands a->b and b->a of 1 each.
	// Each can use its direct arc (capacity 1 per direction) plus the
	// two-hop detour. Max concurrent z: direct gives 1, detour via c
	// gives 1 more in each direction -> z = 2.
	g := topology.New("tri")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddLink(a, b, 1)
	g.AddLink(b, c, 1)
	g.AddLink(a, c, 1)
	tm := traffic.NewMatrix(3)
	tm.Set(topology.Pair{Src: a, Dst: b}, 1)
	tm.Set(topology.Pair{Src: b, Dst: a}, 1)
	res, err := MaxConcurrentFlow(g, tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Objective, 2, "bidirectional sharing")
	_ = c
}

func TestMinMLU(t *testing.T) {
	g, s, tt := twoPath()
	// Demand 2.5 on a 5-capacity cut: optimal MLU = 0.5.
	tm := traffic.Single(g.NumNodes(), topology.Pair{Src: s, Dst: tt}, 2.5)
	mlu, _, err := minMLU(g, tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, mlu, 0.5, "MLU")
}

func TestOptimalUnderFailuresFig1(t *testing.T) {
	// Paper Fig. 1: the network can intrinsically carry 2 units from s
	// to t under any single link failure.
	g, s, tt := fig1Graph()
	tm := traffic.Single(g.NumNodes(), topology.Pair{Src: s, Dst: tt}, 1)
	fs := failures.SingleLinks(g, 1)
	z, _, _, err := OptimalUnderFailuresStats(context.Background(), g, tm, fs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, z, 2, "Fig 1 optimal under single failure")

	// And 1 unit under any two simultaneous failures (paper Fig. 2).
	fs2 := failures.SingleLinks(g, 2)
	z2, _, _, err := OptimalUnderFailuresStats(context.Background(), g, tm, fs2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, z2, 1, "Fig 1 optimal under double failure")
}

// fig1Graph reproduces the topology of the paper's Fig. 1:
// nodes s,1,2,3,4,t. Unit-capacity links s-1, 1-t, s-2, 2-t, 3-t; and
// half-capacity links s-3, s-4, 4-3. Under any single link failure the
// optimal response carries 2 units s->t; under any double failure, 1.
func fig1Graph() (*topology.Graph, topology.NodeID, topology.NodeID) {
	g := topology.New("fig1")
	s := g.AddNode("s")
	n1 := g.AddNode("1")
	n2 := g.AddNode("2")
	n3 := g.AddNode("3")
	n4 := g.AddNode("4")
	t := g.AddNode("t")
	g.AddLink(s, n1, 1)
	g.AddLink(n1, t, 1)
	g.AddLink(s, n2, 1)
	g.AddLink(n2, t, 1)
	g.AddLink(s, n3, 0.5)
	g.AddLink(n3, t, 1)
	g.AddLink(s, n4, 0.5)
	g.AddLink(n4, n3, 0.5)
	return g, s, t
}

func TestScaleToMLU(t *testing.T) {
	g, s, tt := twoPath()
	tm := traffic.Single(g.NumNodes(), topology.Pair{Src: s, Dst: tt}, 1)
	scaled, mlu, err := ScaleToMLU(g, tm, 0.6, 0.63)
	if err != nil {
		t.Fatal(err)
	}
	if mlu < 0.6-1e-9 || mlu > 0.63+1e-9 {
		t.Fatalf("MLU %g outside target", mlu)
	}
	// Demand that saturates 61.5% of the 5-unit cut.
	approx(t, scaled.Total(), 5*0.615, "scaled demand")
}

func TestScaleToMLUBadArgs(t *testing.T) {
	g, s, tt := twoPath()
	tm := traffic.Single(g.NumNodes(), topology.Pair{Src: s, Dst: tt}, 1)
	if _, _, err := ScaleToMLU(g, tm, 0.63, 0.6); err == nil {
		t.Fatal("expected error for inverted range")
	}
	if _, _, err := ScaleToMLU(g, traffic.NewMatrix(g.NumNodes()), 0.6, 0.63); err == nil {
		t.Fatal("expected error for empty matrix")
	}
}

func TestFlowConservationInResult(t *testing.T) {
	g, s, tt := twoPath()
	tm := traffic.Single(g.NumNodes(), topology.Pair{Src: s, Dst: tt}, 1)
	res, err := MaxConcurrentFlow(g, tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	fv := res.FlowTo[tt]
	// Net flow out of s equals z * demand.
	net := 0.0
	for _, a := range g.OutArcs(s) {
		net += fv[a] - fv[a^1]
	}
	approx(t, net, res.Objective*1, "net flow out of source")
	// Capacity respected on every arc.
	for a := 0; a < g.NumArcs(); a++ {
		if fv[a] > g.ArcCapacity(topology.ArcID(a))+1e-7 {
			t.Fatalf("arc %d overloaded: %g > %g", a, fv[a], g.ArcCapacity(topology.ArcID(a)))
		}
	}
}

func BenchmarkMaxConcurrentFlowSprintScale(b *testing.B) {
	// A 10-node ring+chords graph comparable to Sprint.
	g := topology.New("bench")
	for i := 0; i < 10; i++ {
		g.AddNode("n")
	}
	for i := 0; i < 10; i++ {
		g.AddLink(topology.NodeID(i), topology.NodeID((i+1)%10), 10)
	}
	for i := 0; i < 7; i++ {
		g.AddLink(topology.NodeID(i), topology.NodeID((i+3)%10), 10)
	}
	tm := traffic.NewMatrix(g.NumNodes())
	for s := range tm.Demand {
		for t := range tm.Demand[s] {
			if s != t {
				tm.Demand[s][t] = 0.3
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxConcurrentFlow(g, tm, nil); err != nil {
			b.Fatal(err)
		}
	}
}
