package topology

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// triangle builds a 3-node cycle.
func triangle() *Graph {
	g := New("triangle")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddLink(a, b, 1)
	g.AddLink(b, c, 1)
	g.AddLink(a, c, 1)
	return g
}

func TestBasicConstruction(t *testing.T) {
	g := triangle()
	if g.NumNodes() != 3 || g.NumLinks() != 3 || g.NumArcs() != 6 {
		t.Fatalf("counts wrong: %d nodes %d links %d arcs", g.NumNodes(), g.NumLinks(), g.NumArcs())
	}
	l := g.Link(0)
	if from, to := g.ArcEnds(l.Forward()); from != l.A || to != l.B {
		t.Fatal("forward arc ends wrong")
	}
	if from, to := g.ArcEnds(l.Reverse()); from != l.B || to != l.A {
		t.Fatal("reverse arc ends wrong")
	}
	if d := len(g.OutArcs(0)); d != 2 {
		t.Fatalf("degree = %d", d)
	}
	//lint:ignore pcflint/floatcmp sum of the small integer capacities 1+2 is exact
	if g.TotalCapacity() != 3 {
		t.Fatalf("total capacity = %g", g.TotalCapacity())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New("x")
	a := g.AddNode("a")
	g.AddLink(a, a, 1)
}

func TestShortestPathHopCount(t *testing.T) {
	// Path graph a-b-c-d plus shortcut a-d with high weight.
	g := New("p")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddLink(a, b, 1)
	g.AddLink(b, c, 1)
	g.AddLink(c, d, 1)
	short := g.AddWeightedLink(a, d, 1, 10)
	p, ok := g.ShortestPath(a, d, nil, nil)
	if !ok {
		t.Fatal("no path")
	}
	if len(p.Arcs) != 3 {
		t.Fatalf("path has %d hops, want 3", len(p.Arcs))
	}
	// With the long link banned... ban the 3 middle links instead to
	// force the shortcut.
	p2, ok := g.ShortestPath(a, d, nil, func(l LinkID) bool { return l != short })
	if !ok || len(p2.Arcs) != 1 || LinkOf(p2.Arcs[0]) != short {
		t.Fatalf("banned search wrong: %v", p2)
	}
	nodes := p.Nodes(g)
	if len(nodes) != 4 || nodes[0] != a || nodes[3] != d {
		t.Fatalf("nodes = %v", nodes)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New("u")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddLink(a, b, 1)
	_ = c
	if _, ok := g.ShortestPath(a, c, nil, nil); ok {
		t.Fatal("expected unreachable")
	}
}

func TestPruneDegreeOne(t *testing.T) {
	// Triangle with a tail: d-e hangs off a.
	g := triangle()
	d := g.AddNode("d")
	e := g.AddNode("e")
	g.AddLink(0, d, 1)
	g.AddLink(d, e, 1)
	pruned, mapping := g.PruneDegreeOne()
	if pruned.NumNodes() != 3 || pruned.NumLinks() != 3 {
		t.Fatalf("pruned to %d nodes %d links", pruned.NumNodes(), pruned.NumLinks())
	}
	if mapping[int(d)] != -1 || mapping[int(e)] != -1 {
		t.Fatal("tail nodes should be removed")
	}
	if mapping[0] == -1 {
		t.Fatal("triangle node should survive")
	}
	for l := 0; l < pruned.NumLinks(); l++ {
		if !pruned.IsConnected(map[LinkID]bool{LinkID(l): true}) {
			t.Fatalf("pruned graph is disconnected by link %d", l)
		}
	}
}

func TestPruneEverything(t *testing.T) {
	// A pure path collapses entirely.
	g := New("path")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddLink(a, b, 1)
	g.AddLink(b, c, 1)
	pruned, _ := g.PruneDegreeOne()
	if pruned.NumNodes() != 0 {
		t.Fatalf("expected empty graph, got %d nodes", pruned.NumNodes())
	}
}

func TestSplitSubLinks(t *testing.T) {
	g := triangle()
	split, err := g.SplitSubLinks(2)
	if err != nil {
		t.Fatalf("SplitSubLinks: %v", err)
	}
	if _, err := g.SplitSubLinks(1); err == nil {
		t.Fatal("SplitSubLinks(1) should fail")
	}
	if split.NumLinks() != 6 {
		t.Fatalf("split links = %d, want 6", split.NumLinks())
	}
	if math.Float64bits(split.TotalCapacity()) != math.Float64bits(g.TotalCapacity()) {
		t.Fatalf("capacity changed: %g vs %g", split.TotalCapacity(), g.TotalCapacity())
	}
	// Parallel sub-links fail independently: killing one leaves the
	// graph connected.
	if !split.IsConnected(map[LinkID]bool{0: true}) {
		t.Fatal("split graph should survive one sub-link failure")
	}
}

func TestIsConnectedWithDeadLinks(t *testing.T) {
	g := triangle()
	if !g.IsConnected(nil) {
		t.Fatal("triangle is connected")
	}
	if !g.IsConnected(map[LinkID]bool{0: true}) {
		t.Fatal("triangle minus one link is connected")
	}
	if g.IsConnected(map[LinkID]bool{0: true, 2: true}) {
		t.Fatal("triangle minus two incident links should isolate a node")
	}
}

func TestPathHelpers(t *testing.T) {
	g := triangle()
	p, _ := g.ShortestPath(0, 2, nil, nil)
	links := p.Links()
	if len(links) != len(p.Arcs) {
		t.Fatal("Links length mismatch")
	}
}

// randomConnectedGraph builds a random connected graph on n nodes by
// adding a spanning tree then extra links.
func randomConnectedGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New("rand")
	for i := 0; i < n; i++ {
		g.AddNode("n")
	}
	for i := 1; i < n; i++ {
		g.AddLink(NodeID(rng.Intn(i)), NodeID(i), 1+rng.Float64())
	}
	for e := 0; e < extra; e++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a != b {
			g.AddLink(NodeID(a), NodeID(b), 1+rng.Float64())
		}
	}
	return g
}

// Property: after pruning, every surviving node has degree >= 2, and
// the pruned graph is connected if the original was.
func TestPropertyPruneInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 3+rng.Intn(20), rng.Intn(20))
		pruned, _ := g.PruneDegreeOne()
		for i := 0; i < pruned.NumNodes(); i++ {
			if len(pruned.OutArcs(NodeID(i))) < 2 {
				return false
			}
		}
		return pruned.IsConnected(nil)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Dijkstra distances satisfy the triangle inequality through
// any intermediate node.
func TestPropertyShortestPathOptimality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(17))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		g := randomConnectedGraph(rng, n, n)
		pathLen := func(p Path) float64 {
			total := 0.0
			for _, a := range p.Arcs {
				total += g.Link(LinkOf(a)).Weight
			}
			return total
		}
		for trial := 0; trial < 5; trial++ {
			s := NodeID(rng.Intn(n))
			d := NodeID(rng.Intn(n))
			m := NodeID(rng.Intn(n))
			if s == d {
				continue
			}
			pd, ok := g.ShortestPath(s, d, nil, nil)
			if !ok {
				return false
			}
			if s == m || d == m {
				continue
			}
			p1, ok1 := g.ShortestPath(s, m, nil, nil)
			p2, ok2 := g.ShortestPath(m, d, nil, nil)
			if ok1 && ok2 && pathLen(pd) > pathLen(p1)+pathLen(p2)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestKShortestPathsEnumerates(t *testing.T) {
	// Diamond: a-b-d, a-c-d, plus cross b-c gives 4 simple a->d paths.
	g := New("kd")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddLink(a, b, 1)
	g.AddLink(b, d, 1)
	g.AddLink(a, c, 1)
	g.AddLink(c, d, 1)
	g.AddLink(b, c, 1)
	paths := g.KShortestPaths(a, d, 10, nil)
	if len(paths) != 4 {
		t.Fatalf("got %d paths, want 4", len(paths))
	}
	// Nondecreasing length.
	for i := 1; i < len(paths); i++ {
		if len(paths[i-1].Arcs) > len(paths[i].Arcs) {
			t.Fatal("paths not ordered by length")
		}
	}
	// All distinct and simple.
	seen := map[string]bool{}
	for _, p := range paths {
		key := ""
		nodes := p.Nodes(g)
		visited := map[NodeID]bool{}
		for _, n := range nodes {
			if visited[n] {
				t.Fatalf("non-simple path %v", nodes)
			}
			visited[n] = true
			key += string(rune('a' + n))
		}
		if seen[key] {
			t.Fatalf("duplicate path %v", nodes)
		}
		seen[key] = true
	}
}

func TestKShortestPathsUnreachable(t *testing.T) {
	g := New("u")
	a := g.AddNode("a")
	b := g.AddNode("b")
	_ = b
	if paths := g.KShortestPaths(a, b, 3, nil); paths != nil {
		t.Fatalf("expected nil, got %v", paths)
	}
}

func TestKShortestPathsRespectsWeights(t *testing.T) {
	// Two routes: 1-hop expensive, 2-hop cheap.
	g := New("w")
	a := g.AddNode("a")
	m := g.AddNode("m")
	b := g.AddNode("b")
	g.AddWeightedLink(a, b, 1, 10)
	g.AddWeightedLink(a, m, 1, 1)
	g.AddWeightedLink(m, b, 1, 1)
	paths := g.KShortestPaths(a, b, 2, nil)
	if len(paths) != 2 || len(paths[0].Arcs) != 2 {
		t.Fatalf("cheapest path should be the 2-hop one: %v", paths)
	}
}

func TestReadLinksRoundTrip(t *testing.T) {
	input := "# comment\n0 1 10\n1 2 5.5\n2 0 4\n"
	g, err := ReadLinks(strings.NewReader(input), "parsed")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumLinks() != 3 {
		t.Fatalf("parsed %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
	//lint:ignore pcflint/floatcmp parsed literal 5.5 is exactly representable and stored verbatim
	if g.Link(1).Capacity != 5.5 {
		t.Fatalf("capacity = %g", g.Link(1).Capacity)
	}
}

func TestReadLinksErrors(t *testing.T) {
	cases := []string{
		"0 1\n",    // malformed
		"0 1 -3\n", // negative capacity
		"-1 2 1\n", // negative node
		"# only\n", // no links
	}
	for _, c := range cases {
		if _, err := ReadLinks(strings.NewReader(c), "bad"); err == nil {
			t.Fatalf("input %q accepted", c)
		}
	}
}
