package topozoo

import (
	"math"
	"slices"
	"testing"

	"pcf/internal/failures"
	"pcf/internal/topology"
)

func TestTable3SizesMatchPaper(t *testing.T) {
	if len(Table3) != 21 {
		t.Fatalf("expected 21 topologies, have %d", len(Table3))
	}
	for _, e := range Table3 {
		g, err := Load(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != e.Nodes || g.NumLinks() != e.Edges {
			t.Fatalf("%s: got %d nodes %d links, want %d/%d",
				e.Name, g.NumNodes(), g.NumLinks(), e.Nodes, e.Edges)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	a := MustLoad("Sprint")
	b := MustLoad("Sprint")
	if a.NumLinks() != b.NumLinks() {
		t.Fatal("nondeterministic synthesis")
	}
	for i := 0; i < a.NumLinks(); i++ {
		la, lb := a.Link(topology.LinkID(i)), b.Link(topology.LinkID(i))
		if la.A != lb.A || la.B != lb.B || math.Float64bits(la.Capacity) != math.Float64bits(lb.Capacity) {
			t.Fatalf("link %d differs between loads", i)
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("NotATopology"); err == nil {
		t.Fatal("expected error")
	}
}

func TestAllTopologiesSurviveSingleFailure(t *testing.T) {
	// The paper prunes so that no single link failure disconnects the
	// network; our synthesized graphs must have that property natively.
	for _, e := range Table3 {
		g := MustLoad(e.Name)
		if sc, bad := failures.SingleLinks(g, 1).Disconnects(g); bad {
			t.Fatalf("%s is disconnected by %v", e.Name, sc)
		}
		if !g.IsConnected(nil) {
			t.Fatalf("%s is disconnected", e.Name)
		}
		pruned, _ := g.PruneDegreeOne()
		if pruned.NumNodes() != g.NumNodes() {
			t.Fatalf("%s: pruning removed nodes (min degree < 2)", e.Name)
		}
	}
}

func TestFig1Gadget(t *testing.T) {
	gad := Fig1()
	if gad.Graph.NumNodes() != 6 || gad.Graph.NumLinks() != 8 {
		t.Fatalf("fig1 size %d/%d", gad.Graph.NumNodes(), gad.Graph.NumLinks())
	}
	if len(gad.Tunnels) != 4 {
		t.Fatalf("fig1 should have 4 canonical tunnels")
	}
	// l3 and l4 share link 3-t; l1, l2, l3 are mutually disjoint.
	shares := func(a, b topology.Path) bool {
		for _, l := range a.Links() {
			if slices.Contains(b.Links(), l) {
				return true
			}
		}
		return false
	}
	if !shares(gad.Tunnels[2], gad.Tunnels[3]) {
		t.Fatal("l3 and l4 must share a link")
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if shares(gad.Tunnels[i], gad.Tunnels[j]) {
				t.Fatalf("l%d and l%d should be disjoint", i+1, j+1)
			}
		}
	}
}

func TestFig3IsFig4Special(t *testing.T) {
	gad := Fig3()
	// p=3 parallel 1/3 links s0-s1 plus n=2 unit links s1-s2.
	if gad.Graph.NumNodes() != 3 || gad.Graph.NumLinks() != 5 {
		t.Fatalf("fig3 size %d/%d", gad.Graph.NumNodes(), gad.Graph.NumLinks())
	}
}

func TestFig4Construction(t *testing.T) {
	gad := Fig4(4, 3, 3)
	// nodes s0..s3; links: 4 + 3 + 3 = 10.
	if gad.Graph.NumNodes() != 4 || gad.Graph.NumLinks() != 10 {
		t.Fatalf("fig4 size %d/%d", gad.Graph.NumNodes(), gad.Graph.NumLinks())
	}
	// Capacity of the first segment sums to 1.
	total := 0.0
	for _, l := range gad.Graph.Links() {
		if (l.A == gad.S && l.B == gad.Aux["s1"]) || (l.B == gad.S && l.A == gad.Aux["s1"]) {
			total += l.Capacity
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("first segment capacity %g, want 1", total)
	}
}

func TestFig5Gadget(t *testing.T) {
	gad := Fig5()
	if gad.Graph.NumNodes() != 9 || gad.Graph.NumLinks() != 13 {
		t.Fatalf("fig5 size %d/%d", gad.Graph.NumNodes(), gad.Graph.NumLinks())
	}
	if len(gad.Tunnels) != 6 {
		t.Fatal("fig5 should have 6 canonical tunnels")
	}
	// The gadget survives any two link failures for connectivity
	// purposes except cuts that isolate s or t entirely... in fact the
	// paper's optimal is 1 > 0, so no 2-failure disconnects s from t.
	fs := failures.SingleLinks(gad.Graph, 2)
	fs.Enumerate(func(sc failures.Scenario) bool {
		// s must still reach t.
		dead := sc.Dead
		reached := reachable(gad.Graph, gad.S, dead)
		if !reached[gad.T] {
			t.Fatalf("scenario %v disconnects s from t", sc)
		}
		return true
	})
}

func reachable(g *topology.Graph, from topology.NodeID, dead map[topology.LinkID]bool) map[topology.NodeID]bool {
	seen := map[topology.NodeID]bool{from: true}
	stack := []topology.NodeID{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.OutArcs(n) {
			if dead[topology.LinkOf(a)] {
				continue
			}
			if _, to := g.ArcEnds(a); !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	return seen
}

func TestSortedEntries(t *testing.T) {
	entries := SortedEntries()
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Edges > entries[i].Edges {
			t.Fatal("not sorted by edges")
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 21 || names[0] != "B4" {
		t.Fatalf("names = %v", names)
	}
}

// TestFig4FamilyProposition3Numbers sweeps the Fig. 4 parameter grid
// and checks the closed-form capacities behind Proposition 3: the
// first segment totals 1, later segments total n each.
func TestFig4FamilyProposition3Numbers(t *testing.T) {
	for _, p := range []int{2, 3, 5} {
		for _, n := range []int{1, 2, 3} {
			for _, m := range []int{2, 3, 4} {
				gad := Fig4(p, n, m)
				if gad.Graph.NumLinks() != p+n*(m-1) {
					t.Fatalf("p=%d n=%d m=%d: links=%d", p, n, m, gad.Graph.NumLinks())
				}
				segTotal := make([]float64, m)
				for _, l := range gad.Graph.Links() {
					a, b := int(l.A), int(l.B)
					lo := a
					if b < a {
						lo = b
					}
					segTotal[lo] += l.Capacity
				}
				if segTotal[0] < 0.999 || segTotal[0] > 1.001 {
					t.Fatalf("first segment capacity %g", segTotal[0])
				}
				for s := 1; s < m; s++ {
					//lint:ignore pcflint/floatcmp sum of n unit capacities is exact for these small n
					if segTotal[s] != float64(n) {
						t.Fatalf("segment %d capacity %g, want %d", s, segTotal[s], n)
					}
				}
			}
		}
	}
}

func TestFig4Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m < 2")
		}
	}()
	Fig4(3, 2, 1)
}
