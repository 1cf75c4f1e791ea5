package tunnels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pcf/internal/topology"
)

func diamond() *topology.Graph {
	g := topology.New("diamond")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddLink(a, b, 1)
	g.AddLink(b, d, 1)
	g.AddLink(a, c, 1)
	g.AddLink(c, d, 1)
	g.AddLink(b, c, 1)
	return g
}

func TestSelectDisjoint(t *testing.T) {
	g := diamond()
	pair := topology.Pair{Src: 0, Dst: 3}
	s, err := Select(g, []topology.Pair{pair}, SelectOptions{PerPair: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := s.ForPair(pair)
	if len(ids) != 2 {
		t.Fatalf("got %d tunnels", len(ids))
	}
	if s.MaxShared(pair) != 1 {
		t.Fatalf("p_st = %d, want 1 (disjoint)", s.MaxShared(pair))
	}
}

func TestSelectThreeTunnels(t *testing.T) {
	g := diamond()
	pair := topology.Pair{Src: 0, Dst: 3}
	s, err := Select(g, []topology.Pair{pair}, SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ForPair(pair)) != 3 {
		t.Fatalf("got %d tunnels", len(s.ForPair(pair)))
	}
	// Shorter tunnels must come first.
	ids := s.ForPair(pair)
	for i := 1; i < len(ids); i++ {
		if len(s.Tunnel(ids[i-1]).Path.Arcs) > len(s.Tunnel(ids[i]).Path.Arcs) {
			t.Fatal("tunnels not sorted by length")
		}
	}
}

// TestMengerGuarantee: on any 2-edge-connected graph, Select with
// PerPair=2 must return two link-disjoint tunnels for every pair (the
// paper relies on this property of its topologies).
func TestMengerGuarantee(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(4))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := topology.New("rand")
		for i := 0; i < n; i++ {
			g.AddNode("n")
		}
		// Ring guarantees 2-edge-connectivity; add chords.
		for i := 0; i < n; i++ {
			g.AddLink(topology.NodeID(i), topology.NodeID((i+1)%n), 1)
		}
		for e := 0; e < n/2; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddLink(topology.NodeID(a), topology.NodeID(b), 1)
			}
		}
		s, err := Select(g, g.AllPairs(), SelectOptions{PerPair: 2})
		if err != nil {
			return false
		}
		for _, p := range g.AllPairs() {
			if len(s.ForPair(p)) < 2 || s.MaxShared(p) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAddValidation(t *testing.T) {
	g := diamond()
	s := NewSet(g)
	if _, err := s.Add(topology.Pair{Src: 0, Dst: 3}, topology.Path{}); err == nil {
		t.Fatal("empty path accepted")
	}
	// Wrong endpoints.
	p, _ := g.ShortestPath(0, 2, nil, nil)
	if _, err := s.Add(topology.Pair{Src: 0, Dst: 3}, p); err == nil {
		t.Fatal("wrong-endpoint path accepted")
	}
	// Discontinuous path.
	l0 := g.Link(0) // a-b
	l3 := g.Link(3) // c-d
	bad := topology.Path{Arcs: []topology.ArcID{l0.Forward(), l3.Forward()}}
	if _, err := s.Add(topology.Pair{Src: 0, Dst: 3}, bad); err == nil {
		t.Fatal("discontinuous path accepted")
	}
}

func TestRestrict(t *testing.T) {
	g := diamond()
	pair := topology.Pair{Src: 0, Dst: 3}
	s, err := Select(g, []topology.Pair{pair}, SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Restrict(2)
	if len(r.ForPair(pair)) != 2 {
		t.Fatalf("restrict kept %d", len(r.ForPair(pair)))
	}
	// Originals unchanged.
	if len(s.ForPair(pair)) != 3 {
		t.Fatal("restrict mutated source")
	}
}

func TestParallelLinksAsDisjointTunnels(t *testing.T) {
	g := topology.New("par")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddLink(a, b, 1)
	g.AddLink(a, b, 1)
	pair := topology.Pair{Src: a, Dst: b}
	s, err := Select(g, []topology.Pair{pair}, SelectOptions{PerPair: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ForPair(pair)) != 2 || s.MaxShared(pair) != 1 {
		t.Fatalf("parallel links should give 2 disjoint tunnels (got %d, shared %d)",
			len(s.ForPair(pair)), s.MaxShared(pair))
	}
}
