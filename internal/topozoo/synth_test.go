package topozoo

import (
	"testing"

	"pcf/internal/failures"
	"pcf/internal/topology"
)

// sameGraph compares two graphs structurally: names, nodes, and the
// exact link sequence (endpoints, capacity, weight).
func sameGraph(a, b *topology.Graph) bool {
	if a.Name != b.Name || a.NumNodes() != b.NumNodes() || a.NumLinks() != b.NumLinks() {
		return false
	}
	for n := 0; n < a.NumNodes(); n++ {
		if a.NodeName(topology.NodeID(n)) != b.NodeName(topology.NodeID(n)) {
			return false
		}
	}
	for l := 0; l < a.NumLinks(); l++ {
		la, lb := a.Link(topology.LinkID(l)), b.Link(topology.LinkID(l))
		if la != lb {
			return false
		}
	}
	return true
}

func TestSynthDeterministic(t *testing.T) {
	for _, kind := range SynthKinds {
		for _, n := range []int{4, 50, 300} {
			g1, err := Synth(kind, n, 7)
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, n, err)
			}
			g2, err := Synth(kind, n, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(g1, g2) {
				t.Errorf("%s/%d: same seed produced different graphs", kind, n)
			}
			g3, err := Synth(kind, n, 8)
			if err != nil {
				t.Fatal(err)
			}
			if n >= 50 && sameGraph(g1, g3) {
				t.Errorf("%s/%d: different seeds produced identical graphs", kind, n)
			}
		}
	}
}

func TestSynthTwoEdgeConnected(t *testing.T) {
	for _, kind := range SynthKinds {
		for _, n := range []int{4, 5, 17, 100, 1000} {
			g, err := Synth(kind, n, 3)
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, n, err)
			}
			if g.NumNodes() != n {
				t.Fatalf("%s/%d: got %d nodes", kind, n, g.NumNodes())
			}
			if !g.IsConnected(nil) {
				t.Errorf("%s/%d: not connected", kind, n)
			}
			if sc, bad := failures.SingleLinks(g, 1).Disconnects(g); bad {
				t.Errorf("%s/%d: disconnected by %v (not 2-edge-connected)", kind, n, sc)
			}
		}
	}
}

func TestSynthWaxmanShape(t *testing.T) {
	g, err := Synth("waxman", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Average degree 4: the chord loop runs until 2n links.
	if g.NumLinks() != 2000 {
		t.Errorf("waxman-1000: got %d links, want 2000", g.NumLinks())
	}
}

func TestSynthErrors(t *testing.T) {
	if _, err := Synth("waxman", 3, 1); err == nil {
		t.Error("nodes < 4 should error")
	}
	if _, err := Synth("torus", 100, 1); err == nil {
		t.Error("unknown kind should error")
	}
}
