// Package topozoo provides the evaluation topologies. The paper
// evaluates over 21 Internet Topology Zoo graphs (its Table 3); the
// original GraphML files are not redistributable here, so Load
// synthesizes, deterministically per topology name, an ISP-like
// 2-edge-connected graph with exactly the node and edge counts of
// Table 3 (ring-plus-chords with preferential attachment and mixed
// link speeds). DESIGN.md documents this substitution. The paper's
// worked examples (Figs. 1, 3, 4 and 5) are reproduced exactly.
package topozoo

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"pcf/internal/topology"
)

// Entry describes one evaluation topology (paper Table 3).
type Entry struct {
	Name  string
	Nodes int
	Edges int
}

// Table3 lists the 21 topologies of the paper's evaluation with their
// published node and edge counts.
var Table3 = []Entry{
	{"B4", 12, 19},
	{"IBM", 17, 23},
	{"ATT", 25, 56},
	{"Quest", 19, 30},
	{"Tinet", 48, 84},
	{"Sprint", 10, 17},
	{"GEANT", 32, 50},
	{"Xeex", 22, 32},
	{"CWIX", 21, 26},
	{"Digex", 31, 35},
	{"IIJ", 27, 55},
	{"JanetBackbone", 29, 45},
	{"Highwinds", 16, 29},
	{"BTNorthAmerica", 36, 76},
	{"CRLNetwork", 32, 37},
	{"Darkstrand", 28, 31},
	{"Integra", 23, 32},
	{"Xspedius", 33, 47},
	{"InternetMCI", 18, 32},
	{"Deltacom", 103, 151},
	{"ION", 114, 135},
}

// Names returns the topology names in Table 3 order.
func Names() []string {
	out := make([]string, len(Table3))
	for i, e := range Table3 {
		out[i] = e.Name
	}
	return out
}

// Load synthesizes the named topology. The result is deterministic:
// the same name always produces the same graph.
func Load(name string) (*topology.Graph, error) {
	for _, e := range Table3 {
		if e.Name == name {
			return synthesize(e), nil
		}
	}
	return nil, fmt.Errorf("topozoo: unknown topology %q", name)
}

// MustLoad is Load that panics on unknown names; for code that hard-
// wires a Table 3 name. The Must* naming places it on the
// pcflint/nopanic allowlist (DESIGN.md §10); anything handling
// user-supplied names uses Load.
func MustLoad(name string) *topology.Graph {
	g, err := Load(name)
	if err != nil {
		panic(err)
	}
	return g
}

// seedFor derives a stable seed from the topology name.
func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// linkSpeeds is the capacity mix assigned to synthesized links,
// mimicking a WAN with OC-48 / OC-192 / 40G-class trunks.
var linkSpeeds = []float64{4, 10, 10, 10, 40}

// synthesize builds an ISP-like graph: a Hamiltonian ring over nodes
// placed on a circle (guaranteeing 2-edge-connectivity, so no single
// link failure disconnects it — the property the paper enforces by
// pruning), plus chords chosen by a mix of preferential attachment and
// locality.
func synthesize(e Entry) *topology.Graph {
	rng := rand.New(rand.NewSource(seedFor(e.Name)))
	g := topology.New(e.Name)
	for i := 0; i < e.Nodes; i++ {
		g.AddNode(fmt.Sprintf("%s%d", e.Name, i))
	}
	deg := make([]int, e.Nodes)
	have := make(map[[2]int]bool)
	addLink := func(a, b int) bool {
		if a == b {
			return false
		}
		key := [2]int{min(a, b), max(a, b)}
		if have[key] {
			return false
		}
		have[key] = true
		g.AddLink(topology.NodeID(a), topology.NodeID(b), linkSpeeds[rng.Intn(len(linkSpeeds))])
		deg[a]++
		deg[b]++
		return true
	}
	// Ring.
	for i := 0; i < e.Nodes; i++ {
		addLink(i, (i+1)%e.Nodes)
	}
	// Chords.
	for g.NumLinks() < e.Edges {
		var a, b int
		if rng.Float64() < 0.5 {
			// Preferential attachment: pick endpoints weighted by degree.
			a = pickByDegree(rng, deg)
			b = pickByDegree(rng, deg)
		} else {
			// Locality: a random node and a nearby node on the ring.
			a = rng.Intn(e.Nodes)
			span := 2 + rng.Intn(max(2, e.Nodes/4))
			if rng.Intn(2) == 0 {
				span = -span
			}
			b = ((a+span)%e.Nodes + e.Nodes) % e.Nodes
		}
		addLink(a, b)
	}
	return g
}

func pickByDegree(rng *rand.Rand, deg []int) int {
	total := 0
	for _, d := range deg {
		total += d
	}
	r := rng.Intn(total)
	for i, d := range deg {
		r -= d
		if r < 0 {
			return i
		}
	}
	return len(deg) - 1
}

// Gadget is a worked-example topology with its designated source and
// destination and the canonical tunnels the paper uses with it.
type Gadget struct {
	Graph *topology.Graph
	S, T  topology.NodeID
	// Tunnels are the canonical tunnel paths from S to T in the order
	// the paper names them (l1, l2, ...).
	Tunnels []topology.Path
	// Aux holds named nodes for building logical sequences.
	Aux map[string]topology.NodeID
}

// ErrNoLink reports a gadget path hop between unconnected nodes.
var ErrNoLink = errors.New("topozoo: no link between path nodes")

// path builds a Path through the listed nodes, resolving each hop to a
// connecting link (the gadgets have at most one link per node pair,
// except where disambiguated by explicit link IDs). A hop between
// unconnected nodes is reported as ErrNoLink.
func path(g *topology.Graph, nodes ...topology.NodeID) (topology.Path, error) {
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
			return topology.Path{}, fmt.Errorf("%w: %d-%d", ErrNoLink, nodes[i], nodes[i+1])
		}
	}
	return topology.Path{Arcs: arcs}, nil
}

// mustPath is path for the compile-time gadget fixtures below, where a
// missing link is a programmer error in the fixture itself (documented
// pcflint/nopanic allowlist entry).
func mustPath(g *topology.Graph, nodes ...topology.NodeID) topology.Path {
	p, err := path(g, nodes...)
	if err != nil {
		panic(err)
	}
	return p
}

// Fig1 reproduces the paper's Fig. 1: the optimal response carries 2
// units from s to t under any single link failure, while FFC with all
// four tunnels guarantees only 1 and with three disjoint tunnels 1.5.
func Fig1() *Gadget {
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
	return &Gadget{
		Graph: g, S: s, T: t,
		Tunnels: []topology.Path{
			mustPath(g, s, n1, t),     // l1
			mustPath(g, s, n2, t),     // l2
			mustPath(g, s, n3, t),     // l3
			mustPath(g, s, n4, n3, t), // l4 (shares 3-t with l3)
		},
		Aux: map[string]topology.NodeID{"1": n1, "2": n2, "3": n3, "4": n4},
	}
}

// Fig3 reproduces Fig. 3: three parallel 1/3-capacity links s-u and two
// unit links u-t; the optimal response guarantees 2/3 under any single
// failure while tunnel reservations cap FFC at 1/2. It is Fig4(3, 2, 2)
// in the paper's generalization.
func Fig3() *Gadget {
	gad := Fig4(3, 2, 2)
	gad.Graph.Name = "fig3"
	return gad
}

// Fig4 builds the family of Fig. 4: m+1 nodes s0..sm; p parallel links
// of capacity 1/p between s0 and s1; and n parallel unit-capacity links
// between consecutive later nodes. Under any n-1 simultaneous link
// failures the optimal carries 1-(n-1)/p while tunnel-based schemes
// guarantee at most 1/n (paper Proposition 3).
func Fig4(p, n, m int) *Gadget {
	if p < 1 || n < 1 || m < 2 {
		//lint:ignore pcflint/nopanic documented precondition of a compile-time gadget family; parameters come from code, never from data
		panic("topozoo: Fig4 requires p,n >= 1 and m >= 2")
	}
	g := topology.New(fmt.Sprintf("fig4(p=%d,n=%d,m=%d)", p, n, m))
	nodes := make([]topology.NodeID, m+1)
	for i := range nodes {
		nodes[i] = g.AddNode(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < p; i++ {
		g.AddLink(nodes[0], nodes[1], 1/float64(p))
	}
	for seg := 1; seg < m; seg++ {
		for i := 0; i < n; i++ {
			g.AddLink(nodes[seg], nodes[seg+1], 1)
		}
	}
	aux := map[string]topology.NodeID{}
	for i, nd := range nodes {
		aux[fmt.Sprintf("s%d", i)] = nd
	}
	return &Gadget{Graph: g, S: nodes[0], T: nodes[m], Aux: aux}
}

// Fig5 reproduces Fig. 5 (Table 1): under two simultaneous link
// failures, Optimal=1, FFC=0, PCF-TF=2/3, PCF-LS=4/5, PCF-CLS=1, R3=0.
// Half-capacity links: s-1, s-2, s-3, s-4, 4-1, 4-2, 4-3. Unit links:
// 1-5, 2-6, 3-7, 5-t, 6-t, 7-t. (This is the unique half/full capacity
// assignment under which all six Table 1 values hold.)
func Fig5() *Gadget {
	g := topology.New("fig5")
	s := g.AddNode("s")
	n := make([]topology.NodeID, 8)
	for i := 1; i <= 7; i++ {
		n[i] = g.AddNode(fmt.Sprintf("%d", i))
	}
	t := g.AddNode("t")
	half := 0.5
	g.AddLink(s, n[1], half)
	g.AddLink(s, n[2], half)
	g.AddLink(s, n[3], half)
	g.AddLink(s, n[4], half)
	g.AddLink(n[4], n[1], half)
	g.AddLink(n[4], n[2], half)
	g.AddLink(n[4], n[3], half)
	g.AddLink(n[1], n[5], 1)
	g.AddLink(n[2], n[6], 1)
	g.AddLink(n[3], n[7], 1)
	g.AddLink(n[5], t, 1)
	g.AddLink(n[6], t, 1)
	g.AddLink(n[7], t, 1)
	aux := map[string]topology.NodeID{}
	for i := 1; i <= 7; i++ {
		aux[fmt.Sprintf("%d", i)] = n[i]
	}
	return &Gadget{
		Graph: g, S: s, T: t,
		Tunnels: []topology.Path{
			mustPath(g, s, n[1], n[5], t),
			mustPath(g, s, n[2], n[6], t),
			mustPath(g, s, n[3], n[7], t),
			mustPath(g, s, n[4], n[1], n[5], t),
			mustPath(g, s, n[4], n[2], n[6], t),
			mustPath(g, s, n[4], n[3], n[7], t),
		},
		Aux: aux,
	}
}

// SortedEntries returns Table3 sorted by edge count, used by the
// solve-time experiment (Fig. 14).
func SortedEntries() []Entry {
	out := append([]Entry(nil), Table3...)
	sort.Slice(out, func(i, j int) bool { return out[i].Edges < out[j].Edges })
	return out
}
