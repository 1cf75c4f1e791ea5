package tunnels

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pcf/internal/topology"
	"pcf/internal/topozoo"
)

// fullPassDisjointPaths is the disjoint-path search the worklist search
// replaced, kept as its oracle: Bellman-Ford passes that evaluate every
// residual arc in ID order, with usage in a map, from scratch for every
// augmentation of every pair.
func fullPassDisjointPaths(g *topology.Graph, pair topology.Pair, k int) []topology.Path {
	n := g.NumNodes()
	// usage[l]: 0 = unused, +1 = used in forward arc dir, -1 = reverse.
	usage := make(map[topology.LinkID]int)
	flows := 0
	for flows < k {
		// Bellman-Ford over residual arcs.
		dist := make([]float64, n)
		prevArc := make([]topology.ArcID, n)
		for i := range dist {
			dist[i] = math.Inf(1)
			prevArc[i] = -1
		}
		dist[pair.Src] = 0
		for iter := 0; iter < n; iter++ {
			improved := false
			for li := 0; li < g.NumLinks(); li++ {
				l := g.Link(topology.LinkID(li))
				for _, arc := range []topology.ArcID{l.Forward(), l.Reverse()} {
					from, to := g.ArcEnds(arc)
					var cost float64
					switch usage[l.ID] {
					case 0:
						cost = l.Weight // either direction available
					case +1:
						if arc != l.Reverse() {
							continue // only cancellation allowed
						}
						cost = -l.Weight
					case -1:
						if arc != l.Forward() {
							continue
						}
						cost = -l.Weight
					}
					if dist[from]+cost < dist[to]-1e-12 {
						dist[to] = dist[from] + cost
						prevArc[to] = arc
						improved = true
					}
				}
			}
			if !improved {
				break
			}
		}
		if prevArc[pair.Dst] == -1 {
			break // no more disjoint paths
		}
		// Apply the augmenting path to the usage map.
		for at := pair.Dst; at != pair.Src; {
			arc := prevArc[at]
			l := topology.LinkOf(arc)
			dir := +1
			if arc == g.Link(l).Reverse() {
				dir = -1
			}
			if usage[l] == -dir {
				usage[l] = 0 // cancellation
			} else {
				usage[l] = dir
			}
			from, _ := g.ArcEnds(arc)
			at = from
		}
		flows++
	}
	if flows == 0 {
		return nil
	}
	// Decompose the flow into paths by walking from src. Iterate links
	// in ID order so the decomposition (and therefore tunnel selection)
	// is deterministic.
	usedLinks := make([]topology.LinkID, 0, len(usage))
	for l := range usage {
		usedLinks = append(usedLinks, l)
	}
	sort.Slice(usedLinks, func(i, j int) bool { return usedLinks[i] < usedLinks[j] })
	outArcs := map[topology.NodeID][]topology.ArcID{}
	for _, l := range usedLinks {
		dir := usage[l]
		if dir == 0 {
			continue
		}
		arc := g.Link(l).Forward()
		if dir == -1 {
			arc = g.Link(l).Reverse()
		}
		from, _ := g.ArcEnds(arc)
		outArcs[from] = append(outArcs[from], arc)
	}
	var paths []topology.Path
	for f := 0; f < flows; f++ {
		var arcs []topology.ArcID
		at := pair.Src
		for at != pair.Dst {
			list := outArcs[at]
			if len(list) == 0 {
				return paths // should not happen; be safe
			}
			arc := list[0]
			outArcs[at] = list[1:]
			arcs = append(arcs, arc)
			_, to := g.ArcEnds(arc)
			at = to
		}
		paths = append(paths, topology.Path{Arcs: arcs})
	}
	sort.SliceStable(paths, func(i, j int) bool { return len(paths[i].Arcs) < len(paths[j].Arcs) })
	return paths
}

// fullPassSelect is Select as it ran on the full-pass search: pair by
// pair in the caller's order, every augmentation from scratch.
func fullPassSelect(g *topology.Graph, pairs []topology.Pair, perPair int) (*Set, error) {
	set := NewSet(g)
	for _, pair := range pairs {
		chosen := fullPassDisjointPaths(g, pair, perPair)
		if len(chosen) == 0 {
			return nil, fmt.Errorf("tunnels: no path for pair %v", pair)
		}
		for _, p := range complete(g, pair, chosen, perPair) {
			if _, err := set.Add(pair, p); err != nil {
				return nil, err
			}
		}
	}
	return set, nil
}

// searchGraph is one graph the search is held to its oracle on, with
// the pairs to search: a few sources, several destinations each.
type searchGraph struct {
	name  string
	g     *topology.Graph
	pairs []topology.Pair
}

// sharedSourcePairs picks srcs sources and dsts destinations for each,
// seeded, so most sources serve several pairs (the per-source tree is
// reused) and the list is not sorted by source.
func sharedSourcePairs(rng *rand.Rand, n, srcs, dsts int) []topology.Pair {
	var out []topology.Pair
	for _, s := range rng.Perm(n)[:min(srcs, n)] {
		for _, d := range rng.Perm(n)[:min(dsts, n)] {
			if d != s {
				out = append(out, topology.Pair{Src: topology.NodeID(s), Dst: topology.NodeID(d)})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// randomMultigraph is a seeded graph with parallel links and small
// integer weights, zero included, so equal-length paths abound: the
// worklist search must break every tie exactly as the full pass does.
// Without its ring it may be disconnected.
func randomMultigraph(rng *rand.Rand, ring bool) *topology.Graph {
	n := 4 + rng.Intn(20)
	g := topology.New("multi")
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprint(i))
	}
	if ring {
		for i := 0; i < n; i++ {
			g.AddWeightedLink(topology.NodeID(i), topology.NodeID((i+1)%n), 10, float64(rng.Intn(3)))
		}
	}
	for e := 0; e < n+rng.Intn(2*n); e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		g.AddWeightedLink(topology.NodeID(a), topology.NodeID(b), 10, float64(rng.Intn(4)))
		if rng.Intn(4) == 0 {
			g.AddWeightedLink(topology.NodeID(b), topology.NodeID(a), 10, float64(rng.Intn(4)))
		}
	}
	return g
}

func searchGraphs(t *testing.T) []searchGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(30))
	var out []searchGraph
	for _, name := range topozoo.Names() {
		g, err := topozoo.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, searchGraph{name, g, sharedSourcePairs(rng, g.NumNodes(), 4, 5)})
	}
	for _, kind := range topozoo.SynthKinds {
		for _, nodes := range []int{200, 1000} {
			g, err := topozoo.Synth(kind, nodes, 1)
			if err != nil {
				t.Fatal(err)
			}
			srcs, dsts := 4, 4
			if nodes == 1000 {
				srcs, dsts = 2, 3
			}
			out = append(out, searchGraph{g.Name, g, sharedSourcePairs(rng, nodes, srcs, dsts)})
		}
	}
	for i := 0; i < 40; i++ {
		g := randomMultigraph(rng, i%4 != 0)
		out = append(out, searchGraph{fmt.Sprintf("multigraph-%d", i), g, sharedSourcePairs(rng, g.NumNodes(), 3, 6)})
	}
	return out
}

func samePaths(a, b []topology.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePath(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestSearchMatchesFullPass holds the worklist search, with each
// source's first tree built once for all its pairs, to the full-pass
// oracle: the same paths in the same order for every pair and k, on
// every Topology Zoo graph, both synthetic kinds at 200 and 1000 nodes,
// and tie-heavy random multigraphs.
func TestSearchMatchesFullPass(t *testing.T) {
	calls := 0
	for _, sg := range searchGraphs(t) {
		bySrc := append([]topology.Pair(nil), sg.pairs...)
		sort.SliceStable(bySrc, func(i, j int) bool { return bySrc[i].Src < bySrc[j].Src })
		s := newSearch(sg.g)
		for k := 1; k <= 4; k++ {
			for i, p := range bySrc {
				if i == 0 || bySrc[i-1].Src != p.Src {
					s.firstTree(p.Src)
				}
				got := s.disjointPaths(p, k)
				want := fullPassDisjointPaths(sg.g, p, k)
				calls++
				if !samePaths(got, want) {
					t.Fatalf("%s %v k=%d: search %v, full pass %v", sg.name, p, k, got, want)
				}
			}
		}
	}
	t.Logf("%d searches equal to the full pass", calls)
}

// TestSelectMatchesFullPass holds Select to the full-pass Select on
// shuffled pair lists that share sources: the same tunnels, with the
// same IDs, pairs and paths, in the caller's pair order.
func TestSelectMatchesFullPass(t *testing.T) {
	for _, sg := range searchGraphs(t) {
		for k := 1; k <= 4; k++ {
			got, gotErr := Select(sg.g, sg.pairs, SelectOptions{PerPair: k})
			want, wantErr := fullPassSelect(sg.g, sg.pairs, k)
			if (gotErr != nil) != (wantErr != nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s k=%d: error %v, full pass %v", sg.name, k, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.Len() != want.Len() {
				t.Fatalf("%s k=%d: %d tunnels, full pass %d", sg.name, k, got.Len(), want.Len())
			}
			for id := 0; id < got.Len(); id++ {
				a, b := got.Tunnel(ID(id)), want.Tunnel(ID(id))
				if a.Pair != b.Pair || !samePath(a.Path, b.Path) {
					t.Fatalf("%s k=%d tunnel %d: %v %v, full pass %v %v", sg.name, k, id, a.Pair, a.Path.Arcs, b.Pair, b.Path.Arcs)
				}
			}
		}
	}
}
