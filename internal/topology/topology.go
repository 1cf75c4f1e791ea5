// Package topology provides the network graph model used throughout
// the PCF implementation: an undirected multigraph with per-link
// capacities, viewed as a set of directed arcs for routing. It includes
// the graph surgery the paper's evaluation performs (recursive
// one-degree pruning, splitting links into independently failing
// sub-links) and the path primitives the tunnel selector builds on.
package topology

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"math"
	"strings"
)

// NodeID identifies a node.
type NodeID int32

// LinkID identifies an undirected link. Links are the unit of failure.
type LinkID int32

// ArcID identifies a directed view of a link: arc 2*l goes from
// Link(l).A to Link(l).B, arc 2*l+1 the reverse.
type ArcID int32

// Link is an undirected capacitated link between two nodes.
type Link struct {
	ID       LinkID
	A, B     NodeID
	Capacity float64
	// Weight is the routing length used by shortest-path tunnel
	// selection. Defaults to 1 (hop count).
	Weight float64
}

// Forward returns the arc from A to B.
func (l Link) Forward() ArcID { return ArcID(2 * l.ID) }

// Reverse returns the arc from B to A.
func (l Link) Reverse() ArcID { return ArcID(2*l.ID + 1) }

// Pair is an ordered source-destination node pair.
type Pair struct {
	Src, Dst NodeID
}

func (p Pair) String() string { return fmt.Sprintf("(%d->%d)", p.Src, p.Dst) }

// Graph is an undirected multigraph. The zero value is an empty graph.
type Graph struct {
	Name  string
	names []string
	links []Link
	out   [][]ArcID // outgoing arcs per node (both directions of incident links)
}

// New returns an empty graph with the given name.
func New(name string) *Graph { return &Graph{Name: name} }

// AddNode adds a node and returns its ID.
func (g *Graph) AddNode(name string) NodeID {
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	return NodeID(len(g.names) - 1)
}

// AddLink adds an undirected link with the given capacity (same in both
// directions) and unit routing weight.
func (g *Graph) AddLink(a, b NodeID, capacity float64) LinkID {
	return g.AddWeightedLink(a, b, capacity, 1)
}

// AddWeightedLink adds a link with an explicit routing weight. It
// panics on invalid endpoints or a negative weight: the panicking
// builders exist for compile-time-fixed graphs (gadgets, synthesized
// topologies) where a violation is a programmer error. Use
// TryAddWeightedLink for untrusted input.
func (g *Graph) AddWeightedLink(a, b NodeID, capacity, weight float64) LinkID {
	id, err := g.TryAddWeightedLink(a, b, capacity, weight)
	if err != nil {
		//lint:ignore pcflint/nopanic documented precondition of the compile-time builder API; data paths use TryAddWeightedLink
		panic(err)
	}
	return id
}

// TryAddWeightedLink is AddWeightedLink with typed-error validation
// instead of panics: it rejects self loops (ErrSelfLoop), endpoints
// that are not existing nodes (ErrEndpointRange) and negative routing
// weights (ErrNegativeWeight). Graphs built exclusively through it
// satisfy the nonnegative-weight precondition of ShortestPath and
// KShortestPaths with a nil weight function.
func (g *Graph) TryAddWeightedLink(a, b NodeID, capacity, weight float64) (LinkID, error) {
	if a == b {
		return 0, fmt.Errorf("%w at node %d", ErrSelfLoop, a)
	}
	if a < 0 || b < 0 || int(a) >= len(g.names) || int(b) >= len(g.names) {
		return 0, fmt.Errorf("%w: link %d-%d in graph of %d nodes", ErrEndpointRange, a, b, len(g.names))
	}
	if weight < 0 {
		return 0, fmt.Errorf("%w: %g on link %d-%d", ErrNegativeWeight, weight, a, b)
	}
	l := Link{ID: LinkID(len(g.links)), A: a, B: b, Capacity: capacity, Weight: weight}
	g.links = append(g.links, l)
	g.out[a] = append(g.out[a], l.Forward())
	g.out[b] = append(g.out[b], l.Reverse())
	return l.ID, nil
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumLinks reports the number of undirected links.
func (g *Graph) NumLinks() int { return len(g.links) }

// NumArcs reports the number of directed arcs (2 per link).
func (g *Graph) NumArcs() int { return 2 * len(g.links) }

// NodeName returns the name of node n.
func (g *Graph) NodeName(n NodeID) string { return g.names[n] }

// Link returns the link record for id.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Links returns a copy of the link slice.
func (g *Graph) Links() []Link { return append([]Link(nil), g.links...) }

// LinkOf returns the link an arc belongs to.
func LinkOf(a ArcID) LinkID { return LinkID(a / 2) }

// ArcEnds returns the tail and head node of an arc.
func (g *Graph) ArcEnds(a ArcID) (from, to NodeID) {
	l := g.links[a/2]
	if a%2 == 0 {
		return l.A, l.B
	}
	return l.B, l.A
}

// ArcCapacity returns the capacity available on an arc (equal to the
// underlying link capacity; links are full duplex).
func (g *Graph) ArcCapacity(a ArcID) float64 { return g.links[a/2].Capacity }

// OutArcs returns the outgoing arcs of node n. The returned slice must
// not be modified.
func (g *Graph) OutArcs(n NodeID) []ArcID { return g.out[n] }

// Degree returns the number of incident links of node n.
func (g *Graph) Degree(n NodeID) int { return len(g.out[n]) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name}
	c.names = append([]string(nil), g.names...)
	c.links = append([]Link(nil), g.links...)
	c.out = make([][]ArcID, len(g.out))
	for i := range g.out {
		c.out[i] = append([]ArcID(nil), g.out[i]...)
	}
	return c
}

// PruneDegreeOne recursively removes nodes of degree <= 1 (and their
// links), exactly as the paper's evaluation does so that no single link
// failure disconnects the network. It returns the pruned graph and a
// mapping from old node IDs to new ones (-1 if removed).
func (g *Graph) PruneDegreeOne() (*Graph, []NodeID) {
	alive := make([]bool, g.NumNodes())
	deg := make([]int, g.NumNodes())
	linkAlive := make([]bool, g.NumLinks())
	for i := range alive {
		alive[i] = true
	}
	for i := range linkAlive {
		linkAlive[i] = true
	}
	for _, l := range g.links {
		deg[l.A]++
		deg[l.B]++
	}
	queue := []NodeID{}
	for n := range deg {
		if deg[n] <= 1 {
			queue = append(queue, NodeID(n))
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if !alive[n] {
			continue
		}
		alive[n] = false
		for _, a := range g.out[n] {
			l := LinkOf(a)
			if !linkAlive[l] {
				continue
			}
			linkAlive[l] = false
			_, other := g.ArcEnds(a)
			deg[other]--
			if alive[other] && deg[other] <= 1 {
				queue = append(queue, other)
			}
		}
	}
	ng := New(g.Name)
	mapping := make([]NodeID, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		if alive[n] {
			mapping[n] = ng.AddNode(g.names[n])
		} else {
			mapping[n] = -1
		}
	}
	for _, l := range g.links {
		if linkAlive[l.ID] {
			ng.AddWeightedLink(mapping[l.A], mapping[l.B], l.Capacity, l.Weight)
		}
	}
	return ng, mapping
}

// SplitSubLinks splits every link into parallel independently failing
// sub-links each carrying an equal share of the capacity, as §5 of the
// paper does to study multiple simultaneous failures without
// disconnecting the topology. parts below 2 is reported as ErrBadSplit.
func (g *Graph) SplitSubLinks(parts int) (*Graph, error) {
	if parts < 2 {
		return nil, fmt.Errorf("%w, got %d", ErrBadSplit, parts)
	}
	ng := New(g.Name + "-split")
	for _, name := range g.names {
		ng.AddNode(name)
	}
	for _, l := range g.links {
		for p := 0; p < parts; p++ {
			ng.AddWeightedLink(l.A, l.B, l.Capacity/float64(parts), l.Weight)
		}
	}
	return ng, nil
}

// IsConnected reports whether the graph is connected, ignoring the
// links in dead.
func (g *Graph) IsConnected(dead map[LinkID]bool) bool {
	if g.NumNodes() == 0 {
		return true
	}
	seen := make([]bool, g.NumNodes())
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.out[n] {
			if dead != nil && dead[LinkOf(a)] {
				continue
			}
			_, to := g.ArcEnds(a)
			if !seen[to] {
				seen[to] = true
				count++
				stack = append(stack, to)
			}
		}
	}
	return count == g.NumNodes()
}

// Bridges returns the links whose single failure disconnects the graph
// (Tarjan's bridge-finding algorithm, iterative).
func (g *Graph) Bridges() []LinkID {
	n := g.NumNodes()
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	var bridges []LinkID
	timer := 0
	// Iterative DFS tracking the arc used to enter each node (to skip
	// only that parallel edge instance, keeping multigraph semantics).
	type frame struct {
		node   NodeID
		viaArc ArcID // arc used to reach node, or -1 for roots
		idx    int
	}
	for root := 0; root < n; root++ {
		if disc[root] != -1 {
			continue
		}
		stack := []frame{{NodeID(root), -1, 0}}
		disc[root] = timer
		low[root] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(g.out[f.node]) {
				a := g.out[f.node][f.idx]
				f.idx++
				if f.viaArc >= 0 && LinkOf(a) == LinkOf(f.viaArc) {
					continue // don't traverse the entering link instance back
				}
				_, to := g.ArcEnds(a)
				if disc[to] == -1 {
					disc[to] = timer
					low[to] = timer
					timer++
					stack = append(stack, frame{to, a, 0})
				} else if disc[to] < low[f.node] {
					low[f.node] = disc[to]
				}
			} else {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					parent := &stack[len(stack)-1]
					if low[f.node] < low[parent.node] {
						low[parent.node] = low[f.node]
					}
					if low[f.node] > disc[parent.node] {
						bridges = append(bridges, LinkOf(f.viaArc))
					}
				}
			}
		}
	}
	return bridges
}

// Path is a directed path represented by its arcs.
type Path struct {
	Arcs []ArcID
}

// Links returns the set of links the path uses.
func (p Path) Links() []LinkID {
	out := make([]LinkID, len(p.Arcs))
	for i, a := range p.Arcs {
		out[i] = LinkOf(a)
	}
	return out
}

// UsesLink reports whether the path traverses the given link (either
// direction).
func (p Path) UsesLink(l LinkID) bool {
	for _, a := range p.Arcs {
		if LinkOf(a) == l {
			return true
		}
	}
	return false
}

// Nodes reconstructs the node sequence of the path in graph g.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.Arcs) == 0 {
		return nil
	}
	from, _ := g.ArcEnds(p.Arcs[0])
	nodes := []NodeID{from}
	for _, a := range p.Arcs {
		_, to := g.ArcEnds(a)
		nodes = append(nodes, to)
	}
	return nodes
}

type pqItem struct {
	node NodeID
	dist float64
}

type priorityQueue []pqItem

func (q priorityQueue) Len() int            { return len(q) }
func (q priorityQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q priorityQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *priorityQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *priorityQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPath runs Dijkstra from src to dst using the provided link
// weight function (nil means Link.Weight). Links for which banned
// returns true are skipped. Returns the path and true, or false if dst
// is unreachable.
func (g *Graph) ShortestPath(src, dst NodeID, weight func(LinkID) float64, banned func(LinkID) bool) (Path, bool) {
	n := g.NumNodes()
	dist := make([]float64, n)
	prev := make([]ArcID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := &priorityQueue{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, a := range g.out[u] {
			l := LinkOf(a)
			if banned != nil && banned(l) {
				continue
			}
			w := g.links[l].Weight
			if weight != nil {
				w = weight(l)
			}
			if w < 0 {
				//lint:ignore pcflint/nopanic Dijkstra precondition; graphs built via TryAddWeightedLink cannot carry negative weights, so only a buggy caller-supplied weight callback reaches this
				panic(fmt.Errorf("%w: weight callback returned %g for link %d", ErrNegativeWeight, w, l))
			}
			_, v := g.ArcEnds(a)
			if nd := dist[u] + w; nd < dist[v]-1e-15 {
				dist[v] = nd
				prev[v] = a
				heap.Push(pq, pqItem{v, nd})
			}
		}
	}
	if prev[dst] == -1 && src != dst {
		return Path{}, false
	}
	var rev []ArcID
	for at := dst; at != src; {
		a := prev[at]
		rev = append(rev, a)
		from, _ := g.ArcEnds(a)
		at = from
	}
	arcs := make([]ArcID, len(rev))
	for i := range rev {
		arcs[i] = rev[len(rev)-1-i]
	}
	return Path{Arcs: arcs}, true
}

// AllPairs returns every ordered pair of distinct nodes.
func (g *Graph) AllPairs() []Pair {
	n := g.NumNodes()
	pairs := make([]Pair, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				pairs = append(pairs, Pair{NodeID(s), NodeID(t)})
			}
		}
	}
	return pairs
}

// TotalCapacity sums the capacity over all links.
func (g *Graph) TotalCapacity() float64 {
	total := 0.0
	for _, l := range g.links {
		total += l.Capacity
	}
	return total
}

// KShortestPaths enumerates up to k distinct simple paths from src to
// dst in nondecreasing weight order (Yen's algorithm). A nil weight
// function uses Link.Weight.
func (g *Graph) KShortestPaths(src, dst NodeID, k int, weight func(LinkID) float64) []Path {
	if weight == nil {
		weight = func(l LinkID) float64 { return g.links[l].Weight }
	}
	pathCost := func(p Path) float64 {
		total := 0.0
		for _, a := range p.Arcs {
			total += weight(LinkOf(a))
		}
		return total
	}
	first, ok := g.ShortestPath(src, dst, weight, nil)
	if !ok {
		return nil
	}
	found := []Path{first}
	type candidate struct {
		path Path
		cost float64
	}
	var candidates []candidate
	seen := map[string]bool{pathKey(first): true}

	for len(found) < k {
		prev := found[len(found)-1]
		prevNodes := prev.Nodes(g)
		// Spur from each node of the previous path.
		for i := 0; i < len(prev.Arcs); i++ {
			spurNode := prevNodes[i]
			rootArcs := append([]ArcID(nil), prev.Arcs[:i]...)
			bannedLinks := map[LinkID]bool{}
			// Ban the next link of every found path sharing this root.
			for _, p := range found {
				if len(p.Arcs) > i && sameArcPrefix(p.Arcs, rootArcs, i) {
					bannedLinks[LinkOf(p.Arcs[i])] = true
				}
			}
			// Ban root nodes (other than the spur node) by banning all
			// their incident links, keeping paths simple.
			for _, nd := range prevNodes[:i] {
				for _, a := range g.out[nd] {
					bannedLinks[LinkOf(a)] = true
				}
			}
			spur, ok := g.ShortestPath(spurNode, dst, weight,
				func(l LinkID) bool { return bannedLinks[l] })
			if !ok {
				continue
			}
			total := Path{Arcs: append(append([]ArcID(nil), rootArcs...), spur.Arcs...)}
			key := pathKey(total)
			if seen[key] {
				continue
			}
			seen[key] = true
			candidates = append(candidates, candidate{total, pathCost(total)})
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].cost < candidates[best].cost {
				best = i
			}
		}
		found = append(found, candidates[best].path)
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return found
}

func sameArcPrefix(a, b []ArcID, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pathKey(p Path) string {
	b := make([]byte, 0, 4*len(p.Arcs))
	for _, a := range p.Arcs {
		b = append(b, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
	}
	return string(b)
}

// ReadLinks parses a topology from the text format cmd/topogen emits:
// one "nodeA nodeB capacity" line per link (integer node ids; lines
// starting with '#' are comments). Node ids must be dense from 0.
func ReadLinks(r io.Reader, name string) (*Graph, error) {
	g := New(name)
	sc := bufio.NewScanner(r)
	ensure := func(n int) {
		for g.NumNodes() <= n {
			g.AddNode(fmt.Sprintf("n%d", g.NumNodes()))
		}
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var a, b int
		var capacity float64
		if _, err := fmt.Sscanf(line, "%d %d %g", &a, &b, &capacity); err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", lineNo, err)
		}
		if a < 0 || b < 0 {
			return nil, fmt.Errorf("topology: line %d: negative node id", lineNo)
		}
		const maxNodeID = 1 << 20
		if a > maxNodeID || b > maxNodeID {
			return nil, fmt.Errorf("topology: line %d: node id exceeds %d", lineNo, maxNodeID)
		}
		// NaN compares false against everything, so a plain <= 0 test
		// would let "NaN" (which Sscanf %g accepts) through.
		if !(capacity > 0) || math.IsInf(capacity, 0) {
			return nil, fmt.Errorf("topology: line %d: capacity must be positive and finite", lineNo)
		}
		ensure(a)
		ensure(b)
		if _, err := g.TryAddWeightedLink(NodeID(a), NodeID(b), capacity, 1); err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g.NumLinks() == 0 {
		return nil, fmt.Errorf("topology: no links in input")
	}
	return g, nil
}
