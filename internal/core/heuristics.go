package core

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"pcf/internal/tol"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// This file implements the paper's LS-selection heuristics (§3.5 and
// §5): decomposing logical-flow solutions into logical sequences via
// widest paths on the flow's support graph, and the standard PCF-LS
// choice of shortest-path logical sequences.

// widestPathOnSupport finds the path from src to dst maximizing the
// bottleneck support value over a segment-support map. Returns the node
// sequence and bottleneck.
func widestPathOnSupport(n int, support map[topology.Pair]float64, src, dst topology.NodeID) ([]topology.NodeID, float64, bool) {
	type item struct {
		node  topology.NodeID
		width float64
	}
	best := make([]float64, n)
	prev := make([]topology.NodeID, n)
	done := make([]bool, n)
	for i := range prev {
		prev[i] = -1
	}
	best[src] = math.Inf(1)
	pq := &widestQueue{{src, math.Inf(1)}}
	adj := make(map[topology.NodeID][]item)
	for seg, w := range support {
		if w > 0 {
			adj[seg.Src] = append(adj[seg.Src], item{seg.Dst, w})
		}
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(widestItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, e := range adj[u] {
			cand := math.Min(best[u], e.width)
			if cand > best[e.node]+tol.Tie {
				best[e.node] = cand
				prev[e.node] = u
				heap.Push(pq, widestItem{e.node, cand})
			}
		}
	}
	if src != dst && prev[dst] == -1 {
		return nil, 0, false
	}
	var rev []topology.NodeID
	for at := dst; at != src; at = prev[at] {
		rev = append(rev, at)
	}
	nodes := make([]topology.NodeID, 0, len(rev)+1)
	nodes = append(nodes, src)
	for i := len(rev) - 1; i >= 0; i-- {
		nodes = append(nodes, rev[i])
	}
	return nodes, best[dst], true
}

type widestItem struct {
	node  topology.NodeID
	width float64
}
type widestQueue []widestItem

func (q widestQueue) Len() int            { return len(q) }
func (q widestQueue) Less(i, j int) bool  { return q[i].width > q[j].width }
func (q widestQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *widestQueue) Push(x interface{}) { *q = append(*q, x.(widestItem)) }
func (q *widestQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// DecomposeFlowPlan converts a solved restricted-flow plan into logical
// sequences (paper §3.5): for each flow with positive reservation, the
// widest path on the flow's support graph becomes an LS with the flow's
// condition. Single-segment paths produce no LS (the pair carries the
// traffic directly). The returned LSs have dense IDs.
func DecomposeFlowPlan(fp *FlowPlan) []LogicalSequence {
	g := fp.Instance.Graph
	n := g.NumNodes()
	var out []LogicalSequence
	add := func(pair topology.Pair, nodes []topology.NodeID, cond *Condition) {
		if len(nodes) <= 2 {
			return // direct segment; no LS needed
		}
		out = append(out, LogicalSequence{
			ID:   LSID(len(out)),
			Pair: pair,
			Hops: append([]topology.NodeID(nil), nodes[1:len(nodes)-1]...),
			Cond: cond,
		})
	}
	// Unconditional LSs from the per-destination demand routing.
	var demandPairs []topology.Pair
	for p := range fp.DemandFlow {
		demandPairs = append(demandPairs, p)
	}
	sort.Slice(demandPairs, func(i, j int) bool {
		if demandPairs[i].Src != demandPairs[j].Src {
			return demandPairs[i].Src < demandPairs[j].Src
		}
		return demandPairs[i].Dst < demandPairs[j].Dst
	})
	for _, p := range demandPairs {
		if fp.DemandFlow[p] <= tol.Carry {
			continue
		}
		sup := fp.DestSupport[p.Dst]
		if nodes, _, ok := widestPathOnSupport(n, sup, p.Src, p.Dst); ok {
			add(p, nodes, nil)
		}
	}
	// Conditional LSs from the bypass flows: LS from i to j active when
	// the bypassed link is dead.
	for a0 := 0; a0 < g.NumArcs(); a0++ {
		arc := topology.ArcID(a0)
		if fp.BypassRes[arc] <= tol.Carry {
			continue
		}
		from, to := g.ArcEnds(arc)
		if nodes, _, ok := widestPathOnSupport(n, fp.BypassSupport[arc], from, to); ok {
			add(topology.Pair{Src: from, Dst: to}, nodes, LinkDead(topology.LinkOf(arc)))
		}
	}
	return out
}

// EnsureSegmentTunnels returns a tunnel set extended with a direct
// single-link tunnel for every adjacent LS segment pair that has no
// tunnels yet, and verifies non-adjacent segments are covered. Parallel
// links each become a tunnel, which is what the sub-link experiments
// need.
func EnsureSegmentTunnels(ts *tunnels.Set, lss []LogicalSequence) (*tunnels.Set, error) {
	g := ts.Graph()
	out := tunnels.NewSet(g)
	for _, p := range ts.Pairs() {
		for _, id := range ts.ForPair(p) {
			out.MustAdd(p, ts.Tunnel(id).Path)
		}
	}
	for _, q := range lss {
		for _, seg := range q.Segments() {
			if len(out.ForPair(seg)) > 0 {
				continue
			}
			added := false
			for _, a := range g.OutArcs(seg.Src) {
				if _, to := g.ArcEnds(a); to == seg.Dst {
					out.MustAdd(seg, topology.Path{Arcs: []topology.ArcID{a}})
					added = true
				}
			}
			if !added {
				return nil, fmt.Errorf("core: LS %d segment %v is not adjacent and has no tunnels", q.ID, seg)
			}
		}
	}
	return out, nil
}

// BuildCLS runs the paper's PCF-CLS pipeline (§5): solve the restricted
// logical-flow model on a link-tunnel copy of the instance, decompose
// the flows into (conditional) logical sequences, and return a new
// instance carrying those LSs with tunnels covering every LS segment.
func BuildCLS(in *Instance, opts FlowOptions) (*Instance, []LogicalSequence, error) {
	// The flow model runs over the same tunnels plus direct link
	// tunnels for adjacent support segments.
	g := in.Graph
	flowTs := tunnels.NewSet(g)
	for _, p := range in.Tunnels.Pairs() {
		for _, id := range in.Tunnels.ForPair(p) {
			flowTs.MustAdd(p, in.Tunnels.Tunnel(id).Path)
		}
	}
	for _, l := range g.Links() {
		fw := topology.Pair{Src: l.A, Dst: l.B}
		if !hasDirectTunnel(flowTs, fw, l.ID) {
			flowTs.MustAdd(fw, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
		}
		bw := topology.Pair{Src: l.B, Dst: l.A}
		if !hasDirectTunnel(flowTs, bw, l.ID) {
			flowTs.MustAdd(bw, topology.Path{Arcs: []topology.ArcID{l.Reverse()}})
		}
	}
	flowIn := *in
	flowIn.Tunnels = flowTs
	flowIn.LSs = nil
	fp, err := SolveRestrictedFlow(&flowIn, opts)
	if err != nil {
		return nil, nil, err
	}
	lss := DecomposeFlowPlan(fp)
	ts, err := EnsureSegmentTunnels(in.Tunnels, lss)
	if err != nil {
		return nil, nil, err
	}
	clsIn := *in
	clsIn.Tunnels = ts
	clsIn.LSs = lss
	return &clsIn, lss, nil
}

func hasDirectTunnel(ts *tunnels.Set, p topology.Pair, l topology.LinkID) bool {
	for _, id := range ts.ForPair(p) {
		path := ts.Tunnel(id).Path
		if len(path.Arcs) == 1 && topology.LinkOf(path.Arcs[0]) == l {
			return true
		}
	}
	return false
}

// BuildCLSQuick is a lightweight alternative to BuildCLS that skips
// the logical-flow LP: the LSs are the shortest-path hop sequence per
// demand pair (unconditional) plus, per link direction, the shortest
// bypass path avoiding the link (conditioned on that link being dead).
// It captures the structure PCF-CLS needs — always-active spine LSs
// and failure-activated bypass LSs — at a fraction of the cost. The
// spine segments get only the direct-link tunnels EnsureSegmentTunnels
// adds, which one failure kills; eval.Setup.CLSInstance gives each of
// them a full tunnel set, and that is the PCF-CLS instance every entry
// point solves. BuildCLS stays as the paper's §3.5 pipeline.
func BuildCLSQuick(in *Instance) (*Instance, []LogicalSequence, error) {
	g := in.Graph
	var lss []LogicalSequence
	add := func(pair topology.Pair, nodes []topology.NodeID, cond *Condition) {
		if len(nodes) <= 2 {
			return
		}
		lss = append(lss, LogicalSequence{
			ID:   LSID(len(lss)),
			Pair: pair,
			Hops: append([]topology.NodeID(nil), nodes[1:len(nodes)-1]...),
			Cond: cond,
		})
	}
	for _, p := range in.DemandPairs() {
		if path, ok := g.ShortestPath(p.Src, p.Dst, nil, nil); ok {
			add(p, path.Nodes(g), nil)
		}
	}
	for _, l := range g.Links() {
		for _, pair := range []topology.Pair{{Src: l.A, Dst: l.B}, {Src: l.B, Dst: l.A}} {
			path, ok := g.ShortestPath(pair.Src, pair.Dst, nil,
				func(banned topology.LinkID) bool { return banned == l.ID })
			if !ok {
				continue
			}
			add(pair, path.Nodes(g), LinkDead(l.ID))
		}
	}
	ts, err := EnsureSegmentTunnels(in.Tunnels, lss)
	if err != nil {
		return nil, nil, err
	}
	out := *in
	out.Tunnels = ts
	out.LSs = lss
	return &out, lss, nil
}
