package core

import (
	"fmt"
	"sort"
	"time"

	"pcf/internal/lp"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// This file implements the restricted logical-flow model of §3.5: the
// generalization of logical sequences where a reservation is routed
// over logical segments by flow-balance constraints (paper eq. 8)
// rather than a fixed hop sequence. Following the paper's evaluation,
// the model is restricted to
//
//   - one unconditional flow per demand pair (aggregated per
//     destination, which is exact for unconditional flows), and
//   - one flow per directed link, active exactly when that link is
//     dead — the bypass flows that make the model dominate R3
//     (Proposition 4);
//
// with logical segments restricted to adjacent node pairs, so a flow's
// support graph is the physical topology.

// FlowPlan is the result of the restricted logical-flow model.
type FlowPlan struct {
	Value     float64
	Z         map[topology.Pair]float64
	TunnelRes map[tunnels.ID]float64
	// DemandFlow is the unconditional reservation b_w per demand pair.
	DemandFlow map[topology.Pair]float64
	// DestSupport[t][seg] is the aggregated support p_t(seg) that the
	// unconditional flows toward destination t need on adjacent
	// segment seg.
	DestSupport map[topology.NodeID]map[topology.Pair]float64
	// BypassRes[a] is the reservation of the bypass flow for arc a
	// (active when a's link is dead).
	BypassRes map[topology.ArcID]float64
	// BypassSupport[a][seg] is the support the bypass flow for arc a
	// needs on adjacent segment seg.
	BypassSupport map[topology.ArcID]map[topology.Pair]float64
	SolveTime     time.Duration
	Instance      *Instance
	// Stats summarizes the LP work behind the plan.
	Stats SolveStats
}

// FlowOptions tune SolveRestrictedFlow.
type FlowOptions struct {
	SolveOptions
	// GeneralizedR3 switches to the Proposition-4 construction: demand
	// is served exactly by the unconditional flows (b_w = z_st·d_st).
	// With links as tunnels this is the Generalized-R3 model that
	// dominates R3.
	GeneralizedR3 bool
	// SparseSupport restricts each flow's support graph to the
	// segments of this many quasi-disjoint paths between its
	// endpoints, instead of the whole topology. This shrinks the LP
	// by an order of magnitude at a small cost in flexibility (the
	// decomposition extracts a single widest path anyway). 0 keeps
	// the dense model.
	SparseSupport int
}

// arcPair returns the ordered node pair of an arc.
func arcPair(g *topology.Graph, a topology.ArcID) topology.Pair {
	from, to := g.ArcEnds(a)
	return topology.Pair{Src: from, Dst: to}
}

// segKey orders pairs deterministically.
func segLess(a, b topology.Pair) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

// pathsSegments returns the ordered adjacent pairs on up to k
// quasi-disjoint src->dst paths, optionally banning one link.
func pathsSegments(g *topology.Graph, src, dst topology.NodeID, k int, ban topology.LinkID) map[topology.Pair]bool {
	out := map[topology.Pair]bool{}
	used := map[topology.LinkID]int{}
	for i := 0; i < k; i++ {
		weight := func(l topology.LinkID) float64 {
			w := g.Link(l).Weight
			for j := 0; j < used[l]; j++ {
				w *= 16
			}
			return w
		}
		p, ok := g.ShortestPath(src, dst, weight, func(l topology.LinkID) bool { return l == ban })
		if !ok {
			break
		}
		for _, a := range p.Arcs {
			out[arcPair(g, a)] = true
			used[topology.LinkOf(a)]++
		}
	}
	return out
}

// SolveRestrictedFlow solves the restricted logical-flow model.
// Adjacent pairs used as segments must be covered by tunnels
// (typically the direct single-link tunnels) so segments have physical
// support.
func SolveRestrictedFlow(in *Instance, opts FlowOptions) (*FlowPlan, error) {
	if len(in.LSs) != 0 {
		return nil, fmt.Errorf("flow model: instance must not carry LSs")
	}
	// Demand pairs may legitimately lack tunnels here (their demand is
	// served by flows), so only the component checks of Validate apply.
	if in.Graph == nil || in.TM == nil || in.Tunnels == nil || in.Failures == nil {
		return nil, fmt.Errorf("flow model: instance missing a component")
	}
	if err := in.TM.Validate(); err != nil {
		return nil, fmt.Errorf("flow model: %w", err)
	}
	start := time.Now()
	g := in.Graph
	n := g.NumNodes()
	demand := in.DemandPairs()

	m, mv, _ := buildMaster(in, nil, demand, in.Tunnels.Pairs(), 0)

	// All adjacent ordered segment pairs.
	allSegs := map[topology.Pair]bool{}
	for a := 0; a < g.NumArcs(); a++ {
		allSegs[arcPair(g, topology.ArcID(a))] = true
	}

	// Destination aggregates for the unconditional demand flows.
	destSet := map[topology.NodeID]bool{}
	for _, p := range demand {
		destSet[p.Dst] = true
	}
	dests := make([]topology.NodeID, 0, len(destSet))
	for t := 0; t < n; t++ {
		if destSet[topology.NodeID(t)] {
			dests = append(dests, topology.NodeID(t))
		}
	}

	// Allowed support segments per destination aggregate and per
	// bypass flow (everything, unless SparseSupport restricts).
	destSegs := map[topology.NodeID]map[topology.Pair]bool{}
	bypassSegs := make([]map[topology.Pair]bool, g.NumArcs())
	if opts.SparseSupport > 0 {
		k := opts.SparseSupport
		for _, t := range dests {
			segs := map[topology.Pair]bool{}
			for _, p := range demand {
				if p.Dst != t {
					continue
				}
				for s2 := range pathsSegments(g, p.Src, t, k, -1) {
					segs[s2] = true
				}
			}
			destSegs[t] = segs
		}
		for a0 := 0; a0 < g.NumArcs(); a0++ {
			arc := topology.ArcID(a0)
			from, to := g.ArcEnds(arc)
			bypassSegs[a0] = pathsSegments(g, from, to, k, topology.LinkOf(arc))
		}
	} else {
		for _, t := range dests {
			destSegs[t] = allSegs
		}
		for a0 := 0; a0 < g.NumArcs(); a0++ {
			bypassSegs[a0] = allSegs
		}
	}

	bw := map[topology.Pair]lp.Var{}
	for _, p := range demand {
		bw[p] = m.AddNonNeg()
	}

	orderedSegs := func(set map[topology.Pair]bool) []topology.Pair {
		out := make([]topology.Pair, 0, len(set))
		for s2 := range set {
			out = append(out, s2)
		}
		sort.Slice(out, func(i, j int) bool { return segLess(out[i], out[j]) })
		return out
	}

	// pDest[t] maps ordered adjacent node pair -> support var.
	pDest := map[topology.NodeID]map[topology.Pair]lp.Var{}
	for _, t := range dests {
		pDest[t] = map[topology.Pair]lp.Var{}
		for _, seg := range orderedSegs(destSegs[t]) {
			pDest[t][seg] = m.AddNonNeg()
		}
	}
	// Flow balance for each destination aggregate (paper eq. 8,
	// aggregated): out(v) - in(v) = b_{(v,t)} for v != t. Nodes with no
	// incident support variable and no demand are skipped (their
	// balance is trivially 0 = 0).
	addBalance := func(vars map[topology.Pair]lp.Var, source map[topology.Pair]lp.Var, skip topology.NodeID, singleSrc topology.NodeID, srcVar lp.Var) {
		touched := map[topology.NodeID]bool{}
		for seg := range vars {
			touched[seg.Src] = true
			touched[seg.Dst] = true
		}
		for p := range source {
			touched[p.Src] = true
		}
		if srcVar >= 0 {
			touched[singleSrc] = true
		}
		for v := 0; v < n; v++ {
			node := topology.NodeID(v)
			if node == skip || !touched[node] {
				continue
			}
			e := lp.NewExpr()
			for seg, pv := range vars {
				if seg.Src == node {
					e.Add(1, pv)
				}
				if seg.Dst == node {
					e.Add(-1, pv)
				}
			}
			if source != nil {
				if bv, ok := source[topology.Pair{Src: node, Dst: skip}]; ok {
					e.Add(-1, bv)
				}
			}
			if srcVar >= 0 && node == singleSrc {
				e.Add(-1, srcVar)
			}
			if len(e.Terms) == 0 {
				continue
			}
			m.AddConstraint(e, lp.EQ, 0)
		}
	}
	for _, t := range dests {
		addBalance(pDest[t], bw, t, -1, -1)
	}
	if opts.GeneralizedR3 {
		// b_w = z_st d_st exactly.
		for _, p := range demand {
			e := lp.NewExpr().Add(1, bw[p]).AddExpr(-1, mv.zExpr(p))
			m.AddConstraint(e, lp.EQ, 0)
		}
	}

	// Bypass flows: for each arc a0, a flow from tail to head active
	// when link(a0) is dead, routed over its allowed segments.
	bypassRes := map[topology.ArcID]lp.Var{}
	pBypass := map[topology.ArcID]map[topology.Pair]lp.Var{}
	for a0 := 0; a0 < g.NumArcs(); a0++ {
		arc := topology.ArcID(a0)
		if len(bypassSegs[a0]) == 0 {
			continue // no alternative route exists (bridge in sparse mode)
		}
		bypassRes[arc] = m.AddNonNeg()
		pBypass[arc] = map[topology.Pair]lp.Var{}
		for _, seg := range orderedSegs(bypassSegs[a0]) {
			pBypass[arc][seg] = m.AddNonNeg()
		}
		from, to := g.ArcEnds(arc)
		addBalance(pBypass[arc], nil, to, from, bypassRes[arc])
	}

	// Robust constraints. Constraint pairs: demand pairs plus every
	// adjacent segment pair that some flow may load.
	conPairs := map[topology.Pair]bool{}
	for _, p := range demand {
		conPairs[p] = true
	}
	loaders := map[topology.Pair][]topology.ArcID{} // bypass arcs that can load a segment
	for _, t := range dests {
		for seg := range pDest[t] {
			conPairs[seg] = true
		}
	}
	for a0 := 0; a0 < g.NumArcs(); a0++ {
		arc := topology.ArcID(a0)
		for seg := range pBypass[arc] {
			conPairs[seg] = true
			loaders[seg] = append(loaders[seg], arc)
		}
	}
	var orderedPairs []topology.Pair
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			p := topology.Pair{Src: topology.NodeID(s), Dst: topology.NodeID(t)}
			if conPairs[p] {
				orderedPairs = append(orderedPairs, p)
			}
		}
	}

	specs := make([]*advSpec, 0, len(orderedPairs))
	for _, p := range orderedPairs {
		tun := in.Tunnels.ForPair(p)
		// Condition links: the own links of this pair's bypasses and
		// of every bypass that can load this segment.
		var extra []topology.LinkID
		for a0 := 0; a0 < g.NumArcs(); a0++ {
			arc := topology.ArcID(a0)
			if _, ok := bypassRes[arc]; ok && arcPair(g, arc) == p {
				extra = append(extra, topology.LinkOf(arc))
			}
		}
		for _, arc := range loaders[p] {
			extra = append(extra, topology.LinkOf(arc))
		}
		spec := baseLinkAdversary(in, mv, p, tun, extra)

		// LHS: unconditional demand-flow reservation for this pair.
		if v, ok := bw[p]; ok {
			spec.constPart.Add(1, v)
		}
		// LHS: bypass reservations of arcs with this ordered pair,
		// active when their link is dead.
		for a0 := 0; a0 < g.NumArcs(); a0++ {
			arc := topology.ArcID(a0)
			if _, ok := bypassRes[arc]; !ok || arcPair(g, arc) != p {
				continue
			}
			h := spec.conditionVar(LinkDead(topology.LinkOf(arc)))
			spec.addCost(h, lp.NewExpr().Add(1, bypassRes[arc]))
		}
		// RHS: support required on this segment by destination flows
		// (always active) and bypass flows (active on their condition).
		for _, t := range dests {
			if v, ok := pDest[t][p]; ok {
				spec.rhs.Add(1, v)
			}
		}
		for _, arc := range loaders[p] {
			h := spec.conditionVar(LinkDead(topology.LinkOf(arc)))
			spec.addCost(h, lp.NewExpr().Add(-1, pBypass[arc][p]))
		}
		spec.rhs.AddExpr(1, mv.zExpr(p))
		spec.pad()
		specs = append(specs, spec)
	}

	ms := &master{in: in}
	if err := ms.seal(m, specs, start); err != nil {
		return nil, fmt.Errorf("flow model: %w", err)
	}
	_, sol, stats, err := ms.run(opts.SolveOptions, false)
	if err != nil {
		return nil, fmt.Errorf("flow model: %w", err)
	}

	plan := &FlowPlan{
		Value:         sol.Objective,
		Z:             map[topology.Pair]float64{},
		TunnelRes:     map[tunnels.ID]float64{},
		DemandFlow:    map[topology.Pair]float64{},
		DestSupport:   map[topology.NodeID]map[topology.Pair]float64{},
		BypassRes:     map[topology.ArcID]float64{},
		BypassSupport: map[topology.ArcID]map[topology.Pair]float64{},
		SolveTime:     time.Since(start),
		Instance:      in,
		Stats:         stats,
	}
	for tid, v := range mv.a {
		plan.TunnelRes[tid] = clampTiny(sol.Value(v))
	}
	for _, p := range demand {
		d := in.TM.At(p)
		plan.Z[p] = clampTiny(sol.Eval(mv.zExpr(p)) / d)
		plan.DemandFlow[p] = clampTiny(sol.Value(bw[p]))
	}
	for _, t := range dests {
		plan.DestSupport[t] = map[topology.Pair]float64{}
		for seg, v := range pDest[t] {
			if val := clampTiny(sol.Value(v)); val > 0 {
				plan.DestSupport[t][seg] = val
			}
		}
	}
	for arc := range bypassRes {
		plan.BypassRes[arc] = clampTiny(sol.Value(bypassRes[arc]))
		sup := map[topology.Pair]float64{}
		for seg, v := range pBypass[arc] {
			if val := clampTiny(sol.Value(v)); val > 0 {
				sup[seg] = val
			}
		}
		plan.BypassSupport[arc] = sup
	}
	return plan, nil
}
