package routing

import (
	"slices"

	"pcf/internal/core"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// checkRealizationScan is CheckRealization as it was before it read
// the matrix at its destinations: it lists the whole matrix's demand
// pairs (DemandPairs: an n² scan and a sort) and keeps those into the
// realization's destinations. TestCheckRealizationMatchesScan holds
// CheckRealization to it.
func checkRealizationScan(plan *core.Plan, r *Realization) error {
	inbound := map[topology.NodeID][]topology.Pair{}
	for _, p := range plan.Instance.DemandPairs() {
		if _, ok := r.TunnelTo[p.Dst]; ok {
			inbound[p.Dst] = append(inbound[p.Dst], p)
		}
	}
	return checkRealizationWith(plan, r, func(dst topology.NodeID) []topology.Pair { return inbound[dst] })
}

// checkRealizationColumns is CheckRealization as it was before it
// listed every destination's demand pairs in one pass over the rows of
// the matrix: it reads one column of the matrix per destination.
// TestCheckRealizationMatchesScan holds CheckRealization to it too.
func checkRealizationColumns(plan *core.Plan, r *Realization) error {
	var held []topology.Pair
	return checkRealizationWith(plan, r, func(dst topology.NodeID) []topology.Pair {
		held = plan.Instance.TM.AppendPairsInto(held[:0], dst)
		return held
	})
}

// checkRealizationWith is CheckRealization with each destination's
// demand pairs, in DemandPairs' order, listed by inbound.
func checkRealizationWith(plan *core.Plan, r *Realization, inbound func(topology.NodeID) []topology.Pair) error {
	in := plan.Instance
	if err := checkShape(in, r); err != nil {
		return err
	}
	g := in.Graph
	nominal := isNominal(r.Scenario)
	for a := 0; a < g.NumArcs(); a++ {
		if c := capacityUnder(g, r.Scenario, nominal, topology.ArcID(a)); overloaded(r.ArcLoad[a], c) {
			return overloadError{a, r.ArcLoad[a], c, r.Scenario}
		}
	}
	dsts := make([]topology.NodeID, 0, len(r.TunnelTo))
	for dst := range r.TunnelTo {
		dsts = append(dsts, dst)
	}
	slices.Sort(dsts)
	bal := newBalance(g.NumNodes())
	var wantNodes []int32
	var wantVals, vals []float64
	var tuns []tunnels.ID
	for _, dst := range dsts {
		wantNodes, wantVals = append(wantNodes[:0], int32(dst)), append(wantVals[:0], 0)
		for _, p := range inbound(dst) {
			d := plan.ScaledDemand(p)
			wantVals[0] -= d
			wantNodes, wantVals = append(wantNodes, int32(p.Src)), append(wantVals, d)
		}
		tuns, vals = flattenFlows(r.TunnelTo[dst], tuns[:0], vals[:0])
		if v, got, want := bal.imbalance(in.Tunnels, tuns, vals, wantNodes, wantVals); v >= 0 {
			return balanceError{dst, v, got, want, r.Scenario}
		}
	}
	return nil
}
