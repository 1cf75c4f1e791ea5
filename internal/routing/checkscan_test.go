package routing

import (
	"slices"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// scenarioCapacity is an arc's capacity under a scenario, looked up
// arc by arc: the nominal capacity scaled by the scenario's degradation
// for the arc's link (0 for dead links, α for degraded ones, nominal
// otherwise). The engine overlays the same product once per scenario
// (Sweep.overlay); the test references read it here instead.
func scenarioCapacity(g *topology.Graph, sc failures.Scenario, a topology.ArcID) float64 {
	return g.ArcCapacity(a) * sc.CapScale(topology.LinkOf(a))
}

// checkRealizationScan is the realization check as it was before the
// engine's Check was the only one: every arc against its scenario
// capacity, then each destination r routes toward, in node order,
// balanced against targets rebuilt from the whole matrix's demand pairs
// (DemandPairs: an n² scan and a sort). TestSweepCheckMatchesScan holds
// Sweep.Check to it. It assumes r fits the plan (checkShape).
func checkRealizationScan(plan *core.Plan, r *Realization) error {
	in := plan.Instance
	g := in.Graph
	for a := 0; a < g.NumArcs(); a++ {
		if c := scenarioCapacity(g, r.Scenario, topology.ArcID(a)); overloaded(r.ArcLoad[a], c) {
			return overloadError{a, r.ArcLoad[a], c, r.Scenario}
		}
	}
	inbound := map[topology.NodeID][]topology.Pair{}
	for _, p := range in.DemandPairs() {
		if _, ok := r.TunnelTo[p.Dst]; ok {
			inbound[p.Dst] = append(inbound[p.Dst], p)
		}
	}
	dsts := make([]topology.NodeID, 0, len(r.TunnelTo))
	for dst := range r.TunnelTo {
		dsts = append(dsts, dst)
	}
	slices.Sort(dsts)
	ends, _ := tunnelTables(in.Tunnels)
	bal := newBalance(g.NumNodes())
	var wantNodes []int32
	var wantVals, vals []float64
	var tuns []tunnels.ID
	for _, dst := range dsts {
		wantNodes, wantVals = append(wantNodes[:0], int32(dst)), append(wantVals[:0], 0)
		for _, p := range inbound[dst] {
			d := plan.ScaledDemand(p)
			wantVals[0] -= d
			wantNodes, wantVals = append(wantNodes, int32(p.Src)), append(wantVals, d)
		}
		tuns, vals = flattenFlows(r.TunnelTo[dst], tuns[:0], vals[:0])
		if v, got, want := bal.imbalance(ends, tuns, vals, wantNodes, wantVals); v >= 0 {
			return balanceError{dst, v, got, want, r.Scenario}
		}
	}
	return nil
}
