package routing

// The sweep's check of one served scenario: the arcs it changed against
// the scenario's capacity (and the MLU, in the same pass) with the
// engine's record vouching for the rest, then every destination's flow
// conservation — over the flat emission in the scratch, or, every arc
// visited, over a Realization handed to Sweep.Check.

import (
	"fmt"
	"math"
	"slices"

	"pcf/internal/failures"
	"pcf/internal/tol"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// balance is the one flow-conservation check (Proposition 6), over the
// pair-level flow graph: tunnel l of pair (i,j) is an edge i->j carrying
// its flow. It visits only the nodes a destination touches — the
// endpoints of its flows and the nodes with a non-zero target; every
// other node ships 0 and wants 0.
type balance struct {
	net, want []float64 // per node; zero between calls
	seen      []bool    // per node; false between calls
	touched   []int32
}

func newBalance(nodes int) balance {
	return balance{net: make([]float64, nodes), want: make([]float64, nodes), seen: make([]bool, nodes)}
}

// imbalance returns the lowest-numbered node whose net outflow under
// the flows misses its target by more than tol.Balance, with that
// outflow and target, or -1. The target is wantVals[i] at node
// wantNodes[i] (each node listed once) and zero everywhere else.
func (b *balance) imbalance(ts *tunnels.Set, tuns []tunnels.ID, vals []float64, wantNodes []int32, wantVals []float64) (node int, got, want float64) {
	touch := func(v int32) {
		if !b.seen[v] {
			b.seen[v] = true
			b.touched = append(b.touched, v)
		}
	}
	for i, tid := range tuns {
		p := ts.Tunnel(tid).Pair
		touch(int32(p.Src))
		touch(int32(p.Dst))
		b.net[p.Src] += vals[i]
		b.net[p.Dst] -= vals[i]
	}
	for i, v := range wantNodes {
		touch(v)
		b.want[v] = wantVals[i]
	}
	node = -1
	for _, v := range b.touched {
		if math.Abs(b.net[v]-b.want[v]) > tol.Balance && (node < 0 || int(v) < node) {
			node, got, want = int(v), b.net[v], b.want[v]
		}
		b.net[v], b.want[v], b.seen[v] = 0, 0, false
	}
	b.touched = b.touched[:0]
	return node, got, want
}

// The verdict errors keep their operands and format only when read: a
// sampled validation's tail counts its failed draws and never prints
// them. Each keeps its scenario by value, maps shared: read after the
// caller changed those maps, it names the changed scenario.

// overloadError: arc a carries load past its capacity c.
type overloadError struct {
	a       int
	load, c float64
	sc      failures.Scenario
}

func (e overloadError) Error() string {
	return fmt.Sprintf("routing: arc %d (link %d) overloaded: %g > %g under scenario %v",
		e.a, topology.LinkOf(topology.ArcID(e.a)), e.load, e.c, e.sc)
}

// balanceError: node v ships got toward destination dst, not want.
type balanceError struct {
	dst       topology.NodeID
	v         int
	got, want float64
	sc        failures.Scenario
}

func (e balanceError) Error() string {
	return fmt.Sprintf("routing: destination %d node %d ships %g, want %g under %v", e.dst, e.v, e.got, e.want, e.sc)
}

// noReservationError: pair p is of interest but has no live reservation.
type noReservationError struct {
	p  topology.Pair
	sc failures.Scenario
}

func (e noReservationError) Error() string {
	return fmt.Sprintf("routing: pair %v of interest has no live reservation under %v", e.p, e.sc)
}

// utilizationError: pair p's aggregate utilization u lies outside [0,1].
type utilizationError struct {
	p  topology.Pair
	u  float64
	sc failures.Scenario
}

func (e utilizationError) Error() string {
	return fmt.Sprintf("routing: U[%v] = %g outside [0,1] under %v (Proposition 5 violated — plan not feasible for this scenario)",
		e.p, e.u, e.sc)
}

// overlay writes the scenario's capacities for its dead and degraded
// links into sr.arcCap — nominal·CapScale, the product ScenarioCapacity
// forms — and lists the arcs it wrote in sr.overlaid, for the check to
// visit and for restoreCaps to put back.
func (s *Sweep) overlay(sc failures.Scenario, sr *sweepScratch) {
	caps := sr.arcCap
	sr.overlaid = sr.overlaid[:0]
	set := func(l topology.LinkID, scale float64) {
		if a := 2 * int(l); l >= 0 && a+1 < len(caps) {
			caps[a], caps[a+1] = s.arcCap[a]*scale, s.arcCap[a+1]*scale
			sr.overlaid = append(sr.overlaid, int32(a), int32(a+1))
		}
	}
	for l, alpha := range sc.Degraded {
		set(l, alpha)
	}
	for l, dead := range sc.Dead {
		if dead {
			set(l, 0)
		}
	}
}

// restoreCaps undoes overlay.
func (s *Sweep) restoreCaps(sr *sweepScratch) {
	for _, a := range sr.overlaid {
		sr.arcCap[a] = s.arcCap[a]
	}
}

// judge checks one served scenario and returns its maximum link
// utilization: the flat emission in sr, or r when one is given. Each
// arc visited is compared against its capacity with the scenario
// overlaid and divided for the MLU. A Realization, or an emission with
// no record behind it, has every arc visited; a flat emission only the
// arcs it re-summed and the arcs the scenario overlays, and every other
// arc — its base load against its nominal capacity — carries the
// record's verdict: the first base-overloaded arc among them, and the
// first of them in the base-utilization ranking for the MLU. With check
// set, every destination is then balance-checked, in node order; a
// replayed one carries the record's verdict too. The first overloaded
// arc is reported if there is one, else the first destination out of
// balance.
func (s *Sweep) judge(sc failures.Scenario, sr *sweepScratch, r *Realization, check bool) (float64, error) {
	arcLoad, caps := sr.arcLoad, sr.arcCap
	if r != nil {
		arcLoad = r.ArcLoad
	}
	s.overlay(sc, sr)
	mlu, over := 0.0, -1
	visit := func(a int) {
		load, c := arcLoad[a], caps[a]
		if check && overloaded(load, c) && (over < 0 || a < over) {
			over = a
		}
		// A load of zero never raises the maximum.
		if load > 0 && c > 0 {
			if u := load / c; u > mlu {
				mlu = u
			}
		}
	}
	if r != nil || s.rec == nil {
		for a := range arcLoad {
			visit(a)
		}
		sr.arcChecks = len(arcLoad)
	} else {
		for _, a := range sr.changed {
			visit(int(a))
		}
		for _, a := range sr.overlaid {
			visit(int(a))
		}
		sr.arcChecks = len(sr.changed) + len(sr.overlaid)
		// An arc neither re-summed nor overlaid has its base load and its
		// nominal capacity (an overlay that scaled by one left it so).
		untouched := func(a int32) bool {
			//lint:ignore pcflint/floatcmp the record's verdict holds for exactly the capacity it was taken at; any other is visited
			return sr.arcCur[a] < 0 && caps[a] == s.arcCap[a]
		}
		if check {
			for _, a := range s.rec.over {
				if untouched(a) {
					visit(int(a))
					break
				}
			}
		}
		for _, a := range s.rec.ranked {
			if untouched(a) {
				visit(int(a))
				break
			}
		}
	}
	var err error
	if over >= 0 {
		err = overloadError{over, arcLoad[over], caps[over], sc}
	}
	s.restoreCaps(sr)
	if err != nil || !check {
		return mlu, err
	}

	for di, dst := range s.dests {
		var tuns []tunnels.ID
		var vals []float64
		if r == nil {
			if s.replayed(sr, di) && s.rec.balanced[di] {
				continue
			}
			tuns, vals = s.destFlows(sr, di)
		} else if flows, ok := r.TunnelTo[dst]; ok {
			// Check's scratch holds no emission anyone reads.
			sr.flowTun, sr.flowVal = flattenFlows(flows, sr.flowTun[:0], sr.flowVal[:0])
			tuns, vals = sr.flowTun, sr.flowVal
		} else {
			continue
		}
		if v, got, want := s.imbalance(&sr.bal, di, tuns, vals); v >= 0 {
			return mlu, balanceError{dst, v, got, want, sc}
		}
	}
	return mlu, nil
}

// imbalance balance-checks flows as destination di's against its
// targets.
func (s *Sweep) imbalance(bal *balance, di int, tuns []tunnels.ID, vals []float64) (node int, got, want float64) {
	lo, hi := s.wantNodes.off[di], s.wantNodes.off[di+1]
	return bal.imbalance(s.plan.Instance.Tunnels, tuns, vals, s.wantNodes.val[lo:hi], s.wantVals[lo:hi])
}

// flattenFlows appends a destination's flow map to tuns and vals in
// tunnel order, so a Realization is balance-checked through the same
// routine as a flat emission, and in the same summation order run to
// run.
func flattenFlows(flows map[tunnels.ID]float64, tuns []tunnels.ID, vals []float64) ([]tunnels.ID, []float64) {
	for tid := range flows {
		tuns = append(tuns, tid)
	}
	slices.Sort(tuns)
	for _, tid := range tuns {
		vals = append(vals, flows[tid])
	}
	return tuns, vals
}
