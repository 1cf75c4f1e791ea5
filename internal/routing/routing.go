// Package routing realizes PCF plans as concrete per-failure routings
// (paper §4). For arbitrary logical sequences it builds the reservation
// matrix M — an invertible M-matrix (Proposition 5) — and solves one
// linear system per failure to obtain the traffic each tunnel carries
// to each destination (Proposition 6, §4.1). When the LSs admit a
// topological order it also implements the local proportional routing
// scheme (Proposition 7, §4.2), FFC's distributed response generalized
// to logical sequences. A validator replays every scenario of the
// designed failure set and asserts the congestion-free property.
package routing

import (
	"errors"
	"fmt"
	"slices"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/tol"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// Realization is a concrete routing for one failure scenario.
type Realization struct {
	Scenario failures.Scenario
	// Pairs are the pairs of interest in matrix order.
	Pairs []topology.Pair
	// U is the aggregate utilization fraction of each pair's
	// reservation (the solution of M·U = D); all entries lie in [0,1].
	U []float64
	// TunnelTo[t][l] is the traffic destined to node t carried on
	// tunnel l (Proposition 6's r_lt).
	TunnelTo map[topology.NodeID]map[tunnels.ID]float64
	// ArcLoad is the total traffic per arc.
	ArcLoad []float64
}

// ErrSingularMatrix reports that the reservation matrix M could not be
// factorized for a scenario. Errors from Realize wrap it (together with
// the underlying linsolve.ErrSingular), so callers can select on it with
// errors.Is.
var ErrSingularMatrix = errors.New("routing: reservation matrix singular")

// ErrUnrealizable reports that the plan cannot carry a scenario: a pair
// of interest has no live reservation, an aggregate utilization falls
// outside [0,1] (Proposition 5 fails), or the reservation matrix is
// singular (ErrSingularMatrix, which such errors wrap too). The scenario
// is at fault, not the engine or the plan; within the plan's designed
// failure set none occurs.
var ErrUnrealizable = errors.New("routing: scenario not realizable by the plan")

// unrealizable marks a scenario's error as ErrUnrealizable without
// changing its text.
type unrealizable struct{ error }

func (unrealizable) Is(target error) bool { return target == ErrUnrealizable }

func (e unrealizable) Unwrap() error { return e.error }

// Realize computes the routing for a scenario by solving the linear
// systems of §4.1 over the scenario's own reservation matrix, factored
// once: the aggregate utilizations first, then one right-hand side per
// destination. It is the engine's cold path, run on an engine built
// without a base, so a Sweep answers a scenario that leaves its
// low-rank path bit for bit as Realize does.
func Realize(plan *core.Plan, sc failures.Scenario) (*Realization, error) {
	s := newIndex(plan)
	sr := s.newScratch()
	if _, err := s.realize(sc, sr); err != nil {
		return nil, err
	}
	return s.materialize(sc, sr), nil
}

// RealizeProportional computes the routing with the local proportional
// scheme of §4.2: traffic of each pair is split over its live tunnels
// and active LSs in proportion to their reservations, processing pairs
// in topological order. It fails if the active LSs are not
// topologically sortable. The pairs of interest, live tunnels and
// active LSs are the engine's (activate), so the scheme shares them
// with Realize.
func RealizeProportional(plan *core.Plan, sc failures.Scenario) (*Realization, error) {
	in := plan.Instance
	s := newIndex(plan)
	sr := s.newScratch()
	s.activate(sc, sr)
	ep := sr.epoch
	res := &Realization{
		Scenario: sc,
		TunnelTo: map[topology.NodeID]map[tunnels.ID]float64{},
		ArcLoad:  make([]float64, in.Graph.NumArcs()),
	}
	for r, p := range s.pairs {
		if sr.inSet[r] == ep {
			res.Pairs = append(res.Pairs, p)
		}
	}
	if len(res.Pairs) == 0 {
		return res, nil
	}
	// The active LSs in the engine's order, and the pairs to order: the
	// pairs of interest, then any other pair an active LS names.
	var activeLSs []core.LogicalSequence
	var universe []topology.Pair
	seen := map[topology.Pair]bool{}
	add := func(p topology.Pair) {
		if !seen[p] {
			seen[p] = true
			universe = append(universe, p)
		}
	}
	for _, p := range res.Pairs {
		add(p)
	}
	for qi, e := range s.ls {
		if !sr.lsActive[qi] {
			continue
		}
		q := in.LSs[e.id]
		activeLSs = append(activeLSs, q)
		add(q.Pair)
		for _, seg := range q.Segments() {
			add(seg)
		}
	}
	order, err := core.TopologicalPairOrder(activeLSs, universe)
	if err != nil {
		return nil, fmt.Errorf("routing: under scenario %v: %w", sc, err)
	}

	// Per-destination demand propagated down the topological order;
	// load[r] is the traffic for the destination universe row r must
	// carry. Only pairs of interest ever carry any.
	load := make([]float64, s.n)
	uAgg := make([]float64, s.n)
	for _, dst := range s.dests {
		for r, p := range s.pairs {
			load[r] = 0
			if sr.inSet[r] == ep && p.Dst == dst {
				load[r] = s.demand[r]
			}
		}
		flows := map[tunnels.ID]float64{}
		for _, p := range order {
			r, ok := s.index[p]
			if !ok || load[r] <= tol.Carry {
				continue
			}
			d := load[r]
			total := s.liveRes(sr, r)
			if total <= tol.Carry {
				return nil, fmt.Errorf("routing: pair %v must carry %g but has no live reservation under %v", p, d, sc)
			}
			u := d / total
			if u > 1+tol.PairUtil {
				return nil, fmt.Errorf("routing: pair %v oversubscribed (u=%g) under %v", p, u, sc)
			}
			uAgg[r] += u
			for _, tid := range s.pairTun[r] {
				if sr.deadTun[tid] == ep {
					continue
				}
				f := u * s.tunRes[tid]
				if f <= tol.Carry {
					continue
				}
				flows[tid] += f
				for _, a := range in.Tunnels.Tunnel(tid).Path.Arcs {
					res.ArcLoad[a] += f
				}
			}
			for _, qi := range s.localLS[r] {
				if !sr.lsActive[qi] {
					continue
				}
				bq := u * s.ls[qi].res
				if bq <= tol.Carry {
					continue
				}
				for _, sg := range s.ls[qi].segRows {
					load[sg] += bq
				}
			}
		}
		res.TunnelTo[dst] = flows
	}
	res.U = make([]float64, 0, len(res.Pairs))
	for r := range s.pairs {
		if sr.inSet[r] != ep {
			continue
		}
		if uAgg[r] > 1+tol.AggUtil {
			return nil, fmt.Errorf("routing: pair %v aggregate utilization %g > 1 under %v", s.pairs[r], uAgg[r], sc)
		}
		res.U = append(res.U, uAgg[r])
	}
	return res, nil
}

// ScenarioCapacity returns an arc's capacity under a scenario: the
// nominal capacity scaled by the scenario's degradation for the arc's
// link (0 for dead links, α for degraded ones, nominal otherwise).
func ScenarioCapacity(g *topology.Graph, sc failures.Scenario, a topology.ArcID) float64 {
	return g.ArcCapacity(a) * sc.CapScale(topology.LinkOf(a))
}

// capacityUnder is ScenarioCapacity for a caller walking many arcs of
// one scenario: nominal says the scenario has no dead or degraded link,
// resolved once, and then no arc pays the two map lookups.
func capacityUnder(g *topology.Graph, sc failures.Scenario, nominal bool, a topology.ArcID) float64 {
	if nominal {
		return g.ArcCapacity(a)
	}
	return ScenarioCapacity(g, sc, a)
}

func isNominal(sc failures.Scenario) bool { return len(sc.Dead) == 0 && len(sc.Degraded) == 0 }

// overloaded is the overload verdict, the one every check reaches: an
// arc carrying load against capacity c is overloaded when the load
// exceeds c by more than tol.Overload.
func overloaded(load, c float64) bool { return load > c+tol.Overload }

// MLUOf returns the maximum link utilization of a realization under
// its scenario's capacities. Degraded links divide their load by the
// scaled capacity; dead links carry no flow and are skipped, as is any
// arc with no load — it cannot raise the maximum.
func MLUOf(g *topology.Graph, r *Realization) float64 {
	nominal := isNominal(r.Scenario)
	mlu := 0.0
	for a, load := range r.ArcLoad {
		if load <= 0 {
			continue
		}
		if c := capacityUnder(g, r.Scenario, nominal, topology.ArcID(a)); c > 0 {
			if u := load / c; u > mlu {
				mlu = u
			}
		}
	}
	return mlu
}

// CheckRealization verifies Proposition 6's properties for one
// realization: arc loads within the scenario's (possibly degraded)
// capacity, and per-destination flow conservation at every node. It
// reports the first overloaded arc if there is one, else the first
// destination in node order that misses balance, at its
// lowest-numbered node. A realization that does not fit the plan is an
// error (checkShape).
func CheckRealization(plan *core.Plan, r *Realization) error {
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
	// The balance target of a destination: the scaled demand v->dst at
	// each source v, minus the total demand into dst at dst, summed over
	// its demand pairs in DemandPairs' order (the matrix's Pairs(0)).
	// Every destination's pairs are listed in one pass over the matrix,
	// destination by destination.
	bal := newBalance(g.NumNodes())
	inbound := in.TM.AppendPairsIntoEach(nil, dsts)
	var wantNodes []int32
	var wantVals, vals []float64
	var tuns []tunnels.ID
	for _, dst := range dsts {
		wantNodes, wantVals = append(wantNodes[:0], int32(dst)), append(wantVals[:0], 0)
		for len(inbound) > 0 && inbound[0].Dst == dst {
			p := inbound[0]
			inbound = inbound[1:]
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

// checkShape reports the first way a realization does not fit the
// instance the checks index it by: another arc count, else the lowest
// destination outside the node range, else the lowest tunnel id outside
// the tunnel set that carries a flow.
func checkShape(in *core.Instance, r *Realization) error {
	if arcs := in.Graph.NumArcs(); len(r.ArcLoad) != arcs {
		return fmt.Errorf("routing: realization has %d arc loads, the plan's graph %d arcs", len(r.ArcLoad), arcs)
	}
	nodes, tuns := in.Graph.NumNodes(), in.Tunnels.Len()
	var dstOut, tunOut bool
	var badDst, tunDst topology.NodeID
	var badTun tunnels.ID
	for dst, flows := range r.TunnelTo {
		if dst < 0 || int(dst) >= nodes {
			if !dstOut || dst < badDst {
				dstOut, badDst = true, dst
			}
			continue
		}
		for tid := range flows {
			if (tid < 0 || int(tid) >= tuns) && (!tunOut || tid < badTun) {
				tunOut, badTun, tunDst = true, tid, dst
			}
		}
	}
	switch {
	case dstOut:
		return fmt.Errorf("routing: realization routes to destination %d, outside the plan's %d nodes", badDst, nodes)
	case tunOut:
		return fmt.Errorf("routing: realization's flow to destination %d is on tunnel %d, outside the plan's %d tunnels", tunDst, badTun, tuns)
	}
	return nil
}
