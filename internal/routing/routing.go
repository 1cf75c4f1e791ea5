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
		if s.in(sr, r) {
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
			if s.in(sr, r) && p.Dst == dst {
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
			if u > 1+tol.Util {
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
				for _, a := range s.tunArcs.at(int(tid)) {
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
		if !s.in(sr, r) {
			continue
		}
		if uAgg[r] > 1+tol.Util {
			return nil, fmt.Errorf("routing: pair %v aggregate utilization %g > 1 under %v", s.pairs[r], uAgg[r], sc)
		}
		res.U = append(res.U, uAgg[r])
	}
	return res, nil
}
