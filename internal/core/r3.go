package core

import (
	"fmt"
	"math"
	"time"

	"pcf/internal/lp"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// This file implements R3 (Wang et al., SIGCOMM 2010), the link-bypass
// congestion-free baseline the paper compares against in §3.5/Table 1.
// R3 routes demands on a base routing and, for every link, precomputes
// a bypass flow for a virtual demand equal to the link's full capacity;
// the offline LP guarantees no congestion for any f simultaneous link
// failures. Two R3 limitations the paper exploits:
//
//   - R3's guarantee requires the network to remain connected under
//     every target scenario (the bypass for link i-j must run from i to
//     j). If some scenario disconnects the graph — as two failures do
//     in the paper's Fig. 5 — R3 provides no guarantee and carries 0.
//   - R3 cannot model node failures at all (§3.5).

// SolveR3 computes R3's guaranteed demand scale. The failure set must
// be link-based (every unit a single link).
func SolveR3(in *Instance, opts SolveOptions) (*Plan, error) {
	o := opts.withDefaults()
	start := time.Now()
	for _, u := range in.Failures.Units {
		if len(u.Links) != 1 {
			return nil, fmt.Errorf("R3: failure units must be single links (no SRLG/node support)")
		}
	}
	if err := in.TM.Validate(); err != nil {
		return nil, fmt.Errorf("R3: %w", err)
	}
	if in.Failures.Budget < 0 {
		return nil, fmt.Errorf("R3: %w %d", ErrNegativeBudget, in.Failures.Budget)
	}
	plan := &Plan{
		Scheme:    "R3",
		Objective: in.Objective,
		Z:         map[topology.Pair]float64{},
		TunnelRes: map[tunnels.ID]float64{},
		LSRes:     map[LSID]float64{},
		Instance:  in,
	}
	// R3's correctness theorem assumes the network stays connected
	// under every protected scenario; otherwise some link has no viable
	// bypass and the scheme guarantees nothing (paper §3.5, Table 1).
	if _, disconnects := in.Failures.Disconnects(in.Graph); disconnects {
		plan.Value = 0
		plan.SolveTime = time.Since(start)
		return plan, nil
	}

	g := in.Graph
	n := g.NumNodes()
	numArcs := g.NumArcs()
	f := float64(in.Failures.Budget)
	demand := in.DemandPairs()

	m := lp.NewModel()
	z := m.AddNonNeg()

	// Base routing aggregated per destination.
	destSet := map[topology.NodeID]bool{}
	for _, p := range demand {
		destSet[p.Dst] = true
	}
	var dests []topology.NodeID
	for t := 0; t < n; t++ {
		if destSet[topology.NodeID(t)] {
			dests = append(dests, topology.NodeID(t))
		}
	}
	r := map[topology.NodeID][]lp.Var{}
	for _, t := range dests {
		vars := make([]lp.Var, numArcs)
		for a := 0; a < numArcs; a++ {
			vars[a] = m.AddNonNeg()
		}
		r[t] = vars
		for v := 0; v < n; v++ {
			if topology.NodeID(v) == t {
				continue
			}
			e := lp.NewExpr()
			for _, a := range g.OutArcs(topology.NodeID(v)) {
				e.Add(1, vars[a])
				e.Add(-1, vars[a^1])
			}
			if d := in.TM.Demand[v][t]; d > 0 {
				e.Add(-d, z)
			}
			m.AddConstraint(e, lp.EQ, 0)
		}
	}

	// Protection: for each arc a0, a unit flow from its tail to its
	// head avoiding its own link (the bypass for the virtual demand of
	// the link's capacity in that direction).
	p := make([][]lp.Var, numArcs)
	for a0 := 0; a0 < numArcs; a0++ {
		arc0 := topology.ArcID(a0)
		own := topology.LinkOf(arc0)
		from, to := g.ArcEnds(arc0)
		vars := make([]lp.Var, numArcs)
		for a := 0; a < numArcs; a++ {
			if topology.LinkOf(topology.ArcID(a)) == own {
				vars[a] = -1
				continue
			}
			vars[a] = m.AddNonNeg()
		}
		p[a0] = vars
		for v := 0; v < n; v++ {
			if topology.NodeID(v) == to {
				continue
			}
			e := lp.NewExpr()
			for _, a := range g.OutArcs(topology.NodeID(v)) {
				if vars[a] >= 0 {
					e.Add(1, vars[a])
				}
				if vars[a^1] >= 0 {
					e.Add(-1, vars[a^1])
				}
			}
			rhs := 0.0
			if topology.NodeID(v) == from {
				rhs = 1
			}
			m.AddConstraint(e, lp.EQ, rhs)
		}
	}

	// Congestion-free constraint, dualized over the failure budget
	// polytope {0 <= x <= 1, Σ x <= f}: for each arc a,
	//   base(a) + f·λ_a + Σ_e σ_{e,a} <= c_a
	//   λ_a + σ_{e,a} >= c_e·(p_{fwd(e)}(a) + p_{rev(e)}(a))  ∀ links e.
	for a := 0; a < numArcs; a++ {
		arc := topology.ArcID(a)
		lam := m.AddNonNeg()
		row := lp.NewExpr()
		for _, t := range dests {
			row.Add(1, r[t][a])
		}
		row.Add(f, lam)
		for e := 0; e < g.NumLinks(); e++ {
			link := topology.LinkID(e)
			fwd := topology.ArcID(2 * e)
			rev := topology.ArcID(2*e + 1)
			hasTerm := (p[fwd][a] >= 0) || (p[rev][a] >= 0)
			if !hasTerm {
				continue
			}
			sig := m.AddNonNeg()
			row.Add(1, sig)
			dualRow := lp.NewExpr().Add(1, lam).Add(1, sig)
			ce := g.Link(link).Capacity
			if p[fwd][a] >= 0 {
				dualRow.Add(-ce, p[fwd][a])
			}
			if p[rev][a] >= 0 {
				dualRow.Add(-ce, p[rev][a])
			}
			m.AddConstraint(dualRow, lp.GE, 0)
		}
		m.AddConstraint(row, lp.LE, g.ArcCapacity(arc))
	}

	m.SetObjective(lp.NewExpr().Add(1, z), lp.Maximize)
	sol, err := lp.SolveWithOptions(m, o.LP)
	if err != nil {
		return nil, fmt.Errorf("R3: %w", err)
	}
	switch sol.Status {
	case lp.StatusOptimal:
		plan.Value = sol.Objective
		plan.Stats = SolveStats{Rounds: 1, CompileTime: sol.Stats.CompileTime}
		absorbLPStats(&plan.Stats, sol)
	case lp.StatusInfeasible:
		plan.Value = 0
	default:
		return nil, fmt.Errorf("R3: LP %v", sol.Status)
	}
	if math.IsInf(plan.Value, 0) {
		return nil, fmt.Errorf("R3: unbounded demand scale")
	}
	for _, pr := range demand {
		plan.Z[pr] = plan.Value
	}
	plan.SolveTime = time.Since(start)
	return plan, nil
}
