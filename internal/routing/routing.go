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
	"math"
	"slices"
	"sort"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// state captures the failure-dependent view of a plan: which tunnels
// are live, which LSs are active, and the pairs of interest.
type state struct {
	plan      *core.Plan
	sc        failures.Scenario
	liveTun   map[topology.Pair][]tunnels.ID
	activeLoc map[topology.Pair][]core.LSID // L_x(p): active LSs of the pair
	activeThr map[topology.Pair][]core.LSID // Q_x(p): active LSs using p as a segment
	pairs     []topology.Pair               // pairs of interest, deterministic order
	index     map[topology.Pair]int
}

func newState(plan *core.Plan, sc failures.Scenario) *state {
	in := plan.Instance
	st := &state{
		plan:      plan,
		sc:        sc,
		liveTun:   map[topology.Pair][]tunnels.ID{},
		activeLoc: map[topology.Pair][]core.LSID{},
		activeThr: map[topology.Pair][]core.LSID{},
		index:     map[topology.Pair]int{},
	}
	for _, p := range in.Tunnels.Pairs() {
		for _, tid := range in.Tunnels.ForPair(p) {
			if sc.Alive(in.Tunnels.Tunnel(tid).Path) {
				st.liveTun[p] = append(st.liveTun[p], tid)
			}
		}
	}
	for _, q := range in.LSs {
		if plan.LSRes[q.ID] <= 0 || !q.Cond.Holds(sc) {
			continue
		}
		st.activeLoc[q.Pair] = append(st.activeLoc[q.Pair], q.ID)
		for _, seg := range q.Segments() {
			st.activeThr[seg] = append(st.activeThr[seg], q.ID)
		}
	}
	// Pairs of interest: transitive closure from positive demands
	// through active LSs with positive reservation (appendix
	// definition).
	inP := map[topology.Pair]bool{}
	var queue []topology.Pair
	add := func(p topology.Pair) {
		if !inP[p] {
			inP[p] = true
			queue = append(queue, p)
		}
	}
	for _, p := range in.DemandPairs() {
		if plan.ScaledDemand(p) > 1e-12 {
			add(p)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, qid := range st.activeLoc[p] {
			for _, seg := range in.LSs[qid].Segments() {
				add(seg)
			}
		}
	}
	// Deterministic order.
	for s := 0; s < in.Graph.NumNodes(); s++ {
		for t := 0; t < in.Graph.NumNodes(); t++ {
			p := topology.Pair{Src: topology.NodeID(s), Dst: topology.NodeID(t)}
			if inP[p] {
				st.index[p] = len(st.pairs)
				st.pairs = append(st.pairs, p)
			}
		}
	}
	return st
}

// diag returns the total live reservation available to pair p.
func (st *state) diag(p topology.Pair) float64 {
	total := 0.0
	for _, tid := range st.liveTun[p] {
		total += st.plan.TunnelRes[tid]
	}
	for _, qid := range st.activeLoc[p] {
		total += st.plan.LSRes[qid]
	}
	return total
}

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
// topologically sortable.
func RealizeProportional(plan *core.Plan, sc failures.Scenario) (*Realization, error) {
	st := newState(plan, sc)
	in := plan.Instance
	res := &Realization{
		Scenario: sc,
		Pairs:    st.pairs,
		TunnelTo: map[topology.NodeID]map[tunnels.ID]float64{},
		ArcLoad:  make([]float64, in.Graph.NumArcs()),
	}
	if len(st.pairs) == 0 {
		return res, nil
	}
	var activeLSs []core.LogicalSequence
	for _, q := range in.LSs {
		if plan.LSRes[q.ID] > 0 && q.Cond.Holds(sc) {
			activeLSs = append(activeLSs, q)
		}
	}
	// Order pairs so that LS pairs precede their segments.
	lsPairs := map[topology.Pair]bool{}
	for _, q := range activeLSs {
		lsPairs[q.Pair] = true
		for _, seg := range q.Segments() {
			lsPairs[seg] = true
		}
	}
	var universe []topology.Pair
	seen := map[topology.Pair]bool{}
	for _, p := range st.pairs {
		universe = append(universe, p)
		seen[p] = true
	}
	for p := range lsPairs {
		if !seen[p] {
			universe = append(universe, p)
		}
	}
	order, err := core.TopologicalPairOrder(activeLSs, universe)
	if err != nil {
		return nil, fmt.Errorf("routing: under scenario %v: %w", sc, err)
	}

	// Per-destination demand propagated down the topological order.
	destSet := map[topology.NodeID]bool{}
	for _, p := range in.DemandPairs() {
		if plan.ScaledDemand(p) > 1e-12 {
			destSet[p.Dst] = true
		}
	}
	uAgg := make(map[topology.Pair]float64)
	for t := 0; t < in.Graph.NumNodes(); t++ {
		dst := topology.NodeID(t)
		if !destSet[dst] {
			continue
		}
		// load[p] is the traffic for destination dst pair p must carry.
		load := map[topology.Pair]float64{}
		for _, p := range st.pairs {
			if p.Dst == dst {
				load[p] += plan.ScaledDemand(p)
			}
		}
		flows := map[tunnels.ID]float64{}
		for _, p := range order {
			d := load[p]
			if d <= 1e-12 {
				continue
			}
			total := st.diag(p)
			if total <= 1e-12 {
				return nil, fmt.Errorf("routing: pair %v must carry %g but has no live reservation under %v", p, d, sc)
			}
			u := d / total
			if u > 1+1e-7 {
				return nil, fmt.Errorf("routing: pair %v oversubscribed (u=%g) under %v", p, u, sc)
			}
			uAgg[p] += u
			for _, tid := range st.liveTun[p] {
				r := u * plan.TunnelRes[tid]
				if r <= 1e-12 {
					continue
				}
				flows[tid] += r
				for _, a := range in.Tunnels.Tunnel(tid).Path.Arcs {
					res.ArcLoad[a] += r
				}
			}
			for _, qid := range st.activeLoc[p] {
				bq := u * plan.LSRes[qid]
				if bq <= 1e-12 {
					continue
				}
				for _, seg := range in.LSs[qid].Segments() {
					load[seg] += bq
				}
			}
		}
		res.TunnelTo[dst] = flows
	}
	res.U = make([]float64, len(st.pairs))
	for i, p := range st.pairs {
		res.U[i] = uAgg[p]
		if res.U[i] > 1+1e-6 {
			return nil, fmt.Errorf("routing: pair %v aggregate utilization %g > 1 under %v", p, res.U[i], sc)
		}
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
// lowest-numbered node.
func CheckRealization(plan *core.Plan, r *Realization) error {
	in := plan.Instance
	g := in.Graph
	nominal := isNominal(r.Scenario)
	for a := 0; a < g.NumArcs(); a++ {
		if c := capacityUnder(g, r.Scenario, nominal, topology.ArcID(a)); r.ArcLoad[a] > c+1e-6 {
			return overloadError{a, r.ArcLoad[a], c, r.Scenario}
		}
	}
	dsts := make([]topology.NodeID, 0, len(r.TunnelTo))
	for dst := range r.TunnelTo {
		dsts = append(dsts, dst)
	}
	slices.Sort(dsts)
	inbound := map[topology.NodeID][]topology.Pair{}
	for _, p := range in.DemandPairs() {
		if _, ok := r.TunnelTo[p.Dst]; ok {
			inbound[p.Dst] = append(inbound[p.Dst], p)
		}
	}
	// The balance target of a destination: the scaled demand v->dst at
	// each source v, minus the total demand into dst at dst.
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
		if v, got, want := bal.imbalance(in.Tunnels, tuns, vals, wantNodes, wantVals); v >= 0 {
			return balanceError{dst, v, got, want, r.Scenario}
		}
	}
	return nil
}

// RemoveCycles cancels circulation in the per-destination tunnel flows
// of a realization (Proposition 6 notes the linear-system solution may
// contain loops that can be subtracted in post-processing). Cycles are
// found on the pair-level flow graph — tunnel l of pair (i,j) is an
// edge i->j — and cancelled by reducing every tunnel on the cycle by
// the bottleneck amount. Arc loads are rebuilt afterwards.
func RemoveCycles(plan *core.Plan, r *Realization) {
	in := plan.Instance
	for dst, flows := range r.TunnelTo {
		for {
			cyc := findFlowCycle(in, flows)
			if cyc == nil {
				break
			}
			// Bottleneck over the cycle.
			min := math.Inf(1)
			for _, tid := range cyc {
				if flows[tid] < min {
					min = flows[tid]
				}
			}
			for _, tid := range cyc {
				flows[tid] -= min
				if flows[tid] <= 1e-12 {
					delete(flows, tid)
				}
			}
		}
		r.TunnelTo[dst] = flows
	}
	// Rebuild arc loads.
	for a := range r.ArcLoad {
		r.ArcLoad[a] = 0
	}
	for _, flows := range r.TunnelTo {
		for tid, v := range flows {
			for _, a := range in.Tunnels.Tunnel(tid).Path.Arcs {
				r.ArcLoad[a] += v
			}
		}
	}
}

// findFlowCycle returns the tunnel IDs of one directed cycle in the
// pair-level flow graph, or nil. Iteration orders are sorted so the
// cancellation is deterministic.
func findFlowCycle(in *core.Instance, flows map[tunnels.ID]float64) []tunnels.ID {
	// Build adjacency: node -> outgoing tunnels with positive flow.
	ids := make([]tunnels.ID, 0, len(flows))
	for tid, v := range flows {
		if v > 1e-12 {
			ids = append(ids, tid)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	adj := map[topology.NodeID][]tunnels.ID{}
	for _, tid := range ids {
		p := in.Tunnels.Tunnel(tid).Pair
		adj[p.Src] = append(adj[p.Src], tid)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[topology.NodeID]int{}
	parent := map[topology.NodeID]tunnels.ID{}
	var cycle []tunnels.ID
	var dfs func(n topology.NodeID) topology.NodeID
	dfs = func(n topology.NodeID) topology.NodeID {
		color[n] = gray
		for _, tid := range adj[n] {
			next := in.Tunnels.Tunnel(tid).Pair.Dst
			switch color[next] {
			case gray:
				// Found a cycle; unwind from n back to next.
				cycle = []tunnels.ID{tid}
				at := n
				for at != next {
					ptid := parent[at]
					cycle = append(cycle, ptid)
					at = in.Tunnels.Tunnel(ptid).Pair.Src
				}
				return next
			case white:
				parent[next] = tid
				if head := dfs(next); head >= 0 {
					return head
				}
			}
		}
		color[n] = black
		return -1
	}
	starts := make([]topology.NodeID, 0, len(adj))
	for n := range adj {
		starts = append(starts, n)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, n := range starts {
		if color[n] == white {
			if dfs(n) >= 0 {
				return cycle
			}
		}
	}
	return nil
}

// Defaults of the distributed Jacobi realization (§4.3): enough sweeps
// for the weakly chained diagonally dominant matrices of Proposition 5
// to contract, and a residual target well inside the 1e-6..1e-7
// feasibility tolerances the realization checks apply downstream.
const (
	DefaultJacobiMaxSweeps = 20000
	DefaultJacobiTol       = 1e-9
)

// RealizeIterative computes the aggregate utilizations U with the
// Jacobi iteration instead of a direct solve — the fully distributed
// implementation the paper sketches in §4.3: each node pair repeatedly
// updates its own utilization from its neighbors' values, which is
// possible because M is a weakly chained diagonally dominant M-matrix
// (Proposition 5) and therefore the iteration converges. It iterates on
// the rows Realize factors and returns the utilizations in Realize's
// pair order. maxSweeps <= 0 and tol <= 0 select DefaultJacobiMaxSweeps
// and DefaultJacobiTol.
func RealizeIterative(plan *core.Plan, sc failures.Scenario, maxSweeps int, tol float64) ([]topology.Pair, []float64, error) {
	if maxSweeps <= 0 {
		maxSweeps = DefaultJacobiMaxSweeps
	}
	if tol <= 0 {
		tol = DefaultJacobiTol
	}
	s := newIndex(plan)
	if s.n == 0 {
		return nil, nil, nil
	}
	sr := s.newScratch()
	s.activate(sc, sr)
	if err := s.scenarioRows(sc, sr); err != nil {
		return nil, nil, err
	}
	res, err := linsolve.Jacobi(rowViews(sr.sys.ptr, sr.sys.ents), s.demand, maxSweeps, tol)
	if err != nil {
		return nil, nil, fmt.Errorf("routing: distributed iteration under %v: %w", sc, err)
	}
	var pairs []topology.Pair
	var u []float64
	for r, p := range s.pairs {
		if sr.inSet[r] != sr.epoch {
			continue
		}
		if x := res.X[r]; x < -1e-6 || x > 1+1e-6 {
			return nil, nil, fmt.Errorf("routing: iterative U[%v] = %g outside [0,1] under %v", p, x, sc)
		}
		pairs, u = append(pairs, p), append(u, res.X[r])
	}
	return pairs, u, nil
}
