package routing

// The engine build: universe closure → plan indexes (newIndex, all a
// cold-only engine has) → base rows → factor + base solves → base
// emission record. Everything here runs once per plan.

import (
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"slices"
	"sync/atomic"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/tol"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// sweepBuilds counts engine constructions. Publishing a plan, recovering
// one and validating one are each specified to build exactly one engine;
// the tests hold them to it through this counter.
var sweepBuilds atomic.Int64

// NewSweepContext builds the realization engine for a plan, with a
// cancellation point between the build stages and every few base
// solves. On cancellation it returns nil and an error wrapping the
// context error, so a deadline-bound caller (pcfd's publish path, the
// validation sweep) is never stuck behind an unbounded factorization.
// A nil ctx never fails. Nothing else does either: when the base matrix
// cannot be factored (or a base pair has no live reservation) the
// engine serves every scenario through the cold path, which reports
// the underlying problem per scenario exactly as Realize does.
func NewSweepContext(ctx context.Context, plan *core.Plan) (*Sweep, error) {
	start := time.Now()
	sweepBuilds.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	s := newIndex(plan)
	if err := s.buildBase(ctx); err != nil {
		return nil, fmt.Errorf("routing: sweep precompute canceled: %w", err)
	}
	s.baseTime = time.Since(start)
	return s, nil
}

// newIndex returns the plan's engine without a base: the universe and
// the plan in universe-row coordinates, and nothing factored, so every
// scenario takes the cold path. Realize runs on one; NewSweepContext
// goes on to build the base.
func newIndex(plan *core.Plan) *Sweep {
	s := &Sweep{
		engine: &engine{
			plan:    plan,
			index:   map[topology.Pair]int{},
			numTun:  plan.Instance.Tunnels.Len(),
			keySeed: maphash.MakeSeed(),
		},
		cors: &correctors{},
	}
	if fs := plan.Instance.Failures; fs != nil {
		s.cors.cap, _ = fs.NumScenarios()
	}
	s.pool.New = func() any { return s.newScratch() }
	// Positive-reservation LSs, in instance order (the order every list
	// of them is built in, so recomputed sums are bit-equal).
	var qs []core.LogicalSequence
	for _, q := range plan.Instance.LSs {
		if plan.LSRes[q.ID] > 0 {
			qs = append(qs, q)
		}
	}
	// Listed once: the traffic matrix is dense, so each listing scans
	// every node pair.
	demandPairs := plan.Instance.DemandPairs()
	s.closeUniverse(qs, demandPairs)
	s.indexPlan(qs, demandPairs)
	return s
}

// buildBase runs the base stages in order; its only error is ctx's.
func (s *Sweep) buildBase(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sr := s.newScratch()
	diagOK := s.buildBaseRows(sr)
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.n == 0 || !diagOK {
		return nil
	}
	return s.factorBase(ctx, sr)
}

// closeUniverse fixes the engine's row space: the closure of the
// positive-demand pairs through ALL positive-reservation LSs,
// conditions ignored, in (src, dst) node order.
func (s *Sweep) closeUniverse(qs []core.LogicalSequence, demandPairs []topology.Pair) {
	lsByPair := map[topology.Pair][]int{}
	for i, q := range qs {
		lsByPair[q.Pair] = append(lsByPair[q.Pair], i)
	}
	var queue []topology.Pair
	add := func(p topology.Pair) {
		if _, ok := s.index[p]; !ok {
			s.index[p] = -1 // its row is set once the order is
			queue = append(queue, p)
		}
	}
	for _, p := range demandPairs {
		if s.plan.ScaledDemand(p) > tol.Carry {
			add(p)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, qi := range lsByPair[queue[i]] {
			for _, seg := range qs[qi].Segments() {
				add(seg)
			}
		}
	}
	// The queue holds every universe pair once; sorted, it is the row
	// order.
	slices.SortFunc(queue, func(a, b topology.Pair) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	s.pairs = queue
	for r, p := range s.pairs {
		s.index[p] = r
	}
	s.n = len(s.pairs)
}

// indexPlan translates the plan into universe-row coordinates: tunnels
// per row and per link, the tunnel tables, LS entries, the demand
// vector with its seed rows and destinations, the no-failure pairs of
// interest, and Check's per-destination balance targets.
func (s *Sweep) indexPlan(qs []core.LogicalSequence, demandPairs []topology.Pair) {
	in, plan, n := s.plan.Instance, s.plan, s.n

	// Tunnel indexes per universe row, and the link -> tunnels index
	// used to find tunnels a failed link kills.
	s.tunEnds, s.tunArcs = tunnelTables(in.Tunnels)
	s.pairTun = make([][]tunnels.ID, n)
	s.tunRow = make([]int, s.numTun)
	s.tunRes = make([]float64, s.numTun)
	for i := range s.tunRow {
		s.tunRow[i] = -1
		s.tunRes[i] = plan.TunnelRes[tunnels.ID(i)]
	}
	for r, p := range s.pairs {
		s.pairTun[r] = in.Tunnels.ForPair(p)
		for _, tid := range s.pairTun[r] {
			s.tunRow[tid] = r
		}
	}
	s.linkTuns = jaggedOf(in.Graph.NumLinks(), func(add func(l int, v int32)) {
		for _, tuns := range s.pairTun {
			for _, tid := range tuns {
				for _, a := range s.tunArcs.at(int(tid)) {
					add(int(topology.LinkOf(topology.ArcID(a))), int32(tid))
				}
			}
		}
	})

	s.localLS = make([][]int, n)
	s.throughLS = make([][]int, n)
	for _, q := range qs {
		e := sweepLS{id: q.ID, pairRow: -1, res: plan.LSRes[q.ID], cond: q.Cond, baseActive: q.Cond.Holds(failures.Scenario{})}
		if r, ok := s.index[q.Pair]; ok {
			e.pairRow = r
		}
		for _, seg := range q.Segments() {
			if r, ok := s.index[seg]; ok {
				e.segRows = append(e.segRows, r)
			}
		}
		qi := len(s.ls)
		s.ls = append(s.ls, e)
		if e.pairRow >= 0 {
			s.localLS[e.pairRow] = append(s.localLS[e.pairRow], qi)
		}
		for _, r := range e.segRows {
			s.throughLS[r] = append(s.throughLS[r], qi)
		}
	}

	// Demand vector, seeds, destinations (node order, as the cold path
	// iterates them).
	s.demand = make([]float64, n)
	for r, p := range s.pairs {
		s.demand[r] = plan.ScaledDemand(p)
	}
	destSet := map[topology.NodeID]bool{}
	for _, p := range demandPairs {
		if plan.ScaledDemand(p) > tol.Carry {
			if r, ok := s.index[p]; ok {
				s.seeds = append(s.seeds, r)
			}
			destSet[p.Dst] = true
		}
	}
	for t := 0; t < in.Graph.NumNodes(); t++ {
		if destSet[topology.NodeID(t)] {
			s.dests = append(s.dests, topology.NodeID(t))
		}
	}

	// The no-failure pairs of interest.
	base := make([]bool, len(s.ls))
	for qi := range s.ls {
		base[qi] = s.ls[qi].baseActive
	}
	s.baseInSet = make([]bool, n)
	s.baseCount = len(s.closure(nil, s.baseInSet, base))

	// The check's inputs are scenario-independent, so build them once.
	// A destination's balance target is the scaled demand v->dst at each
	// source v and minus the total demand into dst at dst; it is summed
	// dense in demand-pair order, then kept sparse.
	g := in.Graph
	nodes := g.NumNodes()
	s.destIndex = make([]int32, nodes)
	for v := range s.destIndex {
		s.destIndex[v] = -1
	}
	for di, dst := range s.dests {
		s.destIndex[dst] = int32(di)
	}
	inbound := make([][]topology.Pair, len(s.dests))
	for _, p := range demandPairs {
		if di := s.destIndex[p.Dst]; di >= 0 {
			inbound[di] = append(inbound[di], p)
		}
	}
	w := make([]float64, nodes)
	s.wantNodes.off = make([]int32, 1, len(s.dests)+1)
	for di := range s.dests {
		for _, p := range inbound[di] {
			d := plan.ScaledDemand(p)
			w[p.Src] += d
			w[p.Dst] -= d
		}
		for v := range w {
			if w[v] != 0 {
				s.wantNodes.val = append(s.wantNodes.val, int32(v))
				s.wantVals = append(s.wantVals, w[v])
				w[v] = 0
			}
		}
		s.wantNodes.off = append(s.wantNodes.off, int32(len(s.wantNodes.val)))
	}
	s.arcCap = make([]float64, g.NumArcs())
	for a := range s.arcCap {
		s.arcCap[a] = g.ArcCapacity(topology.ArcID(a))
	}
}

// tunnelTables lays out every tunnel of ts flat: its endpoints, two
// per tunnel, and its arcs in path order.
func tunnelTables(ts *tunnels.Set) (ends []int32, arcs jagged) {
	ends = make([]int32, 2*ts.Len())
	arcs.off = make([]int32, ts.Len()+1)
	for tid := range ts.Len() {
		t := ts.Tunnel(tunnels.ID(tid))
		ends[2*tid], ends[2*tid+1] = int32(t.Pair.Src), int32(t.Pair.Dst)
		arcs.off[tid+1] = arcs.off[tid] + int32(len(t.Path.Arcs))
	}
	arcs.val = make([]int32, 0, arcs.off[ts.Len()])
	for tid := range ts.Len() {
		for _, a := range ts.Tunnel(tunnels.ID(tid)).Path.Arcs {
			arcs.val = append(arcs.val, int32(a))
		}
	}
	return ends, arcs
}

// buildBaseRows builds the no-failure reservation matrix with the
// scenario path's own row routine run on the empty scenario, so a row
// no scenario changes recomputes to bit-identical coefficients and never
// produces a spurious delta. Pairs outside the no-failure set get
// identity rows: they carry no demand and no in-set row references
// their column, so the in-set block solves exactly as the scenario's
// own system. It leaves the empty scenario activated in sr and reports
// whether every in-set pair has a live reservation; if not, the engine
// stays cold-only.
func (s *Sweep) buildBaseRows(sr *sweepScratch) bool {
	s.activate(failures.Scenario{}, sr)
	if s.scenarioRows(failures.Scenario{}, sr) != nil {
		return false
	}
	s.baseRows = rowViews(sr.sys.ptr, slices.Clone(sr.sys.ents))
	return true
}

// factorBase factors the base rows, solves the aggregate and
// per-destination base systems and records the base emission through
// sr, which still holds the empty scenario. A numerical failure is not
// an error: s.slu stays nil and the engine serves cold. Only
// cancellation is.
func (s *Sweep) factorBase(ctx context.Context, sr *sweepScratch) error {
	n := s.n
	slu, err := linsolve.FactorSparseRows(s.baseRows, n)
	if err != nil {
		return nil
	}
	sys := sr.system()
	uBase := make([]float64, n)
	ok := slu.SolveIntoScratch(uBase, s.demand, sys.w) == nil
	destBase := make([][]float64, len(s.dests))
	for di := range s.dests {
		if di%32 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		destBase[di] = make([]float64, n)
		if slu.SolveIntoScratch(destBase[di], s.destDemand(sys.dt, di), sys.w) != nil {
			ok = false
		}
	}
	if ok {
		s.slu, s.uBase, s.destBase = slu, uBase, destBase
		s.invCols = make([]atomic.Pointer[linsolve.SparseColumn], n)
		s.recordBase(sr)
	}
	return nil
}

// destDemand writes destination di's right-hand side D_t — the demand
// of the rows whose pair ends at it — into dt and returns it.
func (s *Sweep) destDemand(dt []float64, di int) []float64 {
	dst := s.dests[di]
	for r, p := range s.pairs {
		dt[r] = 0
		if p.Dst == dst {
			dt[r] = s.demand[r]
		}
	}
	return dt
}
