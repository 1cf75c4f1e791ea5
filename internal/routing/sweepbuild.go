package routing

// The engine build: universe closure → plan indexes → base rows →
// factor + base solves → base emission record. Everything here runs
// once per plan.

import (
	"context"
	"fmt"
	"hash/maphash"
	"sync/atomic"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
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
	s := &Sweep{
		plan:     plan,
		index:    map[topology.Pair]int{},
		numTun:   plan.Instance.Tunnels.Len(),
		linkTuns: map[topology.LinkID][]tunnels.ID{},
		keySeed:  maphash.MakeSeed(),
	}
	if fs := plan.Instance.Failures; fs != nil {
		s.batchCap, _ = fs.NumScenarios()
	}
	if err := s.build(ctx); err != nil {
		return nil, fmt.Errorf("routing: sweep precompute canceled: %w", err)
	}
	s.pool.New = func() any { return s.newScratch() }
	s.baseTime = time.Since(start)
	return s, nil
}

// build runs the stages in order; its only error is ctx's.
func (s *Sweep) build(ctx context.Context) error {
	// Positive-reservation LSs, in instance order (the order every
	// cold-path list is built in, so recomputed sums are bit-equal).
	var qs []core.LogicalSequence
	for _, q := range s.plan.Instance.LSs {
		if s.plan.LSRes[q.ID] > 0 {
			qs = append(qs, q)
		}
	}
	// Listed once: the traffic matrix is dense, so each listing scans
	// every node pair.
	demandPairs := s.plan.Instance.DemandPairs()
	s.closeUniverse(qs, demandPairs)
	if err := ctx.Err(); err != nil {
		return err
	}
	s.indexPlan(qs, demandPairs)
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
	in := s.plan.Instance
	lsByPair := map[topology.Pair][]int{}
	for i, q := range qs {
		lsByPair[q.Pair] = append(lsByPair[q.Pair], i)
	}
	inU := map[topology.Pair]bool{}
	var queue []topology.Pair
	add := func(p topology.Pair) {
		if !inU[p] {
			inU[p] = true
			queue = append(queue, p)
		}
	}
	for _, p := range demandPairs {
		if s.plan.ScaledDemand(p) > 1e-12 {
			add(p)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, qi := range lsByPair[p] {
			for _, seg := range qs[qi].Segments() {
				add(seg)
			}
		}
	}
	for a := 0; a < in.Graph.NumNodes(); a++ {
		for b := 0; b < in.Graph.NumNodes(); b++ {
			p := topology.Pair{Src: topology.NodeID(a), Dst: topology.NodeID(b)}
			if inU[p] {
				s.index[p] = len(s.pairs)
				s.pairs = append(s.pairs, p)
			}
		}
	}
	s.n = len(s.pairs)
}

// indexPlan translates the plan into universe-row coordinates: tunnels
// per row and per link, LS entries, the demand vector with its seed
// rows and destinations, and Check's per-destination balance targets.
func (s *Sweep) indexPlan(qs []core.LogicalSequence, demandPairs []topology.Pair) {
	in, plan, n := s.plan.Instance, s.plan, s.n

	// Tunnel indexes per universe row, and the link -> tunnels map used
	// to find tunnels a failed link kills.
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
			for _, l := range in.Tunnels.Tunnel(tid).Path.Links() {
				s.linkTuns[l] = append(s.linkTuns[l], tid)
			}
		}
	}

	s.localLS = make([][]int, n)
	s.throughLS = make([][]int, n)
	for _, q := range qs {
		e := sweepLS{pairRow: -1, res: plan.LSRes[q.ID], cond: q.Cond, baseActive: q.Cond.Holds(failures.Scenario{})}
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
		if plan.ScaledDemand(p) > 1e-12 {
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

// buildBaseRows builds the no-failure reservation matrix by running the
// scenario path's own row routine on the empty scenario, so a row no
// scenario changes recomputes to bit-identical coefficients and never
// produces a spurious delta. Pairs outside the no-failure set get
// identity rows: they carry no demand and no in-set row references
// their column, so the in-set block solves exactly as the cold path's
// smaller system. It leaves the empty scenario activated in sr and
// reports whether every in-set pair has a live reservation; if not, the
// engine stays cold-only.
func (s *Sweep) buildBaseRows(sr *sweepScratch) bool {
	s.activate(failures.Scenario{}, sr)
	s.baseInSet = make([]bool, s.n)
	s.baseRows = make([][]linsolve.SparseEntry, s.n)
	diagOK := true
	for r := range s.baseRows {
		s.baseInSet[r] = sr.inSet[r] == sr.epoch
		if diag := s.rowCoeffs(sr, r); s.baseInSet[r] && diag <= 1e-12 {
			diagOK = false
		}
		row := make([]linsolve.SparseEntry, 0, len(sr.touched))
		for _, c := range sr.touched {
			if sr.rowVals[c] != 0 {
				row = append(row, linsolve.SparseEntry{Col: c, Val: sr.rowVals[c]})
			}
		}
		s.baseRows[r] = row
	}
	return diagOK
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
	w := make([]float64, n)
	uBase := make([]float64, n)
	ok := slu.SolveIntoScratch(uBase, s.demand, w) == nil
	destBase := make([][]float64, len(s.dests))
	dt := make([]float64, n)
	for di, dst := range s.dests {
		if di%32 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for r, p := range s.pairs {
			dt[r] = 0
			if p.Dst == dst {
				dt[r] = s.demand[r]
			}
		}
		destBase[di] = make([]float64, n)
		if slu.SolveIntoScratch(destBase[di], dt, w) != nil {
			ok = false
		}
	}
	if ok {
		s.slu, s.uBase, s.destBase = slu, uBase, destBase
		s.recordBase(sr)
	}
	return nil
}
