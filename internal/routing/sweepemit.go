package routing

// Emission: the aggregate and per-destination solutions of a scenario
// become flows and arc loads, written flat into the caller's scratch.
// Two consumers read that form — the sweep's check (sweepcheck.go),
// directly, and materialize, which builds the public Realization from
// it. The engine records what emitDests produces on the empty scenario
// once; a low-rank scenario replays that record for every destination
// it provably cannot change, and each arc it touches reads its base
// load plus the change of every flow that moved. The cold path sums
// every flow from zero.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/tol"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// jagged is a list of int32 lists held as one arena and an offset per
// list, so an index over rows, destinations or arcs is two pointer-free
// allocations however many lists it has.
type jagged struct {
	off []int32 // list i is val[off[i]:off[i+1]]
	val []int32
}

func (j jagged) at(i int) []int32 { return j.val[j.off[i]:j.off[i+1]] }

// baseEmission is what emitDests produces on the empty scenario.
//
// Per destination, in emission order: the (tunnel, flow) list, and
// whether that list meets the destination's balance targets — so a
// replayed destination is balance-checked once per record, not once per
// scenario.
//
// Per arc: its base load, every flow crossing it summed in emission
// order, and how many flows cross it. Over the arcs: those with a
// positive base utilization, highest first, and those the base
// overloads, ascending — the check's verdict on every arc a scenario
// leaves alone.
//
// rowDest indexes the destinations whose base solution is non-zero on a
// universe row — the ones a change to that row can reach — and destRows,
// its transpose, the rows each destination's base solution is non-zero
// on, ascending: its base support.
//
// Over the base pairs of interest: those with a positive aggregate
// utilization, highest first, and those out of range, ascending — the
// range check's verdict on every row a scenario leaves alone.
type baseEmission struct {
	flowOff  []int32 // destination di's flows are [flowOff[di], flowOff[di+1])
	flowTun  []tunnels.ID
	flowVal  []float64
	balanced []bool
	arcLoad  []float64
	arcFlows []int32
	ranked   []int32 // arcs with positive base utilization, highest first
	over     []int32 // arcs whose base load is overloaded, ascending
	rowDest  jagged
	destRows jagged
	uRanked  []int32 // base pairs of interest with positive utilization, highest first
	uOut     []int32 // base pairs of interest out of range, ascending
}

// recordBase runs emitDests on the empty scenario sr holds — with no
// record yet, every destination is emitted afresh and every arc summed
// from zero — and stores the outcome as s.rec.
func (s *Sweep) recordBase(sr *sweepScratch) {
	if _, err := s.emitDests(failures.Scenario{}, sr, nil, nil); err != nil {
		s.slu = nil // no record, no low-rank path: serve cold
		return
	}
	rec := &baseEmission{
		flowOff:  append([]int32(nil), sr.flowOff...),
		flowTun:  append([]tunnels.ID(nil), sr.flowTun...),
		flowVal:  append([]float64(nil), sr.flowVal...),
		balanced: make([]bool, len(s.dests)),
		arcLoad:  append([]float64(nil), sr.arcLoad...),
		arcFlows: make([]int32, len(sr.arcLoad)),
	}
	for di := range s.dests {
		lo, hi := rec.flowOff[di], rec.flowOff[di+1]
		v, _, _ := s.imbalance(&sr.bal, di, rec.flowTun[lo:hi], rec.flowVal[lo:hi])
		rec.balanced[di] = v < 0
	}
	for _, tid := range rec.flowTun {
		for _, a := range s.tunArcs.at(int(tid)) {
			rec.arcFlows[a]++
		}
	}

	// The check's verdict on untouched arcs, in the check's own
	// arithmetic: the same comparison, the same division.
	util := make([]float64, len(rec.arcLoad))
	for a, load := range rec.arcLoad {
		c := s.arcCap[a]
		if overloaded(load, c) {
			rec.over = append(rec.over, int32(a))
		}
		if load > 0 && c > 0 {
			util[a] = load / c
			rec.ranked = append(rec.ranked, int32(a))
		}
	}
	slices.SortFunc(rec.ranked, func(a, b int32) int {
		if c := cmp.Compare(util[b], util[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	rec.rowDest.off = make([]int32, 1, s.n+1)
	for r := 0; r < s.n; r++ {
		for di := range s.dests {
			if s.destBase[di][r] != 0 {
				rec.rowDest.val = append(rec.rowDest.val, int32(di))
			}
		}
		rec.rowDest.off = append(rec.rowDest.off, int32(len(rec.rowDest.val)))
	}
	rec.destRows = jaggedOf(len(s.dests), func(add func(di int, r int32)) {
		// Rows descending: jaggedOf places each list's values back to
		// front, so every list comes out ascending.
		for r := s.n - 1; r >= 0; r-- {
			for _, di := range rec.rowDest.at(r) {
				add(int(di), int32(r))
			}
		}
	})

	// The range check's verdict on untouched rows, in its own
	// comparisons.
	rec.uRanked = make([]int32, 0, s.baseCount)
	for r, in := range s.baseInSet {
		if !in {
			continue
		}
		if u := s.uBase[r]; u < -tol.Util || u > 1+tol.Util {
			rec.uOut = append(rec.uOut, int32(r))
		}
		if s.uBase[r] > 0 {
			rec.uRanked = append(rec.uRanked, int32(r))
		}
	}
	slices.SortFunc(rec.uRanked, func(a, b int32) int {
		if c := cmp.Compare(s.uBase[b], s.uBase[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.rec = rec
}

// checkU range-checks the aggregate utilizations of the pairs of
// interest (Proposition 5) and, in the same walk, records the largest
// in sr.maxU (0 if none). The first error is the lowest-numbered row's,
// a pair verdict in sr (scratchVerdict).
// Dense — on the cold path — it walks every row. On the low-rank path
// (walk) it visits only the rows whose membership the scenario flips
// and the rows the aggregate correction upd writes (the nonzero rows of
// each inverse column with a non-zero multiplier). Every other pair of
// interest is a base one with its base utilization, so the record
// carries its verdict: the first such row out of range, and the first
// in the base ranking for the largest.
func (s *Sweep) checkU(sc failures.Scenario, sr *sweepScratch, upd *linsolve.Updated, walk bool) error {
	x := sr.sol
	bad, maxU, visits := -1, 0.0, 0
	visit := func(r int) {
		visits++
		u := x[r]
		out := u < -tol.Util || u > 1+tol.Util
		// A value in range and no larger than the largest so far
		// changes neither verdict, member or not.
		if !out && u <= maxU || !s.in(sr, r) {
			return
		}
		if out && (bad < 0 || r < bad) {
			bad = r
		}
		if u > maxU {
			maxU = u
		}
	}
	if !walk {
		for r := 0; r < s.n && bad < 0; r++ {
			visit(r)
		}
	} else {
		for _, r := range sr.flips {
			visit(r)
		}
		if upd != nil {
			for j, f := range sr.smwY[:upd.Rank()] {
				if f != 0 {
					for _, r := range upd.InverseRows(j) {
						visit(int(r))
					}
				}
			}
		}
		// A row neither flipped nor moved holds its base utilization.
		untouched := func(r int32) bool {
			return sr.flip[r] != sr.epoch && math.Float64bits(x[r]) == math.Float64bits(s.uBase[r])
		}
		for _, r := range s.rec.uOut {
			if untouched(r) {
				visit(int(r))
				break
			}
		}
		for _, r := range s.rec.uRanked {
			if untouched(r) {
				visit(int(r))
				break
			}
		}
	}
	sr.rowVisits += visits
	if bad >= 0 {
		sr.verdict = scratchVerdict{pairVerdict{p: s.pairs[bad], u: x[bad]}, sc}
		return &sr.verdict
	}
	sr.maxU = maxU
	return nil
}

// markAffected stamps the destinations the activated scenario can
// change: those whose base solution is non-zero on a marked row
// (changedRows' output: a dead positive-reservation tunnel, an LS or
// membership flip — a superset of the updated rows) or on a column of a
// row update. For every other destination t the update's Vᵀ·base_t is
// exactly zero, so the SMW correction returns base_t unchanged, and
// none of the rows carrying base_t lost a tunnel or its membership: the
// dense loop would reproduce the recorded emission bit for bit.
func (s *Sweep) markAffected(sr *sweepScratch, rows []int, ups []linsolve.RowUpdate) {
	ep := sr.epoch
	for _, r := range rows {
		for _, di := range s.rec.rowDest.at(r) {
			sr.destMark[di] = ep
		}
	}
	for _, up := range ups {
		for _, c := range up.Cols {
			for _, di := range s.rec.rowDest.at(c) {
				sr.destMark[di] = ep
			}
		}
	}
}

// emitDests writes the flat emission of the activated scenario into sr,
// destination by destination in node order: a destination a low-rank
// scenario cannot change replays the record and costs nothing, any
// other has its solution (destSolution) spread over each pair's live
// tunnels, row by row ascending (emitRow). Arc loads start from the
// record's: the arcs the previous emission touched go back to their
// base loads. On the low-rank path an affected destination walks only
// its base support merged with the rows its correction writes outside
// it — every other row has a zero solution now and at base, so it
// carries no flow and moves none — and its rows whose flows may differ
// from the base's add each flow's change to the arcs its tunnel crosses
// (moveRow); an arc no flow crosses any more reads exactly 0, and every
// other arc keeps its base load. Dense — on the cold path (lu set) and
// on an engine with no record — every row is walked, every arc is
// summed from zero, flow by flow in emission order, and every arc
// counts as touched.
func (s *Sweep) emitDests(sc failures.Scenario, sr *sweepScratch, upd *linsolve.Updated, lu *linsolve.SparseLU) (served, error) {
	dense := s.rec == nil || lu != nil
	k := 0
	if upd != nil {
		k = upd.Rank()
	}
	sv := served{smw: true, rank: k, evals: len(s.dests)}
	for _, a := range sr.changed {
		sr.arcLoad[a], sr.arcFlows[a] = s.baseLoad(a), -1
	}
	sr.changed = sr.changed[:0]
	if dense {
		for a := range sr.arcLoad {
			sr.arcLoad[a], sr.arcFlows[a] = 0, 0
			sr.changed = append(sr.changed, int32(a))
		}
	}
	sr.flowTun, sr.flowVal = sr.flowTun[:0], sr.flowVal[:0]
	for di, dst := range s.dests {
		sr.flowOff[di] = int32(len(sr.flowTun))
		if s.replayed(sr, di) {
			sv.replays++
			continue
		}
		xt, err := s.destSolution(sr, di, upd, lu)
		if err != nil {
			return served{}, fmt.Errorf("routing: destination %d system under %v: %w", dst, sc, err)
		}
		if dense {
			for r := 0; r < s.n; r++ {
				s.emitRow(sr, r, xt, nil)
			}
			sr.rowVisits += s.n
			continue
		}
		xb := s.destBase[di]
		base, extra := s.rec.destRows.at(di), s.moved(sr, di, upd)
		sr.rowVisits += len(base) + len(extra)
		for len(base) > 0 || len(extra) > 0 {
			var r int32
			if len(extra) == 0 || len(base) > 0 && base[0] < extra[0] {
				r, base = base[0], base[1:]
			} else {
				r, extra = extra[0], extra[1:]
			}
			s.emitRow(sr, int(r), xt, xb)
		}
	}
	sr.flowOff[len(s.dests)] = int32(len(sr.flowTun))
	if !dense {
		for _, a := range sr.changed {
			if sr.arcFlows[a] == 0 {
				sr.arcLoad[a] = 0
			}
		}
	}
	return sv, nil
}

// moved returns, ascending, the rows outside destination di's base
// support that its correction by upd writes: the nonzero
// rows of each inverse column whose multiplier in the correction
// destSolution just applied is non-zero, where the base solution is
// zero. Under PCF-TF the matrix is diagonal and the list is always
// empty.
func (s *Sweep) moved(sr *sweepScratch, di int, upd *linsolve.Updated) []int32 {
	extra := sr.extra[:0]
	if upd == nil {
		return extra
	}
	xb, st := s.destBase[di], sr.nextStamp()
	for j, f := range sr.smwY[:upd.Rank()] {
		if f == 0 {
			continue
		}
		for _, r := range upd.InverseRows(j) {
			if xb[r] == 0 && sr.stamp[r] != st {
				sr.stamp[r] = st
				extra = append(extra, r)
			}
		}
	}
	slices.Sort(extra)
	sr.extra = extra
	return extra
}

// emitRow emits universe row r's flows for the destination being
// emitted, whose solution is xt under the activated scenario: one flow
// per live tunnel of a pair of interest, xt[r] times its reservation,
// where both exceed Carry. With the base solution xb (the low-rank
// path), a row that carries flow now or at base and is marked (a dead
// reserved tunnel, a membership or LS flip) or whose solution moved
// first adds its flows' changes to the arc loads (moveRow); with none
// (dense) each flow is added to the arcs it crosses.
func (s *Sweep) emitRow(sr *sweepScratch, r int, xt, xb []float64) {
	ep := sr.epoch
	dense := xb == nil
	if !dense && (xt[r] > tol.Carry || xb[r] > tol.Carry) &&
		(sr.rowMark[r] == ep || math.Float64bits(xt[r]) != math.Float64bits(xb[r])) {
		s.moveRow(sr, r, xt[r], xb[r])
	}
	if !s.in(sr, r) || xt[r] <= tol.Carry {
		return
	}
	for _, tid := range s.pairTun[r] {
		if sr.deadTun[tid] == ep {
			continue
		}
		rr := xt[r] * s.tunRes[tid]
		if rr <= tol.Carry {
			continue
		}
		sr.flowTun = append(sr.flowTun, tid)
		sr.flowVal = append(sr.flowVal, rr)
		if dense {
			for _, a := range s.tunArcs.at(int(tid)) {
				sr.arcLoad[a] += rr
			}
		}
	}
}

// moveRow adds to the arc loads the change in universe row r's flows
// for the destination being emitted, whose solution is x under the
// activated scenario and xb under the base: per tunnel of the pair, its
// flow now — x times its reservation, on a live tunnel of a pair in the
// set, above Carry, as the emission writes it — less its flow at base,
// as the record holds it. Each arc the change lands on is touched, and
// its flow count goes up by one for a flow that appears and down by one
// for a flow that leaves.
func (s *Sweep) moveRow(sr *sweepScratch, r int, x, xb float64) {
	ep := sr.epoch
	now, before := s.in(sr, r) && x > tol.Carry, s.baseInSet[r] && xb > tol.Carry
	for _, tid := range s.pairTun[r] {
		res, d, flows := s.tunRes[tid], 0.0, int32(0)
		if f := x * res; now && sr.deadTun[tid] != ep && f > tol.Carry {
			d, flows = f, 1
		}
		if f := xb * res; before && f > tol.Carry {
			d, flows = d-f, flows-1
		}
		if d == 0 {
			continue
		}
		for _, a := range s.tunArcs.at(int(tid)) {
			if sr.arcFlows[a] < 0 {
				sr.arcFlows[a] = s.rec.arcFlows[a]
				sr.changed = append(sr.changed, a)
			}
			sr.arcLoad[a] += d
			sr.arcFlows[a] += flows
		}
	}
}

// destSolution returns destination di's solution under the activated
// scenario: solved against the scenario's own factors lu on the cold
// path, else the base solution corrected by upd (nil: it stands).
func (s *Sweep) destSolution(sr *sweepScratch, di int, upd *linsolve.Updated, lu *linsolve.SparseLU) ([]float64, error) {
	switch {
	case lu != nil:
		return sr.xt, lu.SolveIntoScratch(sr.xt, s.destDemand(sr.sys.dt, di), sr.sys.w)
	case upd != nil:
		k := upd.Rank()
		return sr.xt, upd.CorrectIntoScratch(sr.xt, s.destBase[di], sr.smwZ[:k], sr.smwY[:k])
	}
	return s.destBase[di], nil
}

// baseLoad is arc a's load on the empty scenario: the record's, or zero
// while there is none.
func (s *Sweep) baseLoad(a int32) float64 {
	if s.rec != nil {
		return s.rec.arcLoad[a]
	}
	return 0
}

// destFlows returns destination di's flows in the emission sr holds:
// the engine's record if the destination was replayed (its scratch
// range is empty and unmarked), the scratch arena otherwise.
func (s *Sweep) destFlows(sr *sweepScratch, di int) ([]tunnels.ID, []float64) {
	if s.replayed(sr, di) {
		lo, hi := s.rec.flowOff[di], s.rec.flowOff[di+1]
		return s.rec.flowTun[lo:hi], s.rec.flowVal[lo:hi]
	}
	lo, hi := sr.flowOff[di], sr.flowOff[di+1]
	return sr.flowTun[lo:hi], sr.flowVal[lo:hi]
}

// replayed reports whether the emission sr holds replayed destination
// di from the record.
func (s *Sweep) replayed(sr *sweepScratch, di int) bool {
	return s.rec != nil && sr.destMark[di] != sr.epoch
}

// materialize builds the public Realization from the flat emission sr
// holds; nothing in it aliases the scratch.
func (s *Sweep) materialize(sc failures.Scenario, sr *sweepScratch) *Realization {
	res := &Realization{
		Scenario: sc,
		Pairs:    make([]topology.Pair, 0, sr.inCount),
		U:        make([]float64, 0, sr.inCount),
		TunnelTo: make(map[topology.NodeID]map[tunnels.ID]float64, len(s.dests)),
		ArcLoad:  make([]float64, len(sr.arcLoad)),
	}
	copy(res.ArcLoad, sr.arcLoad)
	for r := 0; r < s.n; r++ {
		if s.in(sr, r) {
			res.Pairs = append(res.Pairs, s.pairs[r])
			res.U = append(res.U, sr.sol[r])
		}
	}
	for di, dst := range s.dests {
		tuns, vals := s.destFlows(sr, di)
		flows := make(map[tunnels.ID]float64, len(tuns))
		for i, tid := range tuns {
			flows[tid] = vals[i]
		}
		res.TunnelTo[dst] = flows
	}
	return res
}
