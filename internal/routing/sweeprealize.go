package routing

// The scenario hot path: mark rows → row deltas + signature → corrector
// lookup → correct + residual guard → emit flows. Every stage reads the
// shared Sweep and writes only the caller's scratch.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// sweepScratch is per-worker mutable state, so the read-only Sweep can
// be shared across goroutines without locks.
type sweepScratch struct {
	epoch    int32
	colEpoch int32   // separate counter: colMark resets per candidate row
	inSet    []int32 // epoch stamps per universe row
	rowMark  []int32
	colMark  []int32
	deadTun  []int32 // epoch stamps per tunnel ID
	lsActive []bool
	rowVals  []float64
	rows     []int
	touched  []int // columns of the row rowCoeffs last built, ascending
	x, xt    []float64
	// k-sized SMW correction scratch (grown on demand), so shared
	// batched correctors stay read-only across workers.
	smwZ, smwY []float64
	// Per-destination tunnel-flow accumulation: dense per-tunnel sums
	// with epoch marks, so the output map is built presized instead of
	// grown entry by entry.
	tunEpoch int32
	tunMark  []int32
	tunFlow  []float64
	tunTouch []tunnels.ID
}

func (s *Sweep) newScratch() *sweepScratch {
	return &sweepScratch{
		inSet:    make([]int32, s.n),
		rowMark:  make([]int32, s.n),
		colMark:  make([]int32, s.n),
		deadTun:  make([]int32, s.numTun),
		lsActive: make([]bool, len(s.ls)),
		rowVals:  make([]float64, s.n),
		rows:     make([]int, 0, s.n),
		touched:  make([]int, 0, 16),
		x:        make([]float64, s.n),
		xt:       make([]float64, s.n),
		tunMark:  make([]int32, s.numTun),
		tunFlow:  make([]float64, s.numTun),
		tunTouch: make([]tunnels.ID, 0, 16),
	}
}

// realize serves one scenario and reports how.
func (s *Sweep) realize(sc failures.Scenario, sr *sweepScratch) (*Realization, served, error) {
	if s.n == 0 {
		return s.emitFlows(sc, sr, nil, nil, 0)
	}
	inCount := s.activate(sc, sr)
	ups, upScale, err := s.rowUpdates(sc, sr, s.changedRows(sr))
	if err != nil {
		return nil, served{}, err
	}
	k := len(ups)
	if s.slu == nil || 2*k > s.n {
		return s.cold(sc)
	}
	if k == 0 {
		return s.emitFlows(sc, sr, s.uBase, nil, inCount)
	}
	upd, hit := s.corrector(ups)
	if upd == nil {
		return s.cold(sc)
	}
	if cap(sr.smwZ) < k {
		sr.smwZ = make([]float64, k)
		sr.smwY = make([]float64, k)
	}
	if err := upd.CorrectIntoScratch(sr.x, s.uBase, sr.smwZ[:k], sr.smwY[:k]); err != nil {
		return nil, served{}, fmt.Errorf("routing: aggregate system under %v: %w", sc, err)
	}
	if !s.residualOK(sr.x, ups, upScale) {
		return s.cold(sc)
	}
	r, sv, err := s.emitFlows(sc, sr, sr.x, upd, inCount)
	sv.batchHit = hit
	return r, sv, err
}

// cold is the one fallback: a from-scratch Realize of the scenario.
func (s *Sweep) cold(sc failures.Scenario) (*Realization, served, error) {
	r, err := Realize(s.plan, sc)
	return r, served{}, err
}

// activate stamps the scenario's state into the scratch under a fresh
// epoch — dead tunnels, LS activity, and the pairs of interest (closure
// of the seeds through the active LSs) — marking along the way the rows
// whose coefficients a dead tunnel or an LS activity flip changes. It
// returns the number of pairs of interest.
func (s *Sweep) activate(sc failures.Scenario, sr *sweepScratch) int {
	sr.epoch++
	ep := sr.epoch
	for l, dead := range sc.Dead {
		if !dead {
			continue
		}
		for _, tid := range s.linkTuns[l] {
			if sr.deadTun[tid] == ep {
				continue
			}
			sr.deadTun[tid] = ep
			if r := s.tunRow[tid]; r >= 0 && s.plan.TunnelRes[tid] > 0 {
				sr.rowMark[r] = ep
			}
		}
	}
	for qi := range s.ls {
		e := &s.ls[qi]
		act := e.cond.Holds(sc)
		sr.lsActive[qi] = act
		if act == e.baseActive {
			continue
		}
		if e.pairRow >= 0 {
			sr.rowMark[e.pairRow] = ep
		}
		for _, r := range e.segRows {
			sr.rowMark[r] = ep
		}
	}
	inCount := 0
	queue := sr.rows[:0]
	for _, r := range s.seeds {
		if sr.inSet[r] != ep {
			sr.inSet[r] = ep
			inCount++
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		r := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, qi := range s.localLS[r] {
			if !sr.lsActive[qi] {
				continue
			}
			for _, sg := range s.ls[qi].segRows {
				if sr.inSet[sg] != ep {
					sr.inSet[sg] = ep
					inCount++
					queue = append(queue, sg)
				}
			}
		}
	}
	return inCount
}

// changedRows completes the marking with the rows a membership change
// touches and returns every marked row, ascending.
func (s *Sweep) changedRows(sr *sweepScratch) []int {
	ep := sr.epoch
	for r := 0; r < s.n; r++ {
		if (sr.inSet[r] == ep) == s.baseInSet[r] {
			continue
		}
		sr.rowMark[r] = ep
		// Entries of LSs local to r sit in r's column of their segment
		// rows, gated on r's membership: those rows change too.
		for _, qi := range s.localLS[r] {
			e := &s.ls[qi]
			if !sr.lsActive[qi] && !e.baseActive {
				continue
			}
			for _, sg := range e.segRows {
				sr.rowMark[sg] = ep
			}
		}
	}
	rows := sr.rows[:0]
	for r := 0; r < s.n; r++ {
		if sr.rowMark[r] == ep {
			rows = append(rows, r)
		}
	}
	return rows
}

// rowCoeffs builds row r of the reservation matrix under the activated
// scenario into sr.rowVals, listing its columns ascending in
// sr.touched, and returns the row's live reservation (0 for a pair
// outside the set, whose row is the identity). The summation order is
// fixed — live tunnels, active local LSs, then through-LSs in index
// order — so equal inputs always give bit-equal coefficients.
func (s *Sweep) rowCoeffs(sr *sweepScratch, r int) float64 {
	ep := sr.epoch
	sr.colEpoch++
	ce := sr.colEpoch
	sr.touched = sr.touched[:0]
	touch := func(c int, v float64) {
		if sr.colMark[c] != ce {
			sr.colMark[c] = ce
			sr.rowVals[c] = 0
			sr.touched = append(sr.touched, c)
		}
		sr.rowVals[c] += v
	}
	if sr.inSet[r] != ep {
		touch(r, 1)
		return 0
	}
	diag := 0.0
	for _, tid := range s.pairTun[r] {
		if sr.deadTun[tid] != ep {
			diag += s.plan.TunnelRes[tid]
		}
	}
	for _, qi := range s.localLS[r] {
		if sr.lsActive[qi] {
			diag += s.ls[qi].res
		}
	}
	touch(r, diag)
	for _, qi := range s.throughLS[r] {
		e := &s.ls[qi]
		if sr.lsActive[qi] && e.pairRow >= 0 && sr.inSet[e.pairRow] == ep {
			touch(e.pairRow, -e.res)
		}
	}
	sort.Ints(sr.touched)
	return diag
}

// rowUpdates turns the candidate rows into the scenario's sparse row
// deltas against the base matrix, with the per-row scale the residual
// guard measures against. Rows that recompute to their base values
// drop out.
func (s *Sweep) rowUpdates(sc failures.Scenario, sr *sweepScratch, rows []int) ([]linsolve.RowUpdate, []float64, error) {
	var ups []linsolve.RowUpdate
	var upScale []float64
	for _, r := range rows {
		diag := s.rowCoeffs(sr, r)
		if diag <= 1e-12 && sr.inSet[r] == sr.epoch {
			return nil, nil, fmt.Errorf("routing: pair %v of interest has no live reservation under %v", s.pairs[r], sc)
		}
		// Merge the row's columns with the base row's entries, ascending
		// — every other column is zero in both.
		var cols []int
		var vals []float64
		emit := func(c int, d float64) {
			if d != 0 {
				cols = append(cols, c)
				vals = append(vals, d)
			}
		}
		base := s.baseRows[r]
		bi := 0
		for _, c := range sr.touched {
			for ; bi < len(base) && base[bi].Col < c; bi++ {
				emit(base[bi].Col, -base[bi].Val)
			}
			b := 0.0
			if bi < len(base) && base[bi].Col == c {
				b = base[bi].Val
				bi++
			}
			emit(c, sr.rowVals[c]-b)
		}
		for ; bi < len(base); bi++ {
			emit(base[bi].Col, -base[bi].Val)
		}
		if len(cols) > 0 {
			ups = append(ups, linsolve.RowUpdate{Row: r, Cols: cols, Vals: vals})
			upScale = append(upScale, 1+diag)
		}
	}
	return ups, upScale, nil
}

// upsKey serializes a scenario's row updates into the byte signature
// that batches SMW corrections: scenarios whose failed links produce
// the same rows, columns, and bit-identical delta values share one
// capacitance factorization. The signature is built from dead links
// only, and deliberately so: degradation (Scenario.Degraded) scales
// capacities but never touches the reservation matrix, so scenarios
// differing only in degraded links share the same linear system — and
// the same batch entry. Capacity effects apply downstream, where MLUOf
// and the overload checks divide by ScenarioCapacity.
func upsKey(ups []linsolve.RowUpdate) string {
	sz := 0
	for _, up := range ups {
		sz += 2*binary.MaxVarintLen64 + len(up.Cols)*2*binary.MaxVarintLen64
	}
	b := make([]byte, 0, sz)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		b = append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	for _, up := range ups {
		put(uint64(up.Row))
		put(uint64(len(up.Cols)))
		for t, c := range up.Cols {
			put(uint64(c))
			put(math.Float64bits(up.Vals[t]))
		}
	}
	return string(b)
}

// corrector returns the SMW corrector for a set of row updates and
// whether it came out of the signature cache; nil sends the scenario
// cold. Scenarios with the same signature share one capacitance
// factorization, and a failed construction is memoized like a
// successful one. Racing workers may each build an entry once; the
// build is deterministic, so whichever copy wins the store is
// interchangeable.
func (s *Sweep) corrector(ups []linsolve.RowUpdate) (*linsolve.Updated, bool) {
	if hook := SweepUpdateFault; hook != nil && hook(ups) != nil {
		return nil, false
	}
	key := upsKey(ups)
	if v, ok := s.batches.Load(key); ok {
		return v.(*batchEntry).upd, true
	}
	be := &batchEntry{}
	cols := make([][]float64, len(ups))
	for j, up := range ups {
		if cols[j], be.err = s.invCol(up.Row); be.err != nil {
			break
		}
	}
	if be.err == nil {
		be.upd, be.err = linsolve.NewUpdated(s.n, ups, cols)
	}
	v, _ := s.batches.LoadOrStore(key, be)
	return v.(*batchEntry).upd, false
}

// invCol returns column r of the base inverse, solved on first use and
// memoized, so only the rows scenarios actually touch are ever solved.
func (s *Sweep) invCol(r int) ([]float64, error) {
	if v, ok := s.invCache.Load(r); ok {
		return v.([]float64), nil
	}
	e := make([]float64, s.n)
	w := make([]float64, s.n)
	col := make([]float64, s.n)
	e[r] = 1
	if err := s.slu.SolveIntoScratch(col, e, w); err != nil {
		return nil, err
	}
	v, _ := s.invCache.LoadOrStore(r, col)
	return v.([]float64), nil
}

// residualOK is the guard on the corrected aggregate solution: every
// updated row of the scenario's system must reproduce its demand to
// 1e-6 of the row's scale. If the rank-k identity lost accuracy, the
// caller refactorizes cold rather than return drift.
func (s *Sweep) residualOK(x []float64, ups []linsolve.RowUpdate, upScale []float64) bool {
	for j, up := range ups {
		acc := -s.demand[up.Row]
		for _, e := range s.baseRows[up.Row] {
			acc += e.Val * x[e.Col]
		}
		for t, c := range up.Cols {
			acc += up.Vals[t] * x[c]
		}
		if math.Abs(acc) > 1e-6*upScale[j] {
			return false
		}
	}
	return true
}

// emitFlows turns the aggregate solution x into the Realization: the
// utilizations of the pairs of interest (range-checked, Proposition 5)
// and, per destination, the base solution corrected by the same upd
// (nil: the base solution stands) spread over each pair's live tunnels.
func (s *Sweep) emitFlows(sc failures.Scenario, sr *sweepScratch, x []float64, upd *linsolve.Updated, inCount int) (*Realization, served, error) {
	in := s.plan.Instance
	ep := sr.epoch
	k := 0
	if upd != nil {
		k = upd.Rank()
	}
	res := &Realization{
		Scenario: sc,
		Pairs:    make([]topology.Pair, 0, inCount),
		U:        make([]float64, 0, inCount),
		TunnelTo: map[topology.NodeID]map[tunnels.ID]float64{},
		ArcLoad:  make([]float64, in.Graph.NumArcs()),
	}
	for r := 0; r < s.n; r++ {
		if sr.inSet[r] != ep {
			continue
		}
		if x[r] < -1e-7 || x[r] > 1+1e-7 {
			return nil, served{}, fmt.Errorf("routing: U[%v] = %g outside [0,1] under %v (Proposition 5 violated — plan not feasible for this scenario)",
				s.pairs[r], x[r], sc)
		}
		res.Pairs = append(res.Pairs, s.pairs[r])
		res.U = append(res.U, x[r])
	}
	for di, dst := range s.dests {
		xt := s.destBase[di]
		if upd != nil {
			if err := upd.CorrectIntoScratch(sr.xt, xt, sr.smwZ[:k], sr.smwY[:k]); err != nil {
				return nil, served{}, fmt.Errorf("routing: destination %d system under %v: %w", dst, sc, err)
			}
			xt = sr.xt
		}
		sr.tunEpoch++
		tep := sr.tunEpoch
		touched := sr.tunTouch[:0]
		for r := 0; r < s.n; r++ {
			if sr.inSet[r] != ep || xt[r] <= 1e-12 {
				continue
			}
			for _, tid := range s.pairTun[r] {
				if sr.deadTun[tid] == ep {
					continue
				}
				rr := xt[r] * s.plan.TunnelRes[tid]
				if rr <= 1e-12 {
					continue
				}
				if sr.tunMark[tid] != tep {
					sr.tunMark[tid] = tep
					sr.tunFlow[tid] = 0
					touched = append(touched, tid)
				}
				sr.tunFlow[tid] += rr
				for _, a := range in.Tunnels.Tunnel(tid).Path.Arcs {
					res.ArcLoad[a] += rr
				}
			}
		}
		flows := make(map[tunnels.ID]float64, len(touched))
		for _, tid := range touched {
			flows[tid] = sr.tunFlow[tid]
		}
		sr.tunTouch = touched
		res.TunnelTo[dst] = flows
	}
	return res, served{smw: true, rank: k}, nil
}
