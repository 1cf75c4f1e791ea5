package routing

// Emission: the aggregate and per-destination solutions of a scenario
// become flows and arc loads, written flat into the caller's scratch.
// Two consumers read that form — the sweep's check (sweepcheck.go),
// directly, and materialize, which builds the public Realization from
// it. The engine records what emitDests produces on the empty scenario
// once; a scenario replays that record for every destination it
// provably cannot change. An exact emission re-sums the arcs the
// destinations it does change load, in the record or afresh; a
// screened one adds to each arc's base load the change of every flow
// that moved, and the check bounds the round-off that costs
// (screenBound).

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

// baseEmission is what emitDests produces on the empty scenario, in the
// two shapes a scenario reads it in.
//
// Per destination, in emission order: the (tunnel, flow) list, and
// whether that list meets the destination's balance targets — so a
// replayed destination is balance-checked once per record, not once per
// scenario.
//
// Per arc, in emission order: every addition the emission makes to the
// arc's load, as (destination, value), and the arc's load after each —
// the last is its base load. Re-summing an arc merges these with a
// scenario's fresh additions in destination order, which performs the
// floating-point operations the dense loop would, in the order it
// would, so arc loads come out bit-identical; up to the first addition
// the scenario changes, the running load is the record's. Over the
// arcs: those with a positive base utilization, highest first, and
// those the base overloads, ascending — the check's verdict on every
// arc a scenario leaves alone. And per destination, its runs: on each
// arc it loads, where among the arc's additions its own lie.
//
// rowDest indexes the destinations whose base solution is non-zero on a
// universe row — the ones a change to that row can reach.
type baseEmission struct {
	flowOff  []int32 // destination di's flows are [flowOff[di], flowOff[di+1])
	flowTun  []tunnels.ID
	flowVal  []float64
	balanced []bool
	arcOff   []int32  // arc a's additions are arcAdds[arcOff[a]:arcOff[a+1]]
	arcAdds  []arcAdd // grouped by arc, emission order within each
	runOff   []int32  // destination di's runs are runs[runOff[di]:runOff[di+1]]
	runs     []arcRun
	ranked   []int32 // arcs with positive base utilization, highest first
	over     []int32 // arcs whose base load is overloaded, ascending
	rowDest  jagged
}

// arcAdd is one recorded addition to an arc's load: the destination
// whose flow made it, the flow, and the arc's load after it.
type arcAdd struct {
	dest      int32
	val, load float64
}

// arcRun is one destination's additions to one arc, arcAdds[lo:hi] —
// contiguous, since an arc's additions are in destination order.
type arcRun struct{ arc, lo, hi int32 }

// recordBase runs emitDests on the empty scenario sr holds — with no
// record yet, every destination is emitted afresh — and stores the
// outcome as s.rec. Each tunnel belongs to one pair, so a destination's
// flow list names it at most once and its arc additions are exactly
// the list expanded along each tunnel's path.
func (s *Sweep) recordBase(sr *sweepScratch) {
	if _, err := s.emitDests(failures.Scenario{}, sr, nil, nil, false); err != nil {
		s.slu = nil // no record, no low-rank path: serve cold
		return
	}
	ts := s.plan.Instance.Tunnels
	numArcs := len(sr.arcLoad)
	rec := &baseEmission{
		flowOff:  append([]int32(nil), sr.flowOff...),
		flowTun:  append([]tunnels.ID(nil), sr.flowTun...),
		flowVal:  append([]float64(nil), sr.flowVal...),
		balanced: make([]bool, len(s.dests)),
	}
	for di := range s.dests {
		lo, hi := rec.flowOff[di], rec.flowOff[di+1]
		v, _, _ := s.imbalance(&sr.bal, di, rec.flowTun[lo:hi], rec.flowVal[lo:hi])
		rec.balanced[di] = v < 0
	}

	// Group the additions by arc, stably: count, then place in emission
	// order. Placing destination by destination also lays out each
	// destination's runs: the first addition to an arc since the
	// destination began opens one.
	off := make([]int32, numArcs+1)
	for _, tid := range rec.flowTun {
		for _, a := range ts.Tunnel(tid).Path.Arcs {
			off[a+1]++
		}
	}
	for a := 0; a < numArcs; a++ {
		off[a+1] += off[a]
	}
	rec.arcOff, rec.arcAdds = off, make([]arcAdd, off[numArcs])
	rec.runOff = make([]int32, 1, len(s.dests)+1)
	next := append([]int32(nil), off[:numArcs]...)
	lastRun := make([]int32, numArcs) // arc -> its latest run, -1 before any
	for a := range lastRun {
		lastRun[a] = -1
	}
	clear(sr.arcLoad)
	for di := range s.dests {
		for i := rec.flowOff[di]; i < rec.flowOff[di+1]; i++ {
			for _, a := range ts.Tunnel(rec.flowTun[i]).Path.Arcs {
				if lastRun[a] < rec.runOff[di] {
					lastRun[a] = int32(len(rec.runs))
					rec.runs = append(rec.runs, arcRun{arc: int32(a), lo: next[a]})
				}
				sr.arcLoad[a] += rec.flowVal[i]
				rec.arcAdds[next[a]] = arcAdd{dest: int32(di), val: rec.flowVal[i], load: sr.arcLoad[a]}
				next[a]++
				rec.runs[lastRun[a]].hi = next[a]
			}
		}
		rec.runOff = append(rec.runOff, int32(len(rec.runs)))
	}

	// The check's verdict on untouched arcs, in the check's own
	// arithmetic: the same comparison, the same division.
	util := make([]float64, numArcs)
	for a, load := range sr.arcLoad {
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
	s.rec = rec
}

// checkU range-checks the aggregate utilizations of the pairs of
// interest (Proposition 5).
func (s *Sweep) checkU(sc failures.Scenario, sr *sweepScratch) error {
	ep, x := sr.epoch, sr.sol
	for r := 0; r < s.n; r++ {
		if sr.inSet[r] == ep && (x[r] < -tol.PairUtil || x[r] > 1+tol.PairUtil) {
			return unrealizable{utilizationError{s.pairs[r], x[r], sc}}
		}
	}
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
// destination by destination in node order: an unaffected destination
// replays the engine's record and costs nothing, any other has its
// solution (destSolution) spread over each pair's live tunnels. Arc
// loads start from the record's: the arcs the previous emission
// touched go back to their base loads. Then, exact, only the arcs an
// affected destination loads — in the record or afresh — are
// re-summed, from the first addition that changes (resumeArc,
// catchUp). Each affected destination passes over its recorded runs
// before it emits, so every addition a re-sum's cursor walks is a
// replayed destination's; with every destination affected, as on the
// cold path, each re-sum starts from zero. Screened (screen set: the
// low-rank path, which has a record), an affected destination's rows
// whose flows may differ from the base's add each flow's change to the
// arcs its tunnel crosses (moveRow), and every other arc keeps its base
// load.
func (s *Sweep) emitDests(sc failures.Scenario, sr *sweepScratch, upd *linsolve.Updated, lu *linsolve.SparseLU, screen bool) (served, error) {
	in := s.plan.Instance
	ep := sr.epoch
	rec := s.rec
	k := 0
	if upd != nil {
		k = upd.Rank()
	}
	sv := served{smw: true, rank: k, evals: len(s.dests)}
	for _, a := range sr.changed {
		sr.arcLoad[a], sr.arcCur[a] = s.baseLoad(a), -1
	}
	sr.changed, sr.screened = sr.changed[:0], screen
	sr.flowTun, sr.flowVal = sr.flowTun[:0], sr.flowVal[:0]
	// Until an affected destination has been emitted, every re-summed
	// arc was resumed at the current one and has nothing to catch up.
	behind := false
	for di, dst := range s.dests {
		sr.flowOff[di] = int32(len(sr.flowTun))
		if rec != nil {
			if sr.destMark[di] != ep {
				sv.replays++
				continue
			}
			// Exact, the arcs the record has this destination load lose
			// that load, whatever it loads now.
			if !screen {
				for _, run := range rec.runs[rec.runOff[di]:rec.runOff[di+1]] {
					s.resumeArc(sr, run)
				}
			}
		}
		xt, err := s.destSolution(sr, di, upd, lu)
		if err != nil {
			return served{}, fmt.Errorf("routing: destination %d system under %v: %w", dst, sc, err)
		}
		var xb []float64
		if screen {
			xb = s.destBase[di]
		}
		for r := 0; r < s.n; r++ {
			// A row keeps its base flows unless it carries some, now or
			// at base, and is marked (a dead reserved tunnel, a
			// membership or LS flip) or its solution moved.
			if screen && (xt[r] > tol.Carry || xb[r] > tol.Carry) &&
				(sr.rowMark[r] == ep || math.Float64bits(xt[r]) != math.Float64bits(xb[r])) {
				s.moveRow(sr, r, xt[r], xb[r])
			}
			if sr.inSet[r] != ep || xt[r] <= tol.Carry {
				continue
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
				if screen {
					continue
				}
				for _, a := range in.Tunnels.Tunnel(tid).Path.Arcs {
					if sr.arcCur[a] < 0 {
						s.resumeArc(sr, s.runAt(a, di))
					} else if behind {
						s.catchUp(sr, int32(a), di)
					}
					sr.arcLoad[a] += rr
				}
			}
		}
		behind = true
	}
	sr.flowOff[len(s.dests)] = int32(len(sr.flowTun))
	if !screen {
		for _, a := range sr.changed {
			s.catchUp(sr, a, len(s.dests))
		}
	}
	return sv, nil
}

// moveRow adds to the screened arc loads the change in universe row r's
// flows for the destination being emitted, whose solution is x under
// the activated scenario and xb under the base: per tunnel of the pair,
// its flow now — x times its reservation, on a live tunnel of a pair
// in the set, above Carry, as the emission writes it — less its flow at
// base, as the record holds it. The change is one rounding, and each
// arc it lands on counts it in arcCur.
func (s *Sweep) moveRow(sr *sweepScratch, r int, x, xb float64) {
	ep := sr.epoch
	now, before := sr.inSet[r] == ep && x > tol.Carry, s.baseInSet[r] && xb > tol.Carry
	for _, tid := range s.pairTun[r] {
		res, d := s.tunRes[tid], 0.0
		if f := x * res; now && sr.deadTun[tid] != ep && f > tol.Carry {
			d = f
		}
		if f := xb * res; before && f > tol.Carry {
			d -= f
		}
		if d == 0 {
			continue
		}
		for _, a := range s.plan.Instance.Tunnels.Tunnel(tid).Path.Arcs {
			if sr.arcCur[a] < 0 {
				sr.arcCur[a] = 0
				sr.changed = append(sr.changed, int32(a))
			}
			sr.arcLoad[a] += d
			sr.arcCur[a]++
		}
	}
}

// screenBound bounds how far screened arc a's load lies from the exact
// emission's: 8·K·RoundOff·(L + |load|), where L is its base load and K
// the record's additions to it plus the flow changes it took plus one
// (DESIGN.md §12, "Why a screened verdict is the exact sum's"). Every
// flow is above Carry, so the base terms sum to L up to round-off, and
// each change is at most the flow before plus the flow after.
func (s *Sweep) screenBound(sr *sweepScratch, a int32) float64 {
	lo, hi := s.rec.arcOff[a], s.rec.arcOff[a+1]
	base := 0.0
	if hi > lo {
		base = s.rec.arcAdds[hi-1].load
	}
	return 8 * float64(hi-lo+sr.arcCur[a]+1) * tol.RoundOff * (base + math.Abs(sr.arcLoad[a]))
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
	if rec := s.rec; rec != nil {
		if hi := rec.arcOff[a+1]; hi > rec.arcOff[a] {
			return rec.arcAdds[hi-1].load
		}
	}
	return 0
}

// resumeArc moves the re-sum of run.arc past run, an affected
// destination's additions to it (recorded, or none where its fresh ones
// go). At the first affected destination that loads the arc, every
// addition before the run is a replayed destination's, so the re-sum
// starts from the record's running load after the last of them; at a
// later one, it adds the replayed additions since its cursor.
func (s *Sweep) resumeArc(sr *sweepScratch, run arcRun) {
	a := run.arc
	if i := sr.arcCur[a]; i >= 0 {
		for ; i < run.lo; i++ {
			sr.arcLoad[a] += s.rec.arcAdds[i].val
		}
	} else {
		sr.changed = append(sr.changed, a)
		sr.arcLoad[a] = 0
		if s.rec != nil && run.lo > s.rec.arcOff[a] {
			sr.arcLoad[a] = s.rec.arcAdds[run.lo-1].load
		}
	}
	sr.arcCur[a] = run.hi
}

// runAt is the empty run of destination di on arc a, which the record
// has di not load: where di's additions would lie among the arc's.
func (s *Sweep) runAt(a topology.ArcID, di int) arcRun {
	run := arcRun{arc: int32(a)}
	if rec := s.rec; rec != nil {
		run.lo = rec.arcOff[a]
		for run.lo < rec.arcOff[a+1] && int(rec.arcAdds[run.lo].dest) < di {
			run.lo++
		}
		run.hi = run.lo
	}
	return run
}

// catchUp adds to re-summed arc a the recorded additions ordered before
// destination di that it has not added yet — all of them replayed
// destinations', since every affected one's were passed over.
func (s *Sweep) catchUp(sr *sweepScratch, a int32, di int) {
	rec := s.rec
	if rec == nil {
		return
	}
	i, end := sr.arcCur[a], rec.arcOff[a+1]
	for ; i < end && int(rec.arcAdds[i].dest) < di; i++ {
		sr.arcLoad[a] += rec.arcAdds[i].val
	}
	sr.arcCur[a] = i
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
		if sr.inSet[r] == sr.epoch {
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
