package routing

// Emission: the aggregate and per-destination solutions of a scenario
// become flows and arc loads, written flat into the caller's scratch.
// Two consumers read that form — the sweep's check (sweepcheck.go),
// directly, and materialize, which builds the public Realization from
// it. The engine records what emitDests produces on the empty scenario
// once, and a scenario replays that record for every destination it
// provably cannot change.

import (
	"fmt"

	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// jagged is a list of int32 lists held as one arena and an offset per
// list, so an index over rows or destinations is two pointer-free
// allocations however many lists it has.
type jagged struct {
	off []int32 // list i is val[off[i]:off[i+1]]
	val []int32
}

func (j jagged) at(i int) []int32 { return j.val[j.off[i]:j.off[i+1]] }

// baseEmission is what emitDests produces on the empty scenario, per
// destination and in emission order: the (tunnel, flow) list, and every
// addition that list makes to the arc loads. Replaying the additions of
// destination di performs the floating-point operations the dense loop
// would, in the order it would, so arc loads come out bit-identical.
// rowDest indexes the destinations whose base solution is non-zero on a
// universe row — the ones a change to that row can reach.
type baseEmission struct {
	flowOff []int32 // destination di's flows are [flowOff[di], flowOff[di+1])
	flowTun []tunnels.ID
	flowVal []float64
	addOff  []int32 // destination di's arc additions are [addOff[di], addOff[di+1])
	addArc  []int32
	addVal  []float64
	rowDest jagged
}

// recordBase runs emitDests on the empty scenario sr holds — with no
// record yet, every destination takes the dense loop — and stores the
// outcome as s.rec. Each tunnel belongs to one pair, so a destination's
// flow list names it at most once and the arc additions are exactly the
// list expanded along each tunnel's path.
func (s *Sweep) recordBase(sr *sweepScratch) {
	if _, err := s.emitDests(failures.Scenario{}, sr, nil); err != nil {
		s.slu = nil // no record, no low-rank path: serve cold
		return
	}
	in := s.plan.Instance
	rec := &baseEmission{
		flowOff: append([]int32(nil), sr.flowOff...),
		flowTun: append([]tunnels.ID(nil), sr.flowTun...),
		flowVal: append([]float64(nil), sr.flowVal...),
		addOff:  make([]int32, 1, len(s.dests)+1),
	}
	for di := range s.dests {
		for i := rec.flowOff[di]; i < rec.flowOff[di+1]; i++ {
			for _, a := range in.Tunnels.Tunnel(rec.flowTun[i]).Path.Arcs {
				rec.addArc = append(rec.addArc, int32(a))
				rec.addVal = append(rec.addVal, rec.flowVal[i])
			}
		}
		rec.addOff = append(rec.addOff, int32(len(rec.addArc)))
	}
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
		if sr.inSet[r] == ep && (x[r] < -1e-7 || x[r] > 1+1e-7) {
			return fmt.Errorf("routing: U[%v] = %g outside [0,1] under %v (Proposition 5 violated — plan not feasible for this scenario)",
				s.pairs[r], x[r], sc)
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
// replays the engine's record, any other has its base solution
// corrected by upd (nil: it stands) and spread over each pair's live
// tunnels.
func (s *Sweep) emitDests(sc failures.Scenario, sr *sweepScratch, upd *linsolve.Updated) (served, error) {
	in := s.plan.Instance
	ep := sr.epoch
	k := 0
	if upd != nil {
		k = upd.Rank()
	}
	sv := served{smw: true, rank: k, evals: len(s.dests)}
	arcLoad := sr.arcLoad
	clear(arcLoad)
	sr.flowTun, sr.flowVal = sr.flowTun[:0], sr.flowVal[:0]
	for di, dst := range s.dests {
		sr.flowOff[di] = int32(len(sr.flowTun))
		if rec := s.rec; rec != nil && sr.destMark[di] != ep {
			arcs := rec.addArc[rec.addOff[di]:rec.addOff[di+1]]
			vals := rec.addVal[rec.addOff[di]:rec.addOff[di+1]]
			for i, a := range arcs {
				arcLoad[a] += vals[i]
			}
			sv.replays++
			continue
		}
		xt := s.destBase[di]
		if upd != nil {
			if err := upd.CorrectIntoScratch(sr.xt, xt, sr.smwZ[:k], sr.smwY[:k]); err != nil {
				return served{}, fmt.Errorf("routing: destination %d system under %v: %w", dst, sc, err)
			}
			xt = sr.xt
		}
		for r := 0; r < s.n; r++ {
			if sr.inSet[r] != ep || xt[r] <= 1e-12 {
				continue
			}
			for _, tid := range s.pairTun[r] {
				if sr.deadTun[tid] == ep {
					continue
				}
				rr := xt[r] * s.tunRes[tid]
				if rr <= 1e-12 {
					continue
				}
				sr.flowTun = append(sr.flowTun, tid)
				sr.flowVal = append(sr.flowVal, rr)
				for _, a := range in.Tunnels.Tunnel(tid).Path.Arcs {
					arcLoad[a] += rr
				}
			}
		}
	}
	sr.flowOff[len(s.dests)] = int32(len(sr.flowTun))
	return sv, nil
}

// destFlows returns destination di's flows in the emission sr holds:
// the engine's record if the destination was replayed (its scratch
// range is empty and unmarked), the scratch arena otherwise.
func (s *Sweep) destFlows(sr *sweepScratch, di int) ([]tunnels.ID, []float64) {
	if rec := s.rec; rec != nil && sr.destMark[di] != sr.epoch {
		lo, hi := rec.flowOff[di], rec.flowOff[di+1]
		return rec.flowTun[lo:hi], rec.flowVal[lo:hi]
	}
	lo, hi := sr.flowOff[di], sr.flowOff[di+1]
	return sr.flowTun[lo:hi], sr.flowVal[lo:hi]
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
