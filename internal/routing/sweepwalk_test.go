package routing

// Walked rows ≡ full scans. A low-rank scenario's stages walk only the
// rows it marks or flips, or whose solution its correction writes, and
// take every other row's verdict from the engine's record. The full
// scans they replaced — activate's seed closure, changedRows' two
// passes, checkU's and the emission's walks over every universe row —
// are kept below, in the test file only, as the oracle.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/tol"
	"pcf/internal/tunnels"
)

// fullScanActivate is activate as it was, on state of its own: every
// LS's activity, the rows a dead reserved tunnel or an LS flip marks,
// and the pairs of interest, closed from the seeds through the active
// LSs whatever flipped.
func fullScanActivate(s *Sweep, sc failures.Scenario) (in, marked, lsActive []bool, count int) {
	in, marked, lsActive = make([]bool, s.n), make([]bool, s.n), make([]bool, len(s.ls))
	ts := s.plan.Instance.Tunnels
	for r := 0; r < s.n; r++ {
		for _, tid := range s.pairTun[r] {
			if s.tunRes[tid] > 0 && !sc.Alive(ts.Tunnel(tid).Path) {
				marked[r] = true
			}
		}
	}
	for qi := range s.ls {
		e := &s.ls[qi]
		lsActive[qi] = e.cond.Holds(sc)
		if lsActive[qi] == e.baseActive {
			continue
		}
		if e.pairRow >= 0 {
			marked[e.pairRow] = true
		}
		for _, r := range e.segRows {
			marked[r] = true
		}
	}
	queue := []int{}
	for _, r := range s.seeds {
		if !in[r] {
			in[r] = true
			count++
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		r := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, qi := range s.localLS[r] {
			if !lsActive[qi] {
				continue
			}
			for _, sg := range s.ls[qi].segRows {
				if !in[sg] {
					in[sg] = true
					count++
					queue = append(queue, sg)
				}
			}
		}
	}
	return in, marked, lsActive, count
}

// fullScanChangedRows is changedRows as it was: a pass over every row
// marking the rows a membership change touches, then a pass collecting
// every marked row.
func fullScanChangedRows(s *Sweep, in, marked, lsActive []bool) []int {
	for r := 0; r < s.n; r++ {
		if in[r] == s.baseInSet[r] {
			continue
		}
		marked[r] = true
		for _, qi := range s.localLS[r] {
			if !lsActive[qi] && !s.ls[qi].baseActive {
				continue
			}
			for _, sg := range s.ls[qi].segRows {
				marked[sg] = true
			}
		}
	}
	rows := []int{}
	for r := 0; r < s.n; r++ {
		if marked[r] {
			rows = append(rows, r)
		}
	}
	return rows
}

// fullScanCheckU is checkU as it was: every pair of interest's
// utilization range-checked in row order, the largest kept.
func fullScanCheckU(s *Sweep, sc failures.Scenario, x []float64, in []bool) (float64, error) {
	maxU := 0.0
	for r := 0; r < s.n; r++ {
		if !in[r] {
			continue
		}
		if x[r] < -tol.Util || x[r] > 1+tol.Util {
			return 0, unrealizable{utilizationError{s.pairs[r], x[r], sc}}
		}
		if x[r] > maxU {
			maxU = x[r]
		}
	}
	return maxU, nil
}

// fullWalkEmit is the low-rank emission as it was: every affected
// destination's solution walked over every universe row, in row order,
// each row's flows written and moved as the emission writes them.
func fullWalkEmit(s *Sweep, sc failures.Scenario, sr *sweepScratch, upd *linsolve.Updated) error {
	for _, a := range sr.changed {
		sr.arcLoad[a], sr.arcFlows[a] = s.baseLoad(a), -1
	}
	sr.changed = sr.changed[:0]
	sr.flowTun, sr.flowVal = sr.flowTun[:0], sr.flowVal[:0]
	for di, dst := range s.dests {
		sr.flowOff[di] = int32(len(sr.flowTun))
		if s.replayed(sr, di) {
			continue
		}
		xt, err := s.destSolution(sr, di, upd, nil)
		if err != nil {
			return fmt.Errorf("routing: destination %d system under %v: %w", dst, sc, err)
		}
		xb := s.destBase[di]
		for r := 0; r < s.n; r++ {
			if (xt[r] > tol.Carry || xb[r] > tol.Carry) &&
				(sr.rowMark[r] == sr.epoch || math.Float64bits(xt[r]) != math.Float64bits(xb[r])) {
				s.moveRow(sr, r, xt[r], xb[r])
			}
			if !s.in(sr, r) || xt[r] <= tol.Carry {
				continue
			}
			for _, tid := range s.pairTun[r] {
				if rr := xt[r] * s.tunRes[tid]; sr.deadTun[tid] != sr.epoch && rr > tol.Carry {
					sr.flowTun = append(sr.flowTun, tid)
					sr.flowVal = append(sr.flowVal, rr)
				}
			}
		}
	}
	sr.flowOff[len(s.dests)] = int32(len(sr.flowTun))
	for _, a := range sr.changed {
		if sr.arcFlows[a] == 0 {
			sr.arcLoad[a] = 0
		}
	}
	return nil
}

// flatEmission is a copy of the flat emission a scratch holds.
type flatEmission struct {
	flowOff  []int32
	flowTun  []tunnels.ID
	flowVal  []float64
	arcLoad  []float64
	arcFlows []int32
	changed  []int32
}

func emissionOf(sr *sweepScratch) flatEmission {
	return flatEmission{slices.Clone(sr.flowOff), slices.Clone(sr.flowTun), slices.Clone(sr.flowVal),
		slices.Clone(sr.arcLoad), slices.Clone(sr.arcFlows), slices.Clone(sr.changed)}
}

// sameEmission requires two flat emissions equal bit for bit.
func sameEmission(t *testing.T, what string, got, want flatEmission) {
	t.Helper()
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	switch {
	case !slices.Equal(got.flowOff, want.flowOff) || !slices.Equal(got.flowTun, want.flowTun):
		t.Fatalf("%s: walked emission's flows %v %v, full walk's %v %v", what, got.flowOff, got.flowTun, want.flowOff, want.flowTun)
	case !slices.Equal(bits(got.flowVal), bits(want.flowVal)):
		t.Fatalf("%s: walked emission's flow values %v, full walk's %v", what, got.flowVal, want.flowVal)
	case !slices.Equal(got.changed, want.changed) || !slices.Equal(got.arcFlows, want.arcFlows):
		t.Fatalf("%s: walked emission touched arcs %v (flows %v), full walk %v (%v)", what, got.changed, got.arcFlows, want.changed, want.arcFlows)
	case !slices.Equal(bits(got.arcLoad), bits(want.arcLoad)):
		t.Fatalf("%s: walked emission's arc loads %v, full walk's %v", what, got.arcLoad, want.arcLoad)
	}
}

// walkTally is what assertWalkMatchesFullScans saw: scenarios compared,
// with a membership flip, out of range, emitted; rows the walked
// emission visited against the full walk's n per destination; and rows
// outside a destination's base support that carried or moved a flow.
type walkTally struct {
	scenarios, flips, rangeErrs, emitted int
	visits, full, offSupport             int
}

// assertWalkMatchesFullScans runs every scenario through the engine's
// low-rank stages one at a time and holds each walked stage to its full
// scan: the marked rows, the membership of every row and the pair
// count, the range check's first error text or largest U bit for bit,
// and the whole flat emission bit for bit.
func assertWalkMatchesFullScans(t *testing.T, name string, sw *Sweep, scenarios []failures.Scenario) walkTally {
	t.Helper()
	sr := sw.newScratch()
	var tally walkTally
	for _, sc := range scenarios {
		what := fmt.Sprintf("%s under %v", name, sc)
		tally.scenarios++
		count := sw.activate(sc, sr)
		in, marked, lsActive, wantCount := fullScanActivate(sw, sc)
		if count != wantCount {
			t.Fatalf("%s: %d pairs of interest, full closure %d", what, count, wantCount)
		}
		for r := range in {
			if sw.in(sr, r) != in[r] {
				t.Fatalf("%s: row %d membership %v, full closure %v", what, r, sw.in(sr, r), in[r])
			}
		}
		if !slices.Equal(in, sw.baseInSet) {
			tally.flips++
		}
		rows := sw.changedRows(sr)
		if want := fullScanChangedRows(sw, in, marked, lsActive); !slices.Equal(rows, want) {
			t.Fatalf("%s: marked rows %v, full scans %v", what, rows, want)
		}

		ups, upScale, err := sw.rowUpdates(sc, sr, rows)
		if err != nil {
			continue
		}
		sr.sol = sw.uBase
		var upd *linsolve.Updated
		if k := len(ups); k > 0 {
			if upd, _ = sw.corrector(sr, ups); upd == nil {
				continue
			}
			if cap(sr.smwZ) < k {
				sr.smwZ, sr.smwY = make([]float64, k), make([]float64, k)
			}
			if err := upd.CorrectIntoScratch(sr.x, sw.uBase, sr.smwZ[:k], sr.smwY[:k]); err != nil {
				t.Fatal(err)
			}
			if !sw.residualOK(sr.x, ups, upScale) {
				continue
			}
			sr.sol = sr.x
		}
		err = sw.checkU(sc, sr, upd, true)
		wantMax, werr := fullScanCheckU(sw, sc, sr.sol, in)
		if verdictText(err) != verdictText(werr) {
			t.Fatalf("%s: range check %v, full scan %v", what, err, werr)
		}
		if err != nil {
			tally.rangeErrs++
			continue
		}
		if !bitsEq(sr.maxU, wantMax) {
			t.Fatalf("%s: largest U %.17g, full scan %.17g", what, sr.maxU, wantMax)
		}

		sw.markAffected(sr, rows, ups)
		sr.rowVisits = 0
		if _, err := sw.emitDests(sc, sr, upd, nil); err != nil {
			t.Fatal(err)
		}
		got := emissionOf(sr)
		emitted := 0
		for di := range sw.dests {
			if !sw.replayed(sr, di) {
				emitted++
				tally.offSupport += offSupport(sw, sr, di, upd)
			}
		}
		tally.emitted++
		tally.visits += sr.rowVisits
		tally.full += emitted * sw.n
		if err := fullWalkEmit(sw, sc, sr, upd); err != nil {
			t.Fatal(err)
		}
		sameEmission(t, what, got, emissionOf(sr))
	}
	return tally
}

// offSupport counts destination di's rows outside its base support
// whose flow the scenario makes or moves: the rows only the
// correction's list brings into the walk.
func offSupport(s *Sweep, sr *sweepScratch, di int, upd *linsolve.Updated) int {
	xt, err := s.destSolution(sr, di, upd, nil)
	if err != nil {
		return 0
	}
	n := 0
	for r := 0; r < s.n; r++ {
		if s.destBase[di][r] == 0 && xt[r] > tol.Carry {
			n++
		}
	}
	return n
}

// bypassOnFailurePlan is a triangle whose pair 0→2 has a direct tunnel
// over link 2 and a sequence through 1 that holds only while link 2 is
// dead, so a scenario killing link 2 sends destination 2's traffic over
// segment 0→1, whose base solution toward 2 is zero: a row outside that
// destination's base support carries flow. With segDemand the segment
// has demand of its own and is a base pair of interest; without, it
// joins the pair set only under the failure.
func bypassOnFailurePlan(segDemand bool) *core.Plan {
	h := newHandPlan(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, 1)
	h.tunnel(0, 2, 1, 2)
	h.tunnel(0, 1, 1, 0)
	h.tunnel(1, 2, 1, 1)
	h.demand(0, 2, 0.5)
	h.demand(1, 2, 0.3)
	if segDemand {
		h.demand(0, 1, 0.2)
	}
	h.ls(0, 2, 1, core.LinkDead(2), 1)
	return h.plan()
}

// TestWalkedRowsMatchFullScans: on every designed scenario and on 300
// seeded beyond-budget ones per plan — the gadgets, Sprint CLS, the
// benchmark's BTNorthAmerica PCF-TF and PCF-CLS plans at f=2, and hand
// plans whose LSs flip each way, so membership changes and flow reaches
// rows outside a base support — every walked stage of the low-rank path
// agrees with the full scan it replaced, and the emission walks fewer
// rows than the full walk would.
func TestWalkedRowsMatchFullScans(t *testing.T) {
	plans := deltaPlans(t)
	add := func(name string, plan *core.Plan) {
		plans = append(plans, struct {
			name string
			plan *core.Plan
		}{name, plan})
	}
	flip, _ := membershipFlipPlan()
	add("membership-flip", flip)
	add("bypass-joins", bypassOnFailurePlan(false))
	add("bypass-in-set", bypassOnFailurePlan(true))
	var total walkTally
	for _, tc := range plans {
		sw := newSweep(t, tc.plan)
		if sw.rec == nil {
			t.Fatalf("%s: engine has no record", tc.name)
		}
		scenarios := append(designedSet(tc.plan), beyondBudget(tc.plan.Instance.Graph, 65, 300)...)
		tally := assertWalkMatchesFullScans(t, tc.name, sw, scenarios)
		t.Logf("%s: %d scenarios, %d with a membership flip, %d out of range, %d emitted; %d of %d rows walked, %d off-support rows carrying flow",
			tc.name, tally.scenarios, tally.flips, tally.rangeErrs, tally.emitted, tally.visits, tally.full, tally.offSupport)
		if tally.emitted == 0 {
			t.Fatalf("%s: no scenario reached the emission", tc.name)
		}
		total.flips += tally.flips
		total.rangeErrs += tally.rangeErrs
		total.offSupport += tally.offSupport
		total.visits += tally.visits
		total.full += tally.full
	}
	if total.flips == 0 || total.rangeErrs == 0 || total.offSupport == 0 {
		t.Fatalf("%d scenarios flip membership, %d fail the range check, %d rows outside a base support carry flow: the comparison needs each", total.flips, total.rangeErrs, total.offSupport)
	}
	if total.visits >= total.full {
		t.Fatalf("the emission walked %d rows where the full walk visits %d", total.visits, total.full)
	}
}
