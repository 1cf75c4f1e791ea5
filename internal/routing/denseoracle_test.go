package routing

// The dense oracle. Realize used to be a second §4.1 implementation: the
// reservation matrix over the scenario's pairs of interest as a dense
// n×n array, factored by partial-pivot Gaussian elimination, emitted
// through maps. Non-test code now has one linear-system representation,
// the scenario's sparse rows, and this is kept here as the reference
// every SMW-vs-cold suite holds the engine to at 1e-9 — it shares no
// solver, no emission code and no pairs-of-interest closure with what
// it checks.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// state is the oracle's own failure-dependent view of a plan: which
// tunnels are live, which LSs are active, and the pairs of interest,
// found from maps over the instance with no use of the engine's index
// (Sweep.activate computes the same closure for production).
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

// Matrix builds the reservation matrix M of §4.1 over the pairs of
// interest (row-major, len(pairs) x len(pairs)).
func (st *state) Matrix() []float64 {
	n := len(st.pairs)
	m := make([]float64, n*n)
	for i, p := range st.pairs {
		m[i*n+i] = st.diag(p)
		// Row p gains -b_q for every active LS q that uses p as a
		// segment, in the column of q's own pair.
		for _, qid := range st.activeThr[p] {
			q := st.plan.Instance.LSs[qid]
			j, ok := st.index[q.Pair]
			if !ok {
				continue // q's pair carries nothing; its load is zero
			}
			m[i*n+j] -= st.plan.LSRes[qid]
		}
	}
	return m
}

// demandVec returns the D vector: scaled demand per pair of interest.
func (st *state) demandVec() []float64 {
	d := make([]float64, len(st.pairs))
	for i, p := range st.pairs {
		d[i] = st.plan.ScaledDemand(p)
	}
	return d
}

// denseRealize computes the routing for a scenario by solving the linear
// systems of §4.1 with one shared dense LU factorization of the
// reservation matrix over the pairs of interest: the aggregate
// utilizations first, then one right-hand side per destination.
func denseRealize(plan *core.Plan, sc failures.Scenario) (*Realization, error) {
	st := newState(plan, sc)
	n := len(st.pairs)
	in := plan.Instance
	res := &Realization{
		Scenario: sc,
		Pairs:    st.pairs,
		TunnelTo: map[topology.NodeID]map[tunnels.ID]float64{},
		ArcLoad:  make([]float64, in.Graph.NumArcs()),
	}
	if n == 0 {
		return res, nil
	}
	mat := st.Matrix()
	for i, p := range st.pairs {
		if mat[i*n+i] <= 1e-12 {
			return nil, fmt.Errorf("routing: pair %v of interest has no live reservation under %v", p, sc)
		}
	}
	lu, err := linsolve.Factor(mat, n)
	if err != nil {
		return nil, fmt.Errorf("%w under %v: %w", ErrSingularMatrix, sc, err)
	}
	u := make([]float64, n)
	if err := lu.SolveInto(u, st.demandVec()); err != nil {
		return nil, fmt.Errorf("routing: aggregate system under %v: %w", sc, err)
	}
	res.U = u
	for i := range u {
		if u[i] < -1e-7 || u[i] > 1+1e-7 {
			return nil, fmt.Errorf("routing: U[%v] = %g outside [0,1] under %v (Proposition 5 violated — plan not feasible for this scenario)",
				st.pairs[i], u[i], sc)
		}
	}
	// Per-destination systems M·U_t = D_t, sharing the factorization.
	destSet := map[topology.NodeID]bool{}
	for _, p := range in.DemandPairs() {
		if plan.ScaledDemand(p) > 1e-12 {
			destSet[p.Dst] = true
		}
	}
	for t := 0; t < in.Graph.NumNodes(); t++ {
		dst := topology.NodeID(t)
		if !destSet[dst] {
			continue
		}
		dt := make([]float64, n)
		for i, p := range st.pairs {
			if p.Dst == dst {
				dt[i] = plan.ScaledDemand(p)
			}
		}
		ut := make([]float64, n)
		if err := lu.SolveInto(ut, dt); err != nil {
			return nil, fmt.Errorf("routing: destination %d system under %v: %w", dst, sc, err)
		}
		flows := map[tunnels.ID]float64{}
		for i, p := range st.pairs {
			if ut[i] <= 1e-12 {
				continue
			}
			for _, tid := range st.liveTun[p] {
				r := ut[i] * plan.TunnelRes[tid]
				if r <= 1e-12 {
					continue
				}
				flows[tid] += r
				for _, a := range in.Tunnels.Tunnel(tid).Path.Arcs {
					res.ArcLoad[a] += r
				}
			}
		}
		res.TunnelTo[dst] = flows
	}
	return res, nil
}

// near is agreement to 1e-9, relative above 1.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)) }

// nearRealization requires got to agree with the dense oracle's want to
// 1e-9 (relative above 1): the same pairs, and U, every destination's
// flows and every arc load within tolerance. A flow one side lacks must
// be below the emission threshold's order on the other.
func nearRealization(t *testing.T, what string, got, want *Realization) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) || len(got.U) != len(want.U) {
		t.Fatalf("%s: %d pairs / %d U, dense %d / %d", what, len(got.Pairs), len(got.U), len(want.Pairs), len(want.U))
	}
	for i := range want.Pairs {
		if got.Pairs[i] != want.Pairs[i] || !near(got.U[i], want.U[i]) {
			t.Fatalf("%s: pair[%d] = %v U %.17g, dense %v U %.17g", what, i, got.Pairs[i], got.U[i], want.Pairs[i], want.U[i])
		}
	}
	for a := range want.ArcLoad {
		if !near(got.ArcLoad[a], want.ArcLoad[a]) {
			t.Fatalf("%s: ArcLoad[%d] = %.17g, dense %.17g", what, a, got.ArcLoad[a], want.ArcLoad[a])
		}
	}
	if len(got.TunnelTo) != len(want.TunnelTo) {
		t.Fatalf("%s: %d destinations, dense %d", what, len(got.TunnelTo), len(want.TunnelTo))
	}
	for dst, wf := range want.TunnelTo {
		gf, ok := got.TunnelTo[dst]
		if !ok {
			t.Fatalf("%s: destination %d missing", what, dst)
		}
		for tid, wv := range wf {
			if !near(gf[tid], wv) {
				t.Fatalf("%s: flow[%d][%d] = %.17g, dense %.17g", what, dst, tid, gf[tid], wv)
			}
		}
		for tid, gv := range gf {
			if _, ok := wf[tid]; !ok && gv > 1e-9 {
				t.Fatalf("%s: spurious flow[%d][%d] = %g", what, dst, tid, gv)
			}
		}
	}
}

// TestColdPathMatchesDenseOracle holds the one cold path to the dense
// oracle. An injected corrector fault sends every scenario that needs a
// correction cold; on every topozoo gadget, Sprint CLS and — outside
// -short — BTNorthAmerica TF and CLS at f = 2, each designed scenario
// and 300 seeded beyond-budget ones (2–5 dead, 0–2 degraded links) must
// come out of the engine with the dense oracle's realizability, U,
// per-destination flows and arc loads to 1e-9, its check verdict and its
// MLU to 1e-9. Realize must answer bit for bit as the engine does, and
// a forced 4-worker sweep must repeat the serial verdicts and MLUs bit
// for bit.
func TestColdPathMatchesDenseOracle(t *testing.T) {
	SweepUpdateFault = func([]linsolve.RowUpdate) error { return linsolve.ErrIllConditioned }
	defer func() { SweepUpdateFault = nil }()
	totalCold := 0
	for _, tc := range deltaPlans(t) {
		plan := tc.plan
		g := plan.Instance.Graph
		scenarios := append(designedSet(plan), beyondBudget(g, 27, 300)...)
		sw := newSweep(t, plan)
		sr := sw.newScratch()
		cold, errs := 0, 0
		mlus := make([]float64, len(scenarios))
		failed := make([]bool, len(scenarios))
		for i, sc := range scenarios {
			what := fmt.Sprintf("%s under %v", tc.name, sc)
			want, werr := denseRealize(plan, sc)
			sv, gerr := sw.realize(sc, sr)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: engine err %v, dense err %v", what, gerr, werr)
			}
			pub, perr := Realize(plan, sc)
			viaEngine, serr := sw.Realize(sc)
			if (perr == nil) != (gerr == nil) || (serr == nil) != (gerr == nil) {
				t.Fatalf("%s: Realize err %v, Sweep.Realize err %v, engine err %v", what, perr, serr, gerr)
			}
			if gerr != nil {
				errs++
				failed[i] = true
				continue
			}
			if !sv.smw {
				cold++
			}
			sameRealization(t, what+" (Realize vs Sweep.Realize)", pub, viaEngine)
			nearRealization(t, what, flatRealization(t, sw, sc, sr), want)

			mlu, jerr := sw.judge(sc, sr, nil, true)
			cerr := denseCheck(plan, want)
			if (jerr == nil) != (cerr == nil) {
				t.Fatalf("%s: engine check %v, dense check %v", what, jerr, cerr)
			}
			if jerr != nil {
				errs++
				failed[i] = true
				continue
			}
			if wm := denseMLU(g, want); !near(mlu, wm) {
				t.Fatalf("%s: MLU %.17g, dense %.17g", what, mlu, wm)
			}
			mlus[i] = mlu
		}
		t.Logf("%s: %d scenarios, %d cold, %d unrealizable or rejected", tc.name, len(scenarios), cold, errs)
		if cold == 0 {
			t.Fatalf("%s: no scenario went cold under the injected fault", tc.name)
		}
		totalCold += cold

		old := sweepWorkerCount
		sweepWorkerCount = func() int { return 4 }
		slots, stats := sweepScenarios(context.Background(), sw, true, false, scenarios)
		sweepWorkerCount = old
		if stats.Workers < 2 {
			t.Fatalf("%s: sweep ran on %d workers", tc.name, stats.Workers)
		}
		for i := range slots {
			if !slots[i].done || (slots[i].err != nil) != failed[i] || !bitsEq(slots[i].mlu, mlus[i]) {
				t.Fatalf("%s under %v: 4-worker slot %+v, serial mlu %.17g failed %v", tc.name, scenarios[i], slots[i], mlus[i], failed[i])
			}
		}
	}
	if totalCold == 0 {
		t.Fatal("the cold path never ran")
	}
}
