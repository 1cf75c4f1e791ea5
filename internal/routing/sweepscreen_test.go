package routing

// The referee of the screened arc loads (sweepemit.go, sweepcheck.go):
// every answer a sweep gives from them must be the one the exact
// emission gives. TestScreenedSweepMatchesExactSum (screen_test.go, in
// the external package, which can prepare the benchmark's plans) runs
// it on every plan.

import (
	"context"
	"math"
	"slices"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/tol"
	"pcf/internal/topology"
)

// screenTally is what the referee saw on one plan: the scenarios every
// sweep sent to the exact sum, those a validation's sweep (no MLU read)
// sent, and the engine's positive-reservation LSs — with none, its
// matrix is diagonal and a moved flow is a changed row's.
type screenTally struct {
	Fallbacks, VerdictFallbacks, ReservedLS int
}

// assertScreenMatchesExact sweeps the scenarios through plan's engine
// on a forced 4-worker pool, screened, in every way a caller reads a
// sweep, and requires the exact emission's answers, which a serial
// realize and judge give per scenario. A designed-set sweep must stop
// at the same first failure, with the same error text, and report the
// same worst MLU before it; a sweep that runs on must give every
// scenario the same verdict, an MLU that is exact or an upper bound
// (exact at a floor of -Inf), and, for every run of scenarios from the
// first, the same largest MLU and first scenario attaining it wherever
// that is at least the floor — at floors -Inf, 0, the median MLU (a
// tail above a designed worst) and +Inf (a validation).
func assertScreenMatchesExact(t *testing.T, name string, plan *core.Plan, scenarios []failures.Scenario) screenTally {
	t.Helper()
	sw := newSweep(t, plan)
	n := len(scenarios)
	realizeErr, checkErr := make([]error, n), make([]error, n)
	mlu, checkMLU := make([]float64, n), make([]float64, n)
	sr := sw.newScratch()
	for i, sc := range scenarios {
		if _, err := sw.realize(sc, sr); err != nil {
			realizeErr[i], checkErr[i] = err, err
			continue
		}
		mlu[i], _ = sw.judge(sc, sr, nil, false)
		checkMLU[i], checkErr[i] = sw.judge(sc, sr, nil, true)
	}
	sorted := slices.Clone(mlu)
	slices.Sort(sorted)

	old := sweepWorkerCount
	sweepWorkerCount = func() int { return 4 }
	defer func() { sweepWorkerCount = old }()
	ctx := context.Background()
	fill := func(i int, dst *failures.Scenario) { *dst = scenarios[i] }
	tally := screenTally{ReservedLS: len(sw.ls)}
	for _, check := range []bool{true, false} {
		wantErr, wantMLU := realizeErr, mlu
		if check {
			wantErr, wantMLU = checkErr, checkMLU
		}
		first := slices.IndexFunc(wantErr, func(err error) bool { return err != nil })
		if first < 0 {
			first = n
		}
		slots, st := sweepSome(ctx, sw, check, true, 0, n, fill, nil)
		tally.Fallbacks += st.ScreenFallbacks
		at, err := firstFailure(slots, listAt(scenarios))
		if at != first || (err == nil) != (first == n) || (err != nil && err.Error() != wantErr[first].Error()) {
			t.Fatalf("%s (check %v): designed sweep stops at %d with %v; exact at %d with %v", name, check, at, err, first, wantErr[min(first, n-1)])
		}
		assertWorstRuns(t, name, slots[:at], wantMLU[:at], wantErr[:at], 0)

		for _, floor := range []float64{math.Inf(-1), 0, sorted[n/2], math.Inf(1)} {
			slots, st := sweepSome(ctx, sw, check, false, floor, n, fill, nil)
			tally.Fallbacks += st.ScreenFallbacks
			if check && math.IsInf(floor, 1) {
				tally.VerdictFallbacks += st.ScreenFallbacks
			}
			for i := range slots {
				got := slots[i]
				if !got.done || (got.err != nil) != (wantErr[i] != nil) {
					t.Fatalf("%s under %v (check %v, floor %g): slot %+v, exact error %v", name, scenarios[i], check, floor, got, wantErr[i])
				}
				if got.err == nil && !bitsEq(got.mlu, wantMLU[i]) && (math.IsInf(floor, -1) || got.mlu < wantMLU[i]) {
					t.Fatalf("%s under %v (check %v, floor %g): MLU %.17g, exact %.17g", name, scenarios[i], check, floor, got.mlu, wantMLU[i])
				}
			}
			if !math.IsInf(floor, 1) {
				assertWorstRuns(t, name, slots, wantMLU, wantErr, floor)
			}
		}
	}
	return tally
}

// assertWorstRuns requires that for every run of slots from the first,
// the largest MLU among those that succeeded and the first slot
// attaining it (worstOf) are the exact emission's wherever that MLU is
// at least floor, and below floor where it is not.
func assertWorstRuns(t *testing.T, name string, slots []sweepSlot, wantMLU []float64, wantErr []error, floor float64) {
	t.Helper()
	got, want := 0.0, 0.0
	gotAt, wantAt := -1, -1
	for i := range slots {
		if slots[i].err == nil && slots[i].mlu > got {
			got, gotAt = slots[i].mlu, i
		}
		if wantErr[i] == nil && wantMLU[i] > want {
			want, wantAt = wantMLU[i], i
		}
		if want >= floor && (!bitsEq(got, want) || gotAt != wantAt) || want < floor && got >= floor {
			t.Fatalf("%s: worst of the first %d slots %.17g at %d, exact %.17g at %d (floor %g)", name, i+1, got, gotAt, want, wantAt, floor)
		}
	}
}

// withLinkCapacity returns the plan over a copy of its graph with link
// l's capacity set to c: the same reservations and flows.
func withLinkCapacity(plan *core.Plan, l topology.LinkID, c float64) *core.Plan {
	g := plan.Instance.Graph
	h := topology.New(g.Name)
	for v := 0; v < g.NumNodes(); v++ {
		h.AddNode(g.NodeName(topology.NodeID(v)))
	}
	for i, link := range g.Links() {
		capacity := link.Capacity
		if topology.LinkID(i) == l {
			capacity = c
		}
		h.AddWeightedLink(link.A, link.B, capacity, link.Weight)
	}
	in := *plan.Instance
	in.Graph = h
	return &core.Plan{Scheme: plan.Scheme, Objective: plan.Objective, Instance: &in,
		Z: plan.Z, TunnelRes: plan.TunnelRes, LSRes: plan.LSRes}
}

// capacityEdge returns a capacity c with c + tol.Overload == x in
// float64, the edge at which a load of x is not overloaded and the
// next float above it is, or false if none lies within 64 steps.
func capacityEdge(x float64) (float64, bool) {
	c := x - tol.Overload
	for range 64 {
		switch e := c + tol.Overload; {
		case bitsEq(e, x):
			return c, true
		case e < x:
			c = math.Nextafter(c, math.Inf(1))
		default:
			c = math.Nextafter(c, math.Inf(-1))
		}
	}
	return 0, false
}

// verdictText is an error's text, "" for none.
func verdictText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// nearThresholdPlan is the Fig. 5 CLS gadget with one link's capacity
// set so that, under one scenario, an arc's screened load and its exact
// load — which differ in round-off — lie on either side of capacity +
// Overload. Checked with the arcs' screened loads taken as exact, as a
// screen with no round-off bound takes them, that scenario's verdict is
// wrong. It returns the plan and the scenarios to referee it on, that
// scenario first.
func nearThresholdPlan(t *testing.T) (*core.Plan, []failures.Scenario) {
	t.Helper()
	base := fig5CLSPlan(t)
	scenarios := append(designedSet(base), beyondBudget(base.Instance.Graph, 61, 1000)...)
	sw := newSweep(t, base)
	sr, ex := sw.newScratch(), sw.newScratch()
	for _, sc := range scenarios {
		if _, err := sw.serve(sc, sr, true); err != nil || !sr.screened {
			continue
		}
		if _, err := sw.realize(sc, ex); err != nil {
			continue
		}
		for _, a := range sr.changed {
			l := topology.LinkOf(topology.ArcID(a))
			_, degraded := sc.Degraded[l]
			screened, exact := sr.arcLoad[a], ex.arcLoad[a]
			if bitsEq(screened, exact) || sc.Dead[l] || degraded {
				continue
			}
			c, ok := capacityEdge(min(screened, exact))
			if !ok {
				continue
			}
			plan := withLinkCapacity(base, l, c)
			psw := newSweep(t, plan)
			psr := psw.newScratch()
			if _, err := psw.realize(sc, psr); err != nil {
				t.Fatal(err)
			}
			_, want := psw.judge(sc, psr, nil, true)
			if _, err := psw.serve(sc, psr, true); err != nil {
				t.Fatal(err)
			}
			psr.screened = false // no bound: the screened loads taken as exact
			if _, unbounded := psw.judge(sc, psr, nil, true); (unbounded == nil) != (want == nil) {
				t.Logf("near-threshold: arc %d under %v: exact load %.17g, screened %.17g, capacity %.17g; exact verdict %q, unbounded screen's %q",
					a, sc, exact, screened, c, verdictText(want), verdictText(unbounded))
				return plan, append([]failures.Scenario{sc}, scenarios...)
			}
		}
	}
	t.Fatal("no screened load differs from the exact sum where a capacity can split them")
	return nil, nil
}
