package routing

// The referee of the arc-load rule (sweepemit.go): a low-rank
// scenario's arc loads are its base loads plus what changed, within
// their round-off bound of the dense loop's, and every path that reads
// them — serial, pooled, designed, sampled, searched — reads the same
// bits. TestArcLoadsMatchDenseLoop (loads_test.go, in the external
// package, which can prepare the benchmark's plans) runs it on every
// plan.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/tol"
	"pcf/internal/topology"
)

// loadTally is what the referee saw on one plan: the dense referee's
// tally, and the engine's positive-reservation LSs — with none, its
// matrix is diagonal and a moved flow is a changed row's.
type loadTally struct {
	deltaTally
	ReservedLS int
}

// Undecided counts the scenarios with an arc whose dense load lies
// within its bound of capacity + Overload.
func (t loadTally) Undecided() int { return t.undecided }

// assertLoadsMatchDense referees the arc-load rule on one plan's
// engine: every scenario against the dense loop (assertEngineMatchesDense),
// then every way a caller reads a sweep, on a forced 4-worker pool,
// against a serial realize + judge of the same scenarios on the same
// engine, bit for bit — a sweep that runs on and one that stops at its
// first failure, checked and not; ValidateStats, WorstMLUStats and both
// passes of ValidateSampled over the designed set; and the scenario
// WorstMLUSearch reports.
func assertLoadsMatchDense(t *testing.T, name string, plan *core.Plan, scenarios []failures.Scenario) loadTally {
	t.Helper()
	sw := newSweep(t, plan)
	tally := loadTally{assertEngineMatchesDense(t, name, sw, scenarios), len(sw.ls)}
	ctx := context.Background()
	designed := designedSet(plan)

	// The references, each a serial realize + judge per scenario.
	old := sweepWorkerCount
	defer func() { sweepWorkerCount = old }()
	sweepWorkerCount = func() int { return 1 }
	serial := map[bool][]sweepSlot{true: serialSlots(sw, true, scenarios), false: serialSlots(sw, false, scenarios)}
	wantValid, wantValidErr := refereeValidate(sw, designed)
	wantWorst, wantWorstSc, wantWorstErr := refereeWorst(sw, designed)
	pm, err := failures.Uniform(plan.Instance.Failures, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	opts := SampleOptions{Model: pm, Samples: 200, Delta: 0.01, Seed: 1, KCap: plan.Instance.Failures.Budget + 8}
	wantRep, wantRepErr := refereeSampled(sw, designed, opts)

	sweepWorkerCount = func() int { return 4 }
	for _, check := range []bool{true, false} {
		want := serial[check]
		first, _ := firstFailure(want, listAt(scenarios))
		for _, stop := range []bool{false, true} {
			slots, _ := sweepScenarios(ctx, sw, check, stop, scenarios)
			n := len(slots)
			if stop {
				if at, _ := firstFailure(slots, listAt(scenarios)); at != first {
					t.Fatalf("%s (check %v): the stopping sweep fails first at %d, serially %d", name, check, at, first)
				}
				n = min(first+1, n)
			}
			for i := range slots[:n] {
				if !sameSlot(slots[i], want[i]) {
					t.Fatalf("%s under %v (check %v, stop %v): slot %+v, serial %+v", name, scenarios[i], check, stop, slots[i], want[i])
				}
			}
		}
	}

	if _, err := sw.ValidateStats(ctx); verdictText(err) != verdictText(wantValidErr) {
		t.Fatalf("%s: ValidateStats = %v; serially %v at designed scenario %d", name, err, wantValidErr, wantValid)
	}
	worst, worstSc, _, err := WorstMLUStats(ctx, plan, ValidateOptions{})
	if !bitsEq(worst, wantWorst) || !reflect.DeepEqual(worstSc, wantWorstSc) || verdictText(err) != verdictText(wantWorstErr) {
		t.Fatalf("%s: WorstMLUStats = %.17g at %v (%v); serially %.17g at %v (%v)", name, worst, worstSc, err, wantWorst, wantWorstSc, wantWorstErr)
	}
	rep, err := sw.ValidateSampled(ctx, opts)
	sampledReportsEqual(t, name, rep, err, wantRep, wantRepErr)

	res, err := WorstMLUSearch(ctx, plan, core.SearchOptions{Seed: 1})
	if err != nil {
		t.Fatalf("%s: WorstMLUSearch: %v", name, err)
	}
	if res.Evals > res.EvalErrors {
		slot := serialSlots(sw, false, []failures.Scenario{res.Scenario})[0]
		if slot.err != nil || !bitsEq(res.Value, slot.mlu) {
			t.Fatalf("%s: WorstMLUSearch reports %.17g at %v; serially %+v", name, res.Value, res.Scenario, slot)
		}
	}
	return tally
}

// serialSlots realizes and judges the scenarios one after another on
// one scratch, as a sweep that runs on fills its slots.
func serialSlots(sw *Sweep, check bool, scenarios []failures.Scenario) []sweepSlot {
	sr := sw.newScratch()
	slots := make([]sweepSlot, len(scenarios))
	for i, sc := range scenarios {
		slots[i].done = true
		if _, err := sw.realize(sc, sr); err != nil {
			slots[i].err = err
			continue
		}
		mlu, err := sw.judge(sc, sr, nil, check)
		if err != nil {
			slots[i].err = err
			continue
		}
		slots[i].mlu = mlu
	}
	return slots
}

// sameSlot reports whether two slots hold the same outcome: the same
// error text, or the same MLU bits.
func sameSlot(a, b sweepSlot) bool {
	return a.done == b.done && verdictText(a.err) == verdictText(b.err) && bitsEq(a.mlu, b.mlu)
}

// verdictText is an error's text, "" for none.
func verdictText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
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

// nearThresholdPlan is the Fig. 5 CLS gadget with one link's capacity
// set so that, under one scenario, an arc's low-rank load and the dense
// loop's — which differ in round-off — lie on either side of capacity +
// Overload: the engine's verdict on that scenario is not the dense
// loop's, and every path through the engine must still give the same
// one. It returns the plan and the scenarios to referee it on, that
// scenario first.
func nearThresholdPlan(t *testing.T) (*core.Plan, []failures.Scenario) {
	t.Helper()
	base := fig5CLSPlan(t)
	scenarios := append(designedSet(base), beyondBudget(base.Instance.Graph, 61, 1000)...)
	sw := newSweep(t, base)
	sr, ref := sw.newScratch(), sw.newScratch()
	for _, sc := range scenarios {
		if sv, err := sw.realize(sc, sr); err != nil || !sv.smw {
			continue
		}
		want, _, err := realizeDenseEmit(sw, sc, ref)
		if err != nil {
			continue
		}
		for _, a := range sr.changed {
			l := topology.LinkOf(topology.ArcID(a))
			_, degraded := sc.Degraded[l]
			delta, dense := sr.arcLoad[a], want.ArcLoad[a]
			if bitsEq(delta, dense) || sc.Dead[l] || degraded {
				continue
			}
			c, ok := capacityEdge(min(delta, dense))
			if !ok {
				continue
			}
			plan := withLinkCapacity(base, l, c)
			psw := newSweep(t, plan)
			psr := psw.newScratch()
			if _, err := psw.realize(sc, psr); err != nil {
				t.Fatal(err)
			}
			_, got := psw.judge(sc, psr, nil, true)
			pwant, _, err := realizeDenseEmit(psw, sc, psw.newScratch())
			if err != nil {
				t.Fatal(err)
			}
			if dv := denseCheck(plan, pwant); verdictKind(got) != verdictKind(dv) {
				t.Logf("near-threshold: arc %d under %v: dense load %.17g, low-rank %.17g, capacity %.17g; dense verdict %q, engine's %q",
					a, sc, dense, delta, c, verdictText(dv), verdictText(got))
				return plan, append([]failures.Scenario{sc}, scenarios...)
			}
		}
	}
	t.Fatal("no low-rank load differs from the dense loop's where a capacity can split them")
	return nil, nil
}

// String names a tally in a log line.
func (t loadTally) String() string {
	return fmt.Sprintf("%d low-rank, %d cold, %d unrealizable, %d rejected, %d undecided; %d reserved LSs",
		t.smw, t.cold, t.realizeErrs, t.checkErrs, t.undecided, t.ReservedLS)
}
