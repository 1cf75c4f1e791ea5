package routing_test

import (
	"testing"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/failures"
	"pcf/internal/routing"
)

// benchmarkPlan solves a benchmark workload's plan as pcfd serves it:
// the prepared setup's PCF-CLS instance, solved by the scheme's row.
func benchmarkPlan(t *testing.T, o eval.Options, scheme string) *core.Plan {
	t.Helper()
	setup, err := eval.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	in, err := setup.CLSInstance()
	if err != nil {
		t.Fatal(err)
	}
	row, _ := core.LookupScheme(scheme)
	plan, err := row.Solve(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestArcLoadsMatchDenseLoop: a low-rank scenario's arc loads — each
// the base load plus the changes of the flows that moved — lie within
// their round-off bound of the dense loop's, read exactly 0 where no
// flow crosses and give the dense loop's verdict wherever it lies
// farther than the bound from the edge, and every sweep, validation,
// sampled validation and search reads the bits a serial realize +
// judge reads (routing.AssertLoadsMatchDense). It runs on every
// designed scenario and 1 000 seeded beyond-budget draws of the
// gadgets, the Sprint CLS plan, the four benchmark plans and a plan
// crafted so that one arc's low-rank and dense loads straddle its
// capacity + Overload, where the paths must agree with each other, on
// forced 4-worker pools. The Sprint CLS plan reserves nothing on its
// bypass LSs, so its matrix is diagonal like the PCF-TF plans'; the
// Fig. 4 and Fig. 5 gadgets' LSs carry reservations, and some engine
// refereed must be one whose LSs do.
func TestArcLoadsMatchDenseLoop(t *testing.T) {
	type refereed struct {
		name      string
		plan      *core.Plan
		scenarios []failures.Scenario
	}
	var plans []refereed
	add := func(name string, plan *core.Plan) {
		scenarios := append(designed(plan), routing.BeyondBudget(plan.Instance.Graph, 55, 1000)...)
		plans = append(plans, refereed{name, plan, scenarios})
	}
	for _, g := range routing.GadgetPlans(t) {
		add(g.Name, g.Plan)
	}
	near, scenarios := routing.NearThresholdPlan(t)
	plans = append(plans, refereed{"near-threshold", near, scenarios})
	btna := eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2}
	add("sprint-tf-f1", benchmarkPlan(t, eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1}, core.SchemePCFTF))
	add("btna-cls-f2", benchmarkPlan(t, btna, core.SchemeBest))
	add("btna-tf-f2", benchmarkPlan(t, btna, core.SchemePCFTF))
	if !testing.Short() {
		add("sprint-cls", routing.SprintCLSPlan(t))
		add("synth1k-tf-f1", benchmarkPlan(t, eval.Options{Synth: "waxman", SynthNodes: 1000, Seed: 1, MaxPairs: 250, FailureBudget: 1}, core.SchemePCFTF))
	}
	nonDiagonal := 0
	for _, p := range plans {
		tally := routing.AssertLoadsMatchDense(t, p.name, p.plan, p.scenarios)
		t.Logf("%s: %d scenarios: %v", p.name, len(p.scenarios), tally)
		if tally.ReservedLS > 0 {
			nonDiagonal++
		}
		if p.name == "near-threshold" && tally.Undecided() == 0 {
			t.Fatal("near-threshold: no scenario's verdict was left undecided by the bound")
		}
	}
	if nonDiagonal == 0 {
		t.Fatal("no LS of any refereed plan carries a reservation: every engine was diagonal")
	}
}

// designed enumerates the plan's designed failure scenarios.
func designed(plan *core.Plan) []failures.Scenario {
	var scenarios []failures.Scenario
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		scenarios = append(scenarios, sc)
		return true
	})
	return scenarios
}

// TestScratchCorrectorsMatchFactorSparse: on every designed scenario and
// 1 000 seeded beyond-budget draws of the gadgets and the four benchmark
// plans, wherever a scenario's updates couple no rows the corrector the
// engine builds in the worker's scratch is the FactorSparse build of
// the same updates and inverse columns, bit for bit, with the same
// refusals (routing.AssertScratchCorrectors). Every benchmark plan's
// rows are their pairs' alone, so the scratch path must serve each.
func TestScratchCorrectorsMatchFactorSparse(t *testing.T) {
	check := func(name string, plan *core.Plan, mustFire bool) {
		scenarios := append(designed(plan), routing.BeyondBudget(plan.Instance.Graph, 55, 1000)...)
		fired := routing.AssertScratchCorrectors(t, name, plan, scenarios)
		t.Logf("%s: %d of %d scenarios built their corrector in the scratch", name, fired, len(scenarios))
		if mustFire && fired == 0 {
			t.Fatalf("%s: no scenario took the scratch path", name)
		}
	}
	for _, g := range routing.GadgetPlans(t) {
		check(g.Name, g.Plan, false)
	}
	btna := eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2}
	check("sprint-tf-f1", benchmarkPlan(t, eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1}, core.SchemePCFTF), true)
	check("btna-cls-f2", benchmarkPlan(t, btna, core.SchemeBest), true)
	check("btna-tf-f2", benchmarkPlan(t, btna, core.SchemePCFTF), true)
	if !testing.Short() {
		check("synth1k-tf-f1", benchmarkPlan(t, eval.Options{Synth: "waxman", SynthNodes: 1000, Seed: 1, MaxPairs: 250, FailureBudget: 1}, core.SchemePCFTF), true)
	}
}
