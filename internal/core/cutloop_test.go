package core_test

import (
	"testing"

	"pcf/internal/core"
	"pcf/internal/eval"
)

// btnaCLSInstance is the PCF-CLS instance of the btna-cls-f2 benchmark
// topology: BTNorthAmerica, its 40 heaviest pairs, f = 2, with
// core.BuildCLSQuick's logical sequences.
func btnaCLSInstance(tb testing.TB) *core.Instance {
	tb.Helper()
	setup, err := eval.Prepare(eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2})
	if err != nil {
		tb.Fatal(err)
	}
	in, _, err := core.BuildCLSQuick(&core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// TestCutLoopOracleCounts pins the cut loop on the BTNorthAmerica
// PCF-CLS instance: its rounds, cuts and pivots, how many of its
// separation-oracle calls repeat their polytope's previous costs and
// take the saved answer instead of a simplex solve, and its pricing
// passes and the bypass columns they entered (25 of the 152). A changed
// round, cut or iteration count means a pivot moved; fewer reused calls
// mean the saved answer stopped matching.
func TestCutLoopOracleCounts(t *testing.T) {
	plan, err := core.SolveBest(btnaCLSInstance(t), core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats
	got := [7]int{st.Rounds, st.Cuts, st.LPIterations, st.OracleCalls, st.OracleSolves, st.PricingRounds, st.ColumnsPriced}
	want := [7]int{18, 1149, 559, 1789, 401, 15, 25}
	if plan.Scheme != "PCF-CLS" || got != want {
		t.Fatalf("%s: rounds, cuts, LP iterations, oracle calls, oracle solves, pricing rounds, columns priced = %v, want PCF-CLS %v", plan.Scheme, got, want)
	}
	m := st.Metrics()
	if m["oracle_calls"] != 1789 || m["oracle_solves"] != 401 || m["pricing_rounds"] != 15 || m["columns_priced"] != 25 {
		t.Fatalf("Metrics: oracle_calls %v, oracle_solves %v, pricing_rounds %v, columns_priced %v",
			m["oracle_calls"], m["oracle_solves"], m["pricing_rounds"], m["columns_priced"])
	}
}
