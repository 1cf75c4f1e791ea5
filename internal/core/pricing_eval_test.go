package core_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/lp"
	"pcf/internal/topozoo"
)

// pricedMatchesFullPool solves in's PCF-CLS priced and on the full pool
// and fails unless the values agree to 1e-9.
func pricedMatchesFullPool(t *testing.T, name string, in *core.Instance) *core.Plan {
	t.Helper()
	priced, err := core.SolvePCFCLS(in, core.SolveOptions{})
	if err != nil {
		t.Fatalf("%s priced: %v", name, err)
	}
	full, err := core.SolveFullPool(in, core.SolveOptions{})
	if err != nil {
		t.Fatalf("%s full pool: %v", name, err)
	}
	if d := math.Abs(priced.Value - full.Value); d > 1e-9 {
		t.Errorf("%s: priced PCF-CLS %.12f, full pool %.12f (|Δ| %.3g)", name, priced.Value, full.Value, d)
	}
	pool := 0
	for _, q := range in.LSs {
		if q.Cond != nil {
			pool++
		}
	}
	t.Logf("%s: %.10f, %d of %d pool columns priced in, %d pricing rounds", name, priced.Value, priced.Stats.ColumnsPriced, pool, priced.Stats.PricingRounds)
	return priced
}

// TestPricedMatchesFullPoolBTNA: on the btna-cls-f2 instance the priced
// master reaches the full pool's value, 0.1625609826.
func TestPricedMatchesFullPoolBTNA(t *testing.T) {
	p := pricedMatchesFullPool(t, "btna-cls-f2", btnaCLSInstance(t))
	if math.Abs(p.Value-0.1625609826) > 1e-10 {
		t.Fatalf("btna-cls-f2: %.10f, want 0.1625609826", p.Value)
	}
}

// TestPricedMatchesFullPoolZoo: on every topology of the zoo at f = 1
// with 20 pairs (pcfeval -exp fig11 -pairs 20), and on five of them in
// Fig. 12's setting (links split into two sub-links, f = 3, 6 tunnels
// per pair), the served PCF-CLS instance's priced value equals its
// full pool's to 1e-9.
func TestPricedMatchesFullPoolZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every zoo topology twice")
	}
	start := time.Now()
	for _, name := range topozoo.Names() {
		pricedMatchesFullPool(t, name+" f=1", clsInstance(t, eval.Options{Topology: name, Seed: 1, MaxPairs: 20, FailureBudget: 1}))
	}
	t.Logf("f=1: %v", time.Since(start))
	start = time.Now()
	for _, name := range []string{"Xeex", "Digex", "Quest", "Sprint", "BTNorthAmerica"} {
		pricedMatchesFullPool(t, name+" fig12", clsInstance(t, eval.Options{
			Topology: name, Seed: 1, MaxPairs: 20, FailureBudget: 3, SubLinkSplit: 2,
			TunnelsPerPair: 6, FFCTunnels: 4,
		}))
	}
	t.Logf("fig12 setting: %v", time.Since(start))
}

// clsInstance is the PCF-CLS instance every entry point serves for o.
func clsInstance(t *testing.T, o eval.Options) *core.Instance {
	t.Helper()
	setup, err := eval.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	in, err := setup.CLSInstance()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestPricingFailureServesLSIterate: a numerical breakdown in the first
// re-solve after pricing makes best serve the LS iterate it holds — the
// PCF-LS row's plan, bit for bit, with PCF-CLS abandoned — without
// solving another rung, and leaves the kept master as a full re-plan
// needs it.
func TestPricingFailureServesLSIterate(t *testing.T) {
	in := btnaCLSInstance(t)
	lsRow, _ := core.LookupScheme(core.SchemePCFLS)
	best, _ := core.LookupScheme(core.SchemeBest)
	want, err := lsRow.Solve(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantBest, err := best.Solve(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sv := core.NewSolver(in)
	starts := 0
	opts := core.SolveOptions{}
	opts.LP.FaultHook = func(ev lp.FaultEvent) error {
		if ev.Point == lp.FaultSolveStart {
			if starts++; starts == want.Stats.Rounds+1 {
				return lp.ErrNumerical
			}
		}
		return nil
	}
	got, err := sv.Solve(best, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != core.SchemePCFLS || fmt.Sprint(got.Degraded) != "[PCF-CLS]" {
		t.Fatalf("served %s, degraded %v; want PCF-LS with PCF-CLS abandoned", got.Scheme, got.Degraded)
	}
	if starts != want.Stats.Rounds+1 {
		t.Fatalf("%d master solves started, want %d: the LS iterate's and the failed one", starts, want.Stats.Rounds+1)
	}
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) || fmt.Sprint(got.TunnelRes) != fmt.Sprint(want.TunnelRes) || fmt.Sprint(got.LSRes) != fmt.Sprint(want.LSRes) {
		t.Fatalf("LS iterate %.17g, PCF-LS row %.17g: plans differ", got.Value, want.Value)
	}
	again, err := sv.Solve(best, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Scheme != core.SchemePCFCLS || math.Float64bits(again.Value) != math.Float64bits(wantBest.Value) || again.Stats.LPIterations != wantBest.Stats.LPIterations {
		t.Fatalf("re-plan after the failure: %s %.17g (%d pivots), one-shot %s %.17g (%d pivots)",
			again.Scheme, again.Value, again.Stats.LPIterations, wantBest.Scheme, wantBest.Value, wantBest.Stats.LPIterations)
	}
}
