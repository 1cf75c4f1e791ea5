package faultinject

import (
	"context"
	"errors"
	"math"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/routing"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// sweepCLSPlan builds a PCF-CLS plan on Sprint large enough that the
// incremental sweep attempts many rank-k SMW updates, each of which
// consults the fault hook.
func sweepCLSPlan(t *testing.T) *core.Plan {
	t.Helper()
	g := topozoo.MustLoad("Sprint")
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 5, Jitter: 0.4})
	pairs := tm.TopPairs(8)
	tm = tm.Restrict(pairs)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Graph:     g,
		TM:        tm,
		Tunnels:   ts,
		Failures:  failures.SingleLinks(g, 1),
		Objective: core.DemandScale,
	}
	clsIn, _, err := core.BuildCLSQuick(in)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.SolvePCFCLS(clsIn, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestIllConditionedUpdatesWiring pins the injector's own contract: the
// returned error wraps linsolve.ErrIllConditioned, everyN selects every
// N-th update, and the counter reports exactly the failed ones.
func TestIllConditionedUpdatesWiring(t *testing.T) {
	hook, fired := IllConditionedUpdates(3)
	failedAt := []int{}
	for i := 1; i <= 9; i++ {
		if err := hook(nil); err != nil {
			if !errors.Is(err, linsolve.ErrIllConditioned) {
				t.Fatalf("update %d: error does not wrap linsolve.ErrIllConditioned: %v", i, err)
			}
			failedAt = append(failedAt, i)
		}
	}
	if want := []int{3, 6, 9}; len(failedAt) != 3 || failedAt[0] != want[0] || failedAt[1] != want[1] || failedAt[2] != want[2] {
		t.Fatalf("everyN=3 failed updates %v, want %v", failedAt, want)
	}
	if fired() != 3 {
		t.Fatalf("fired() = %d, want 3", fired())
	}
	// everyN < 1 normalizes to "every update".
	hookAll, firedAll := IllConditionedUpdates(0)
	for i := 0; i < 4; i++ {
		if err := hookAll(nil); err == nil {
			t.Fatalf("everyN=0 let update %d through", i)
		}
	}
	if firedAll() != 4 {
		t.Fatalf("everyN=0 fired() = %d, want 4", firedAll())
	}
}

// newSweep builds the plan's realization engine.
func newSweep(t *testing.T, plan *core.Plan) *routing.Sweep {
	t.Helper()
	sw, err := routing.NewSweepContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestIllConditionedUpdatesSweep is the satellite's acceptance check
// from the injector's side: wiring IllConditionedUpdates into
// routing.SweepUpdateFault forces the affected scenarios off the SMW
// path, SweepStats.Fallbacks counts exactly the injected failures, and
// every realization the injector forced cold is bit-identical to a cold
// Realize (the rest, served from the base, agree to 1e-9) — the fault
// changes the code path, never the answer.
func TestIllConditionedUpdatesSweep(t *testing.T) {
	plan := sweepCLSPlan(t)

	// Baseline counters without the fault.
	base := newSweep(t, plan)
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		if _, err := base.Realize(sc); err != nil {
			t.Fatalf("baseline under %v: %v", sc, err)
		}
		return true
	})
	st0 := base.Stats()
	if st0.SMWHits == 0 {
		t.Fatalf("baseline sweep never took the SMW path (stats %+v) — instance too small to exercise the injector", st0)
	}

	// Fail every update: each scenario that attempts one lands on the
	// cold path, whose results are bit-equal by construction. A scenario
	// that attempts none (nothing the plan uses died) is served from the
	// sparse base, which is only tolerance-equal to cold. (A partial
	// everyN would leave some scenarios on the SMW path too — the
	// selectivity contract is pinned by TestIllConditionedUpdatesWiring
	// instead.)
	hook, fired := IllConditionedUpdates(1)
	routing.SweepUpdateFault = hook
	defer func() { routing.SweepUpdateFault = nil }()

	sw := newSweep(t, plan)
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		before := fired()
		got, gerr := sw.Realize(sc)
		injected := fired() > before
		want, werr := routing.Realize(plan, sc)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("under %v: sweep err %v, cold err %v", sc, gerr, werr)
		}
		if gerr != nil {
			return true
		}
		same := func(what string, i int, g, w float64) {
			if injected && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("under %v: %s[%d] = %g, cold has %g (not bit-equal)", sc, what, i, g, w)
			}
			if math.Abs(g-w) > 1e-9 {
				t.Fatalf("under %v: %s[%d] = %g, cold has %g", sc, what, i, g, w)
			}
		}
		for i := range want.U {
			same("U", i, got.U[i], want.U[i])
		}
		for a := range want.ArcLoad {
			same("ArcLoad", a, got.ArcLoad[a], want.ArcLoad[a])
		}
		return true
	})

	n := fired()
	if n == 0 {
		t.Fatal("injector never fired — no scenario attempted an SMW update")
	}
	st := sw.Stats()
	// Each injected failure converts one would-be SMW hit into a counted
	// fallback; everything else (k == 0 scenarios, any other fallback)
	// is untouched.
	if st.SMWHits+n != st0.SMWHits {
		t.Fatalf("SMWHits = %d with %d injected faults, baseline %d", st.SMWHits, n, st0.SMWHits)
	}
	if st.Fallbacks != st0.Fallbacks+n {
		t.Fatalf("Fallbacks = %d, want baseline %d + %d injected", st.Fallbacks, st0.Fallbacks, n)
	}
}
