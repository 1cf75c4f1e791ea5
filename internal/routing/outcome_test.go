package routing

import (
	"errors"
	"runtime/debug"
	"slices"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
)

// raceEnabled reports whether the test binary runs under the race
// detector, whose own allocations would count against an allocation
// budget.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// outcomeScenarios is the designed set and 300 seeded beyond-budget
// scenarios, a third of them degraded.
func outcomeScenarios(plan *core.Plan) []failures.Scenario {
	beyond := beyondBudget(plan.Instance.Graph, 28, 300)
	for i := range beyond {
		if i%3 != 0 {
			beyond[i].Degraded = nil
		}
	}
	return append(designedSet(plan), beyond...)
}

// assertOutcomeMatches requires outcome(sc) to be what realize(sc)
// comes to: the pair count, the largest U and MLUOf bit for bit, or the
// same error text. An error the scenario causes must be ErrUnrealizable.
// It returns how many scenarios realized.
func assertOutcomeMatches(t *testing.T, what string, plan *core.Plan, scenarios []failures.Scenario,
	outcome func(failures.Scenario) (Outcome, error), realize func(failures.Scenario) (*Realization, error)) int {
	t.Helper()
	g := plan.Instance.Graph
	realized := 0
	for _, sc := range scenarios {
		got, gerr := outcome(sc)
		r, err := realize(sc)
		if err != nil || gerr != nil {
			if err == nil || gerr == nil || gerr.Error() != err.Error() {
				t.Fatalf("%s under %v: Outcome error %v, Realize error %v", what, sc, gerr, err)
			}
			if !errors.Is(gerr, ErrUnrealizable) {
				t.Fatalf("%s under %v: error %v is not ErrUnrealizable", what, sc, gerr)
			}
			continue
		}
		realized++
		maxU := 0.0
		for _, u := range r.U {
			maxU = max(maxU, u)
		}
		if got.Pairs != len(r.Pairs) || !bitsEq(got.MaxU, maxU) || !bitsEq(got.MLU, MLUOf(g, r)) {
			t.Fatalf("%s under %v: Outcome %+v, Realize %d pairs max U %.17g MLU %.17g",
				what, sc, got, len(r.Pairs), maxU, MLUOf(g, r))
		}
	}
	if realized == 0 {
		t.Fatalf("%s: no scenario realized", what)
	}
	return realized
}

// TestOutcomeMatchesRealize: Outcome is Realize + MLUOf without the
// Realization, on a warm engine, on one whose every correction is forced
// cold, and on a cold-only index — and a warm scenario through it
// allocates nothing.
func TestOutcomeMatchesRealize(t *testing.T) {
	defer func() { SweepUpdateFault = nil }()
	for _, tc := range deltaPlans(t) {
		plan := tc.plan
		scenarios := outcomeScenarios(plan)

		sw := newSweep(t, plan)
		n := assertOutcomeMatches(t, tc.name+" warm", plan, scenarios, sw.Outcome, sw.Realize)
		if st := sw.Stats(); st.Scenarios != 2*len(scenarios) || st.SMWHits+st.Fallbacks != 2*n {
			t.Fatalf("%s: stats %+v after %d scenarios (%d realized) through each entry point", tc.name, st, len(scenarios), n)
		}

		t.Logf("%s: %d of %d scenarios realized", tc.name, n, len(scenarios))

		SweepUpdateFault = func([]linsolve.RowUpdate) error { return linsolve.ErrIllConditioned }
		forced := newSweep(t, plan)
		assertOutcomeMatches(t, tc.name+" forced cold", plan, scenarios, forced.Outcome, forced.Realize)
		SweepUpdateFault = nil
		if forced.Stats().Fallbacks == 0 {
			t.Fatalf("%s: no scenario went cold under the injected fault", tc.name)
		}

		cold := newIndex(plan)
		assertOutcomeMatches(t, tc.name+" cold-only", plan, scenarios, cold.Outcome,
			func(sc failures.Scenario) (*Realization, error) { return Realize(plan, sc) })

		if raceEnabled() {
			continue
		}
		for _, sc := range designedSet(plan) {
			if _, err := sw.Outcome(sc); err != nil {
				continue
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := sw.Outcome(sc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s under %v: %.0f allocations per warm Outcome, want 0", tc.name, sc, allocs)
			}
		}
	}
}
