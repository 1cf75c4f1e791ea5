package routing_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/failures"
	"pcf/internal/routing"
	"pcf/internal/topology"
)

// servedPlan solves a benchmark workload's instance the way the
// benchmark's daemon does: the prepared instance as it is, over
// BuildCLSQuick's sequences for the best ladder, solved by the named
// scheme's row.
func servedPlan(t *testing.T, o eval.Options, scheme string) *core.Plan {
	t.Helper()
	setup, err := eval.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	}
	if scheme == core.SchemeBest {
		if in, _, err = core.BuildCLSQuick(in); err != nil {
			t.Fatal(err)
		}
	}
	row, ok := core.LookupScheme(scheme)
	if !ok {
		t.Fatalf("no scheme %q", scheme)
	}
	plan, err := row.Solve(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// unreservedLinks lists the links no tunnel with a positive
// reservation crosses and no sequence's condition names: killing one
// beside a scenario leaves what its realization reads unchanged.
func unreservedLinks(plan *core.Plan) []topology.LinkID {
	in := plan.Instance
	used := make([]bool, in.Graph.NumLinks())
	for tid, res := range plan.TunnelRes {
		if res > 0 {
			for _, a := range in.Tunnels.Tunnel(tid).Path.Arcs {
				used[topology.LinkOf(a)] = true
			}
		}
	}
	for _, q := range in.LSs {
		if q.Cond != nil {
			for _, l := range q.Cond.Links() {
				used[l] = true
			}
		}
	}
	var out []topology.LinkID
	for l, u := range used {
		if !u {
			out = append(out, topology.LinkID(l))
		}
	}
	return out
}

// deadOnly is sc as a client names it: its dead links and nothing else.
func deadOnly(sc failures.Scenario) failures.Scenario {
	return failures.Scenario{Dead: sc.Dead}
}

// sameOutcome requires got and want to be one answer: equal pair
// counts, MaxU and MLU bit for bit, or the same error text.
func sameOutcome(t *testing.T, what string, got, want routing.Outcome, gerr, werr error) {
	t.Helper()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, the realization's %v", what, gerr, werr)
	}
	if got.Pairs != want.Pairs || math.Float64bits(got.MaxU) != math.Float64bits(want.MaxU) ||
		math.Float64bits(got.MLU) != math.Float64bits(want.MLU) {
		t.Fatalf("%s: %+v, the realization %+v", what, got, want)
	}
}

// TestOutcomeFromKeptPass: on the four benchmark plans, a published
// engine (ValidateStats run) answers every designed scenario, given by
// its dead links alone, from its kept designed pass — one KeptHits per
// call — with the outcome a never-validated engine realizes, bit for
// bit; so does it a beyond-budget scenario whose key is a designed
// class's (a designed scenario plus a link no reserved tunnel crosses).
// A scenario with a degraded link, an engine whose only pass was
// canceled and one that ran only WorstMLUStats' unchecked pass realize,
// and KeptHits stays where it was. Outcome calls racing the first
// ValidateStats on a forced 4-worker pool answer the same.
func TestOutcomeFromKeptPass(t *testing.T) {
	defer routing.SetSweepWorkers(4)()
	ctx := context.Background()
	btna := eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2}
	plans := []struct {
		name  string
		build func(*testing.T) *core.Plan
		long  bool
	}{
		{"sprint-tf-f1", func(t *testing.T) *core.Plan {
			return servedPlan(t, eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1}, core.SchemePCFTF)
		}, false},
		{"btna-cls-f2", func(t *testing.T) *core.Plan { return servedPlan(t, btna, core.SchemeBest) }, false},
		{"btna-tf-f2", func(t *testing.T) *core.Plan { return servedPlan(t, btna, core.SchemePCFTF) }, false},
		{"synth1k-tf-f1", func(t *testing.T) *core.Plan {
			return servedPlan(t, eval.Options{Synth: "waxman", SynthNodes: 1000, Seed: 1, MaxPairs: 250, FailureBudget: 1}, core.SchemePCFTF)
		}, true},
	}
	extras := 0
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("the 1000-node solve is slow")
			}
			plan := tc.build(t)
			newEngine := func() *routing.Sweep {
				sw, err := routing.NewSweepContext(ctx, plan)
				if err != nil {
					t.Fatal(err)
				}
				return sw
			}
			ref := newEngine()
			scenarios := designed(plan)
			want := make([]routing.Outcome, len(scenarios))
			werr := make([]error, len(scenarios))
			for i, sc := range scenarios {
				want[i], werr[i] = ref.Outcome(deadOnly(sc))
			}

			// Outcome racing the first ValidateStats, then the published
			// engine on every designed scenario.
			pub := newEngine()
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; ; i = (i + 3) % len(scenarios) {
						select {
						case <-stop:
							return
						default:
						}
						got, err := pub.Outcome(deadOnly(scenarios[i]))
						if fmt.Sprint(err) != fmt.Sprint(werr[i]) || got != want[i] {
							t.Errorf("%v racing the first ValidateStats: %+v (%v), the realization %+v (%v)", scenarios[i], got, err, want[i], werr[i])
							return
						}
					}
				}(w)
			}
			_, verr := pub.ValidateStats(ctx)
			close(stop)
			wg.Wait()
			if verr != nil {
				t.Fatal(verr)
			}
			for i, sc := range scenarios {
				before := pub.Stats().KeptHits
				got, err := pub.Outcome(deadOnly(sc))
				sameOutcome(t, fmt.Sprint(sc), got, want[i], err, werr[i])
				if hits := pub.Stats().KeptHits - before; hits != 1 {
					t.Fatalf("%v: KeptHits rose by %d, want 1", sc, hits)
				}
			}

			// Beyond the budget, in a designed class.
			free := unreservedLinks(plan)
			for i, sc := range scenarios[:min(len(scenarios), 40)] {
				for _, l := range free[:min(len(free), 3)] {
					if sc.Dead[l] {
						continue
					}
					beyond := failures.Scenario{Dead: map[topology.LinkID]bool{l: true}}
					for d := range sc.Dead {
						beyond.Dead[d] = true
					}
					w, we := ref.Outcome(beyond)
					sameOutcome(t, fmt.Sprintf("%v and link %d", sc, l), w, want[i], we, werr[i])
					before := pub.Stats().KeptHits
					got, err := pub.Outcome(beyond)
					sameOutcome(t, fmt.Sprintf("%v and link %d", sc, l), got, w, err, we)
					if hits := pub.Stats().KeptHits - before; hits != 1 {
						t.Fatalf("%v and link %d: KeptHits rose by %d, want 1", sc, l, hits)
					}
					extras++
				}
			}

			// Realized: a degraded link.
			hits := pub.Stats().KeptHits
			for _, sc := range scenarios[:min(len(scenarios), 40)] {
				for l := range topology.LinkID(min(plan.Instance.Graph.NumLinks(), 4)) {
					if sc.Dead[l] {
						continue
					}
					deg := failures.Scenario{Dead: sc.Dead, Degraded: map[topology.LinkID]float64{l: 0.5}}
					w, we := ref.Outcome(deg)
					got, err := pub.Outcome(deg)
					sameOutcome(t, fmt.Sprintf("%v with link %d degraded", sc, l), got, w, err, we)
				}
			}
			if got := pub.Stats().KeptHits; got != hits {
				t.Fatalf("degraded scenarios moved KeptHits from %d to %d", hits, got)
			}

			// Realized: an engine whose only pass was canceled at its
			// last Err call, and one that ran only the unchecked pass.
			count, calls := routing.ErrAfter(ctx, math.MaxInt64)
			if _, err := newEngine().ValidateStats(count); err != nil {
				t.Fatal(err)
			}
			canceled := newEngine()
			cut, _ := routing.ErrAfter(ctx, calls()-1)
			if _, err := canceled.ValidateStats(cut); err == nil {
				t.Fatal("ValidateStats canceled at its last Err call returned no error")
			}
			unchecked := newEngine()
			if err := unchecked.SweepUnchecked(ctx); err != nil {
				t.Fatal(err)
			}
			for _, e := range []struct {
				name string
				sw   *routing.Sweep
			}{{"canceled", canceled}, {"unchecked", unchecked}} {
				for i, sc := range scenarios[:min(len(scenarios), 200)] {
					got, err := e.sw.Outcome(deadOnly(sc))
					sameOutcome(t, fmt.Sprintf("%s engine: %v", e.name, sc), got, want[i], err, werr[i])
				}
				if st := e.sw.Stats(); st.KeptHits != 0 || st.Classes != st.Scenarios {
					t.Fatalf("%s engine: %d kept hits, %d of %d scenarios realized: want none kept", e.name, st.KeptHits, st.Classes, st.Scenarios)
				}
			}
			if st := ref.Stats(); st.KeptHits != 0 {
				t.Fatalf("the never-validated engine counts %d kept hits", st.KeptHits)
			}
			t.Logf("%s: %d designed scenarios from the kept pass, %d unreserved links", tc.name, len(scenarios), len(free))
		})
	}
	if extras == 0 {
		t.Fatal("no beyond-budget scenario keyed to a designed class: no plan has an unreserved link")
	}

	// A failing pass is kept too: the classes whose slot holds an error,
	// or that no worker reached once one failed, realize.
	t.Run("sprint-tf-f1 at f=2", func(t *testing.T) {
		plan := servedPlan(t, eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1}, core.SchemePCFTF)
		in := *plan.Instance
		in.Failures = &failures.Set{Units: in.Failures.Units, Budget: 2}
		over := *plan
		//lint:ignore pcflint/mutafterpub a local copy of the plan, never published, pointed at a copy of its instance
		over.Instance = &in
		ref, err := routing.NewSweepContext(ctx, &over)
		if err != nil {
			t.Fatal(err)
		}
		pub, err := routing.NewSweepContext(ctx, &over)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pub.ValidateStats(ctx); err == nil {
			t.Fatal("the f=1 plan validates at f=2: no slot holds an error")
		}
		scenarios := designed(&over)
		for _, sc := range scenarios {
			want, werr := ref.Outcome(deadOnly(sc))
			got, gerr := pub.Outcome(deadOnly(sc))
			sameOutcome(t, fmt.Sprint(sc), got, want, gerr, werr)
		}
		if st := pub.Stats(); st.KeptHits == 0 || st.Classes == 0 {
			t.Fatalf("%d of %d scenarios answered from the failing pass, %d realized: want some of each", st.KeptHits, len(scenarios), st.Classes)
		}
	})
}
