package routing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// fig5CLSPlan is the paper's Fig. 5 example with a LinkAlive
// conditional LS under double failures: scenarios both deactivate the
// LS and drop pairs from the pairs-of-interest set, exercising the
// sweep's membership-change and identity-row handling.
func fig5CLSPlan(t *testing.T) *core.Plan {
	t.Helper()
	gad := topozoo.Fig5()
	g := gad.Graph
	s, tt, n4 := gad.S, gad.T, gad.Aux["4"]
	pair := topology.Pair{Src: s, Dst: tt}
	ts := tunnels.NewSet(g)
	for _, p := range gad.Tunnels {
		ts.MustAdd(pair, p)
	}
	mustPath := func(nodes ...topology.NodeID) topology.Path {
		var arcs []topology.ArcID
		for i := 0; i+1 < len(nodes); i++ {
			ok := false
			for _, a := range g.OutArcs(nodes[i]) {
				if _, to := g.ArcEnds(a); to == nodes[i+1] {
					arcs = append(arcs, a)
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("no link %d-%d", nodes[i], nodes[i+1])
			}
		}
		return topology.Path{Arcs: arcs}
	}
	s4 := topology.Pair{Src: s, Dst: n4}
	p4t := topology.Pair{Src: n4, Dst: tt}
	ts.MustAdd(s4, mustPath(s, n4))
	ts.MustAdd(p4t, mustPath(n4, gad.Aux["1"], gad.Aux["5"], tt))
	ts.MustAdd(p4t, mustPath(n4, gad.Aux["2"], gad.Aux["6"], tt))
	ts.MustAdd(p4t, mustPath(n4, gad.Aux["3"], gad.Aux["7"], tt))
	var s4link topology.LinkID = -1
	for _, l := range g.Links() {
		if (l.A == s && l.B == n4) || (l.A == n4 && l.B == s) {
			s4link = l.ID
		}
	}
	in := &core.Instance{
		Graph:     g,
		TM:        traffic.Single(g.NumNodes(), pair, 1),
		Tunnels:   ts,
		LSs:       []core.LogicalSequence{{ID: 0, Pair: pair, Hops: []topology.NodeID{n4}, Cond: core.LinkAlive(s4link)}},
		Failures:  failures.SingleLinks(g, 2),
		Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFCLS(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// fig4LSPlan is corollaryPlan generalized to any Fig4 parameters.
func fig4LSPlan(t *testing.T, p, n, m, f int) *core.Plan {
	t.Helper()
	gad := topozoo.Fig4(p, n, m)
	g := gad.Graph
	ts := tunnels.NewSet(g)
	for _, l := range g.Links() {
		ts.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
	}
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	var hops []topology.NodeID
	for i := 1; i < m; i++ {
		hops = append(hops, gad.Aux[fmt.Sprintf("s%d", i)])
	}
	in := &core.Instance{
		Graph:   g,
		TM:      traffic.Single(g.NumNodes(), pair, 1),
		Tunnels: ts,
		LSs: []core.LogicalSequence{{
			ID: 0, Pair: pair,
			Hops: hops,
		}},
		Failures:  failures.SingleLinks(g, f),
		Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFLS(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// sprintCLSPlan builds a PCF-CLS plan on Sprint with BuildCLSQuick's
// LinkDead bypass LSs: the conditional sequences *activate* under
// failures, so scenario pair sets are not subsets of the no-failure
// set — the case the sweep's universe pair space exists for.
func sprintCLSPlan(t *testing.T) *core.Plan {
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

// newSweep builds the plan's engine without a deadline (the nil-ctx
// contract: it cannot fail).
func newSweep(t *testing.T, plan *core.Plan) *Sweep {
	t.Helper()
	sw, err := NewSweepContext(nil, plan)
	if err != nil {
		t.Fatalf("NewSweepContext: %v", err)
	}
	return sw
}

// designedSet enumerates the plan's designed failure scenarios.
func designedSet(plan *core.Plan) []failures.Scenario {
	var scenarios []failures.Scenario
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		scenarios = append(scenarios, sc)
		return true
	})
	return scenarios
}

// sweep is sweepSome over every scenario.
func sweep(ctx context.Context, sw *Sweep, check, stopOnError bool, n int, fill scenarioFill) ([]sweepSlot, *SweepStats) {
	return sweepSome(ctx, sw, check, stopOnError, n, fill, nil)
}

// sweepScenarios sweeps a scenario list through sw.
func sweepScenarios(ctx context.Context, sw *Sweep, check, stopOnError bool, scenarios []failures.Scenario) ([]sweepSlot, *SweepStats) {
	return sweep(ctx, sw, check, stopOnError, len(scenarios), func(i int, dst *failures.Scenario) { *dst = scenarios[i] })
}

// validate and worstMLU are the stats-less shorthands most tests want.
func validate(plan *core.Plan) error {
	_, err := ValidateStats(nil, plan, ValidateOptions{})
	return err
}

func worstMLU(plan *core.Plan) (float64, failures.Scenario, error) {
	worst, sc, _, err := WorstMLUStats(nil, plan, ValidateOptions{})
	return worst, sc, err
}

// proportionalWorst replays the designed set through the §4.2
// proportional router: each scenario realized by RealizeProportional,
// checked by CheckRealization, and the worst MLUOf returned — the
// proportional counterpart of worstMLU.
func proportionalWorst(plan *core.Plan) (float64, error) {
	worst := 0.0
	for _, sc := range designedSet(plan) {
		r, err := RealizeProportional(plan, sc)
		if err == nil {
			err = CheckRealization(plan, r)
		}
		if err != nil {
			return worst, err
		}
		worst = max(worst, MLUOf(plan.Instance.Graph, r))
	}
	return worst, nil
}

// assertSweepMatchesCold replays every scenario through both the
// incremental engine and the dense oracle and requires agreement to
// 1e-9 relative — the engine's acceptance contract.
func assertSweepMatchesCold(t *testing.T, plan *core.Plan) {
	t.Helper()
	const tol = 1e-9
	sw := newSweep(t, plan)
	relOK := func(got, want float64) bool {
		d := math.Abs(got - want)
		if s := math.Abs(want); s > 1 {
			d /= s
		}
		return d <= tol
	}
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		want, werr := denseRealize(plan, sc)
		got, gerr := sw.Realize(sc)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("under %v: cold err %v, sweep err %v", sc, werr, gerr)
		}
		if werr != nil {
			return true
		}
		if len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("under %v: %d pairs, cold has %d", sc, len(got.Pairs), len(want.Pairs))
		}
		for i := range want.Pairs {
			if got.Pairs[i] != want.Pairs[i] {
				t.Fatalf("under %v: pair[%d] = %v, cold has %v", sc, i, got.Pairs[i], want.Pairs[i])
			}
			if !relOK(got.U[i], want.U[i]) {
				t.Fatalf("under %v: U[%v] = %.12g, cold has %.12g", sc, want.Pairs[i], got.U[i], want.U[i])
			}
		}
		for a := range want.ArcLoad {
			if !relOK(got.ArcLoad[a], want.ArcLoad[a]) {
				t.Fatalf("under %v: ArcLoad[%d] = %.12g, cold has %.12g", sc, a, got.ArcLoad[a], want.ArcLoad[a])
			}
		}
		if len(got.TunnelTo) != len(want.TunnelTo) {
			t.Fatalf("under %v: %d destinations, cold has %d", sc, len(got.TunnelTo), len(want.TunnelTo))
		}
		for dst, wantFlows := range want.TunnelTo {
			gotFlows, ok := got.TunnelTo[dst]
			if !ok {
				t.Fatalf("under %v: destination %d missing", sc, dst)
			}
			for tid, wv := range wantFlows {
				if !relOK(gotFlows[tid], wv) {
					t.Fatalf("under %v: flow[%d][%d] = %.12g, cold has %.12g", sc, dst, tid, gotFlows[tid], wv)
				}
			}
			for tid, gv := range gotFlows {
				if _, ok := wantFlows[tid]; !ok && gv > 1e-12 {
					t.Fatalf("under %v: spurious flow[%d][%d] = %g", sc, dst, tid, gv)
				}
			}
		}
		return true
	})
	st := sw.Stats()
	if st.Scenarios == 0 {
		t.Fatal("sweep served no scenarios")
	}
	if st.SMWHits == 0 {
		t.Fatalf("sweep never took the low-rank path (stats %+v)", st)
	}
	if err := validate(plan); err != nil {
		t.Fatalf("parallel validation: %v", err)
	}
}

func TestSweepMatchesColdFig1(t *testing.T) {
	for _, f := range []int{1, 2} {
		assertSweepMatchesCold(t, fig1Plan(t, f))
	}
}

func TestSweepMatchesColdFig3(t *testing.T) {
	// Fig3 is Fig4(3,2,2); protect n-1 = 1 failure.
	assertSweepMatchesCold(t, fig4LSPlan(t, 3, 2, 2, 1))
}

func TestSweepMatchesColdFig4(t *testing.T) {
	assertSweepMatchesCold(t, fig4LSPlan(t, 3, 2, 3, 1))
}

func TestSweepMatchesColdFig5CLS(t *testing.T) {
	assertSweepMatchesCold(t, fig5CLSPlan(t))
}

func TestSweepMatchesColdSprintCLS(t *testing.T) {
	if testing.Short() {
		t.Skip("Sprint CLS plan solve is slow")
	}
	assertSweepMatchesCold(t, sprintCLSPlan(t))
}

// TestWorstMLUMatchesSerialCold pins the deterministic-merge contract:
// the parallel sweep returns the same worst utilization as a serial
// loop over the dense oracle, and the reported scenario attains it.
func TestWorstMLUMatchesSerialCold(t *testing.T) {
	for _, plan := range []*core.Plan{fig1Plan(t, 2), fig5CLSPlan(t)} {
		worst := 0.0
		g := plan.Instance.Graph
		mluOf := func(sc failures.Scenario) float64 {
			r, err := denseRealize(plan, sc)
			if err != nil {
				t.Fatal(err)
			}
			m := 0.0
			for a, load := range r.ArcLoad {
				if c := g.ArcCapacity(topology.ArcID(a)); c > 0 {
					if u := load / c; u > m {
						m = u
					}
				}
			}
			return m
		}
		plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
			if m := mluOf(sc); m > worst {
				worst = m
			}
			return true
		})
		got, gotSc, err := worstMLU(plan)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-worst) > 1e-9 {
			t.Fatalf("WorstMLU = %.12g, serial cold loop = %.12g", got, worst)
		}
		if math.Abs(mluOf(gotSc)-worst) > 1e-9 {
			t.Fatalf("reported scenario %v attains %.12g, not the worst %.12g", gotSc, mluOf(gotSc), worst)
		}
	}
}

// TestValidateStats sanity-checks the surfaced sweep statistics.
func TestValidateStats(t *testing.T) {
	plan := fig1Plan(t, 1)
	st, err := ValidateStats(nil, plan, ValidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Instance.Failures.NumScenariosExact()
	if st.Scenarios != want {
		t.Fatalf("Scenarios = %d, want %d", st.Scenarios, want)
	}
	if st.Workers < 1 {
		t.Fatalf("Workers = %d", st.Workers)
	}
	if st.Classes < 1 || st.Classes > st.Scenarios {
		t.Fatalf("Classes = %d of %d scenarios", st.Classes, st.Scenarios)
	}
	if st.SMWHits+st.Fallbacks != st.Classes {
		t.Fatalf("SMWHits %d + Fallbacks %d != Classes %d", st.SMWHits, st.Fallbacks, st.Classes)
	}
	if st.SMWHits == 0 {
		t.Fatal("no low-rank hits on Fig1")
	}
	if rate := st.SMWHitRate(); rate <= 0 || rate > 1 {
		t.Fatalf("SMWHitRate = %g", rate)
	}
	if st.BaseFactorTime <= 0 || st.Total <= 0 {
		t.Fatalf("timings not recorded: %+v", st)
	}
}

// TestValidateContextCanceled: a canceled context aborts the sweep and
// surfaces the cancellation, satisfying the same deadline contract as
// lp/core/mcf.
func TestValidateContextCanceled(t *testing.T) {
	plan := fig1Plan(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ValidateStats(ctx, plan, ValidateOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, _, _, err := WorstMLUStats(ctx, plan, ValidateOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("WorstMLU: want context.Canceled, got %v", err)
	}
	// A sweep through an engine built before the deadline passed
	// surfaces the cancellation per scenario.
	if _, err := newSweep(t, plan).ValidateStats(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("engine sweep: want context.Canceled, got %v", err)
	}
	// An un-canceled context validates normally.
	if _, err := ValidateStats(context.Background(), plan, ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestNewSweepContextCanceled: a dead context aborts the precompute
// between stages with a wrapped context error, while a live (or nil)
// context builds an engine that realizes scenarios exactly alike — the
// cancellation points must not change any answer.
func TestNewSweepContextCanceled(t *testing.T) {
	plan := fig5CLSPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSweepContext(ctx, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	live, err := NewSweepContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	ref := newSweep(t, plan)
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		got, gerr := live.Realize(sc)
		want, werr := ref.Realize(sc)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("under %v: ctx engine err %v, nil-ctx engine err %v", sc, gerr, werr)
		}
		if gerr != nil {
			return true
		}
		for i := range want.U {
			if math.Float64bits(got.U[i]) != math.Float64bits(want.U[i]) {
				t.Fatalf("under %v: U[%d] = %g, want %g", sc, i, got.U[i], want.U[i])
			}
		}
		return true
	})
}

// TestSweepUpdateFaultFallsBack: an injected SMW update fault forces
// the cold path, counted as a fallback, and the served realization is
// the cold path's bit for bit.
func TestSweepUpdateFaultFallsBack(t *testing.T) {
	plan := fig5CLSPlan(t)
	// Baseline: without the fault every scenario is an SMW hit.
	base := newSweep(t, plan)
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		if _, err := base.Realize(sc); err != nil {
			t.Fatalf("baseline under %v: %v", sc, err)
		}
		return true
	})
	st0 := base.Stats()
	fired := 0
	SweepUpdateFault = func(ups []linsolve.RowUpdate) error {
		fired++
		return fmt.Errorf("test: injected ill-conditioning: %w", linsolve.ErrIllConditioned)
	}
	defer func() { SweepUpdateFault = nil }()
	sw := newSweep(t, plan)
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		got, gerr := sw.Realize(sc)
		want, werr := Realize(plan, sc)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("under %v: sweep err %v, cold err %v", sc, gerr, werr)
		}
		if gerr != nil {
			return true
		}
		for i := range want.U {
			if math.Float64bits(got.U[i]) != math.Float64bits(want.U[i]) {
				t.Fatalf("under %v: U[%d] = %g, cold has %g (not bit-equal)", sc, i, got.U[i], want.U[i])
			}
		}
		for a := range want.ArcLoad {
			if math.Float64bits(got.ArcLoad[a]) != math.Float64bits(want.ArcLoad[a]) {
				t.Fatalf("under %v: ArcLoad[%d] = %g, cold has %g (not bit-equal)", sc, a, got.ArcLoad[a], want.ArcLoad[a])
			}
		}
		return true
	})
	if fired == 0 {
		t.Fatal("fault hook never fired — no scenario produced a rank-k update")
	}
	st := sw.Stats()
	// Every injected fault turned an SMW attempt into a counted
	// fallback; scenarios served straight from the base solutions
	// (k == 0) are untouched by the hook.
	if st.SMWHits+fired != st0.SMWHits {
		t.Fatalf("SMWHits = %d with %d faults, baseline %d", st.SMWHits, fired, st0.SMWHits)
	}
	if st.Fallbacks != st0.Fallbacks+fired {
		t.Fatalf("Fallbacks = %d, want baseline %d + %d injected", st.Fallbacks, st0.Fallbacks, fired)
	}
}

// TestSweepProportional: on a topologically sortable plan the §4.2
// proportional router and the engine's sweep agree on the designed set
// (Proposition 7): both validate, with the same worst MLU.
func TestSweepProportional(t *testing.T) {
	plan := corollaryPlan(t)
	prop, err := proportionalWorst(plan)
	if err != nil {
		t.Fatal(err)
	}
	lin, _, err := worstMLU(plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(prop-lin) > 1e-6 {
		t.Fatalf("proportional worst MLU %g, engine %g", prop, lin)
	}
}

// TestSweepMultiWorkerDeterministic forces a multi-goroutine pool
// (NumCPU may be 1 on CI) and checks the in-order merge returns the
// same answers as a single worker — the determinism contract — while
// giving the race detector real concurrency to examine.
func TestSweepMultiWorkerDeterministic(t *testing.T) {
	plan := fig5CLSPlan(t)
	serialWorst, serialSc, err := func() (float64, failures.Scenario, error) {
		old := sweepWorkerCount
		sweepWorkerCount = func() int { return 1 }
		defer func() { sweepWorkerCount = old }()
		return worstMLU(plan)
	}()
	if err != nil {
		t.Fatal(err)
	}
	old := sweepWorkerCount
	sweepWorkerCount = func() int { return 4 }
	defer func() { sweepWorkerCount = old }()
	for trial := 0; trial < 3; trial++ {
		worst, sc, st, err := WorstMLUStats(nil, plan, ValidateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(worst) != math.Float64bits(serialWorst) {
			t.Fatalf("trial %d: parallel worst %.17g != serial %.17g", trial, worst, serialWorst)
		}
		if sc.String() != serialSc.String() {
			t.Fatalf("trial %d: parallel worst scenario %v != serial %v", trial, sc, serialSc)
		}
		if st.Workers < 2 {
			t.Fatalf("trial %d: pool did not scale: %d workers", trial, st.Workers)
		}
	}
	if err := validate(plan); err != nil {
		t.Fatal(err)
	}
}

// TestSweepCheckMatchesCheckRealization: the sweep's precomputed-
// target Check accepts exactly what the general CheckRealization
// accepts, and both reject the same corruptions.
func TestSweepCheckMatchesCheckRealization(t *testing.T) {
	plan := fig5CLSPlan(t)
	s := newSweep(t, plan)
	plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
		r, err := s.Realize(sc)
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if err := CheckRealization(plan, r); err != nil {
			t.Fatalf("%v: general check rejected a valid realization: %v", sc, err)
		}
		if err := s.Check(r); err != nil {
			t.Fatalf("%v: sweep check rejected a valid realization: %v", sc, err)
		}
		return true
	})
	// Corrupt a flow: both checks must reject with a balance error.
	r, err := s.Realize(failures.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	for dst, flows := range r.TunnelTo {
		for tid := range flows {
			flows[tid] += 0.5
			if CheckRealization(plan, r) == nil {
				t.Fatalf("general check accepted corrupted flow for dst %v", dst)
			}
			if s.Check(r) == nil {
				t.Fatalf("sweep check accepted corrupted flow for dst %v", dst)
			}
			flows[tid] -= 0.5
			break
		}
		break
	}
	// Overload an arc: both checks must reject with a capacity error.
	if len(r.ArcLoad) > 0 {
		r.ArcLoad[0] += 1e9
		if CheckRealization(plan, r) == nil || s.Check(r) == nil {
			t.Fatal("overloaded arc not rejected")
		}
		r.ArcLoad[0] -= 1e9
	}
}
