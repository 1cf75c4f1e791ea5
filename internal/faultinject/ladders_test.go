package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/lp"
	"pcf/internal/routing"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// ladderInstance builds a small instance on a 4-cycle that every rung
// of the solve ladder can handle: an unconditional LS for (0,2) via
// node 3, a conditional bypass via node 1, and two disjoint tunnels so
// FFC survives single failures too.
func ladderInstance(t *testing.T) *core.Instance {
	t.Helper()
	g := topology.New("ring4")
	for i := 0; i < 4; i++ {
		g.AddNode("n")
	}
	g.AddLink(0, 1, 10)
	g.AddLink(1, 2, 10)
	g.AddLink(2, 3, 10)
	g.AddLink(3, 0, 10)
	links := g.Links()
	ts := tunnels.NewSet(g)
	for _, l := range links {
		ts.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
		ts.MustAdd(topology.Pair{Src: l.B, Dst: l.A}, topology.Path{Arcs: []topology.ArcID{l.Reverse()}})
	}
	p02 := topology.Pair{Src: 0, Dst: 2}
	ts.MustAdd(p02, topology.Path{Arcs: []topology.ArcID{links[0].Forward(), links[1].Forward()}})
	ts.MustAdd(p02, topology.Path{Arcs: []topology.ArcID{links[3].Reverse(), links[2].Reverse()}})
	return &core.Instance{
		Graph:   g,
		TM:      traffic.Single(4, p02, 1),
		Tunnels: ts,
		LSs: []core.LogicalSequence{
			{ID: 0, Pair: p02, Hops: []topology.NodeID{3}},
			{ID: 1, Pair: p02, Hops: []topology.NodeID{1},
				Cond: &core.Condition{DeadLinks: []topology.LinkID{3}}},
		},
		Failures:  failures.SingleLinks(g, 1),
		Objective: core.DemandScale,
	}
}

// TestSolveLadderRungs proves every rung of the CLS→LS→FFC ladder
// fires: with one LP solve per rung, failing the first n solve starts
// makes exactly the first n rungs degrade. Every served plan must pass
// full congestion-free validation, so a downgrade never silently
// delivers less than the plan's proved admitted fractions.
func TestSolveLadderRungs(t *testing.T) {
	cases := []struct {
		name         string
		failStarts   int
		cause        error
		wantScheme   string
		wantDegraded []string
	}{
		{"cls-serves", 0, nil, "PCF-CLS", nil},
		{"numerical-degrades-to-ls", 1, lp.ErrNumerical, "PCF-LS", []string{"PCF-CLS"}},
		{"iterlimit-degrades-to-ffc", 2, lp.ErrIterLimit, "FFC", []string{"PCF-CLS", "PCF-LS"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.SolveOptions{}
			if tc.failStarts > 0 {
				opts.LP.FaultHook = FailFirstNStarts(tc.failStarts, tc.cause)
			}
			plan, err := core.SolveBest(ladderInstance(t), opts)
			if err != nil {
				t.Fatalf("SolveBest: %v", err)
			}
			if plan.Scheme != tc.wantScheme {
				t.Fatalf("served by %s, want %s", plan.Scheme, tc.wantScheme)
			}
			if !reflect.DeepEqual(plan.Degraded, tc.wantDegraded) {
				t.Fatalf("Degraded = %v, want %v", plan.Degraded, tc.wantDegraded)
			}
			if plan.Value <= 0 {
				t.Fatalf("rung %s produced worthless plan (value %g)", plan.Scheme, plan.Value)
			}
			// The downgrade must not relax the congestion-freedom
			// guarantee: replay every protected scenario.
			if err := validate(plan); err != nil {
				t.Fatalf("served plan fails validation: %v", err)
			}
		})
	}
}

// TestSolveBestFrom: entering the ladder partway down (the circuit
// breaker's lever in pcfd) skips the leading rungs entirely — they are
// neither solved nor recorded as degraded — and out-of-range skips
// clamp instead of failing.
func TestSolveBestFrom(t *testing.T) {
	cases := []struct {
		skip int
		want string
	}{
		{0, "PCF-CLS"}, {1, "PCF-LS"}, {2, "FFC"}, {9, "FFC"}, {-1, "PCF-CLS"},
	}
	for _, tc := range cases {
		plan, err := core.SolveBestFrom(ladderInstance(t), core.SolveOptions{}, tc.skip)
		if err != nil {
			t.Fatalf("skip %d: %v", tc.skip, err)
		}
		if plan.Scheme != tc.want {
			t.Fatalf("skip %d served by %s, want %s", tc.skip, plan.Scheme, tc.want)
		}
		if len(plan.Degraded) != 0 {
			t.Fatalf("skip %d recorded skipped rungs as degraded: %v", tc.skip, plan.Degraded)
		}
		if err := validate(plan); err != nil {
			t.Fatalf("skip %d: served plan fails validation: %v", tc.skip, err)
		}
	}
	if len(core.BestRungs) != 3 || core.BestRungs[0] != "PCF-CLS" || core.BestRungs[2] != "FFC" {
		t.Fatalf("BestRungs = %v, want the CLS→LS→FFC ladder", core.BestRungs)
	}
}

// TestSolveLadderExhausted checks that when every rung fails the error
// is typed and names the rungs tried.
func TestSolveLadderExhausted(t *testing.T) {
	opts := core.SolveOptions{}
	opts.LP.FaultHook = FailFirstNStarts(3, lp.ErrNumerical)
	_, err := core.SolveBest(ladderInstance(t), opts)
	if err == nil {
		t.Fatal("expected error after all rungs failed")
	}
	if !errors.Is(err, lp.ErrNumerical) {
		t.Fatalf("error does not wrap lp.ErrNumerical: %v", err)
	}
}

// TestSolveBestRungTimeout: a per-rung deadline that can never be met
// walks the whole ladder and surfaces context.DeadlineExceeded.
func TestSolveBestRungTimeout(t *testing.T) {
	_, err := core.SolveBest(ladderInstance(t), core.SolveOptions{RungTimeout: time.Nanosecond})
	if err == nil {
		t.Fatal("expected rung timeouts to exhaust the ladder")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap DeadlineExceeded: %v", err)
	}
}

// validate replays every protected scenario of the plan and checks the
// congestion-free property.
func validate(plan *core.Plan) error {
	_, err := routing.ValidateStats(context.Background(), plan, routing.ValidateOptions{})
	return err
}

// TestSolveBestParentCanceled: a dead overall context aborts before
// any rung runs.
func TestSolveBestParentCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.SolveBest(ladderInstance(t), core.SolveOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

// TestNearSingularPlan exercises the linsolve.ErrSingular path out of
// routing.Realize: the hand-built cyclic plan passes the diagonal
// pre-check but its reservation matrix is rank deficient, and the sparse
// factorization of its rows says so.
func TestNearSingularPlan(t *testing.T) {
	plan, sc := NearSingularPlan()
	_, err := routing.Realize(plan, sc)
	if err == nil {
		t.Fatal("expected singular-matrix error")
	}
	if !errors.Is(err, linsolve.ErrSingular) {
		t.Fatalf("error does not wrap linsolve.ErrSingular: %v", err)
	}
	if !errors.Is(err, routing.ErrSingularMatrix) || !errors.Is(err, routing.ErrUnrealizable) {
		t.Fatalf("error does not wrap routing.ErrSingularMatrix and routing.ErrUnrealizable: %v", err)
	}
	// The served path reports the same typed error: the engine cannot
	// factor its base, stays cold-only, and serves the scenario through
	// the cold path Realize above ran — and so does Outcome, what pcfd
	// answers a realize with (422, the scenario's fault).
	sw, err := routing.NewSweepContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Realize(sc); !errors.Is(err, routing.ErrSingularMatrix) {
		t.Fatalf("sweep error does not wrap routing.ErrSingularMatrix: %v", err)
	}
	if _, err := sw.Outcome(sc); !errors.Is(err, routing.ErrSingularMatrix) || !errors.Is(err, routing.ErrUnrealizable) {
		t.Fatalf("Outcome error does not wrap routing.ErrSingularMatrix and routing.ErrUnrealizable: %v", err)
	}
	// Neither of the paper's other mechanisms can save this plan — the
	// Jacobi iteration over the same sparse rows does not converge and
	// the LS relation is cyclic — and both must say so rather than
	// return an unverified realization.
	if _, _, err := routing.RealizeIterative(plan, sc, 200, 0); !errors.Is(err, linsolve.ErrNoConvergence) {
		t.Fatalf("iterative realization: want linsolve.ErrNoConvergence, got %v", err)
	}
	if _, err := routing.RealizeProportional(plan, sc); err == nil {
		t.Fatal("proportional realization accepted a cyclic LS relation")
	}
}

// chainModel builds min Σx with x_i + x_{i+1} >= 1 over n rows: an LP
// whose simplex solve needs at least n pivots, giving fault hooks a
// long iteration window.
func chainModel(n int) *lp.Model {
	m := lp.NewModel()
	obj := lp.NewExpr()
	vars := make([]lp.Var, n+1)
	for i := range vars {
		vars[i] = m.AddVar(fmt.Sprintf("x%d", i), 0, 1)
		obj.Add(1, vars[i])
	}
	for i := 0; i < n; i++ {
		m.AddConstraint(fmt.Sprintf("c%d", i),
			lp.NewExpr().Add(1, vars[i]).Add(1, vars[i+1]), lp.GE, 1)
	}
	m.SetObjective(obj, lp.Minimize)
	return m
}

// TestRefactorFailureRecovers: with a short refactor cadence, a
// refactorization failure early in the solve triggers the solver's
// tightened-refactorization retry, which succeeds because the small
// model finishes before the retry's first refactor point.
func TestRefactorFailureRecovers(t *testing.T) {
	sol, err := lp.SolveWithOptions(chainModel(10), lp.Options{
		RefactorEvery: 1,
		FaultHook:     FailRefactorAfter(3),
	})
	if err != nil {
		t.Fatalf("expected recovery via retry, got %v", err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v after recovery", sol.Status)
	}
}

// TestRefactorFailureSurfacesTyped: on a model too large to finish
// before the retry's refactor point, persistent refactorization
// failures surface as lp.ErrNumerical inside a SolveError carrying
// partial diagnostics.
func TestRefactorFailureSurfacesTyped(t *testing.T) {
	_, err := lp.SolveWithOptions(chainModel(80), lp.Options{
		RefactorEvery: 1,
		FaultHook:     FailRefactorAfter(10),
	})
	if err == nil {
		t.Fatal("expected numerical failure")
	}
	if !errors.Is(err, lp.ErrNumerical) {
		t.Fatalf("error does not wrap lp.ErrNumerical: %v", err)
	}
	var se *lp.SolveError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a *lp.SolveError: %v", err)
	}
	if se.Iterations <= 0 || se.Phase == 0 {
		t.Fatalf("SolveError lacks diagnostics: %+v", se)
	}
}

// TestKillPivots: an injected pivot kill aborts with ErrIterLimit and
// reports exactly where it stopped.
func TestKillPivots(t *testing.T) {
	_, err := lp.SolveWithOptions(chainModel(20), lp.Options{FaultHook: KillPivotsAfter(5)})
	if !errors.Is(err, lp.ErrIterLimit) {
		t.Fatalf("error does not wrap lp.ErrIterLimit: %v", err)
	}
	var se *lp.SolveError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a *lp.SolveError: %v", err)
	}
	if se.Iterations != 5 {
		t.Fatalf("killed at iteration %d, want 5", se.Iterations)
	}
}

// TestKillPivotsRandomDeterministic: the seeded variant is
// reproducible.
func TestKillPivotsRandomDeterministic(t *testing.T) {
	run := func() int {
		_, err := lp.SolveWithOptions(chainModel(20), lp.Options{FaultHook: KillPivotsRandom(42, 10)})
		var se *lp.SolveError
		if !errors.As(err, &se) {
			t.Fatalf("expected SolveError, got %v", err)
		}
		return se.Iterations
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed killed at different iterations: %d vs %d", a, b)
	}
}

// TestPerturbDeterministic: the coefficient perturbation injector is
// reproducible and a tiny perturbation leaves the optimum close.
func TestPerturbDeterministic(t *testing.T) {
	base := chainModel(12)
	ref, err := lp.Solve(base)
	if err != nil {
		t.Fatal(err)
	}
	solvePerturbed := func() float64 {
		m := base.Clone()
		m.Perturb(7, 1e-8)
		sol, err := lp.Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		return sol.Objective
	}
	a, b := solvePerturbed(), solvePerturbed()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("same seed, different objectives: %g vs %g", a, b)
	}
	if diff := a - ref.Objective; diff > 1e-4 || diff < -1e-4 {
		t.Fatalf("tiny perturbation moved objective by %g", diff)
	}
}

// TestCanceledContextAborts: a dead context stops the solve before it
// starts, with the context error visible through errors.Is.
func TestCanceledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := lp.SolveWithOptions(chainModel(5), lp.Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

// TestDeadlineAbortsLargeSolve is the acceptance check: a 20ms
// deadline aborts a large SolvePCFCLS run (GEANT, two failures: a
// multi-round cut loop of ~0.35 s) promptly with
// context.DeadlineExceeded instead of hanging for the full solve.
func TestDeadlineAbortsLargeSolve(t *testing.T) {
	g, err := topozoo.Load("GEANT")
	if err != nil {
		t.Fatal(err)
	}
	g, _ = g.PruneDegreeOne()
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 1, Jitter: 0.4})
	pairs := tm.TopPairs(60)
	tm = tm.Restrict(pairs)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Graph:     g,
		TM:        tm,
		Tunnels:   ts,
		Failures:  failures.SingleLinks(g, 2),
		Objective: core.DemandScale,
	}
	clsIn, _, err := core.BuildCLSQuick(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = core.SolvePCFCLS(clsIn, core.SolveOptions{Context: ctx})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("large solve finished under 20ms — instance too small for this test")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap DeadlineExceeded: %v", err)
	}
	// "Promptly": the periodic in-iteration checks must fire within a
	// small multiple of the deadline, not after the full solve.
	if elapsed > 10*time.Second {
		t.Fatalf("solve took %v to notice a 20ms deadline", elapsed)
	}
}
