package routing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// degradedFig1Plan solves Fig. 1 against a mixed failure set: the
// standard single-link death units plus partial-capacity degrade units,
// so enumerated scenarios combine dead and degraded links.
func degradedFig1Plan(t *testing.T, f int, alpha float64) *core.Plan {
	t.Helper()
	gad := topozoo.Fig1()
	g := gad.Graph
	ts := tunnels.NewSet(g)
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	for _, p := range gad.Tunnels {
		ts.MustAdd(pair, p)
	}
	fs := failures.SingleLinks(g, f)
	fs.Units = append(fs.Units,
		failures.Unit{Name: "deg0", Links: []topology.LinkID{0}, Alpha: alpha},
		failures.Unit{Name: "deg01", Links: []topology.LinkID{0, 1}, Alpha: alpha + 0.2},
	)
	in := &core.Instance{
		Graph:     g,
		TM:        traffic.Single(g.NumNodes(), pair, 1),
		Tunnels:   ts,
		Failures:  fs,
		Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDegradedSweepMatchesCold is the degradation acceptance contract:
// on scenarios mixing dead and degraded links, the SMW-corrected sweep
// agrees with the cold per-scenario realization to 1e-9, and the plan
// validates (capacity checks against the scaled capacities included).
func TestDegradedSweepMatchesCold(t *testing.T) {
	assertSweepMatchesCold(t, degradedFig1Plan(t, 2, 0.5))
}

// TestScenarioCapacityDegraded pins the capacity semantics: dead links
// have zero scenario capacity, degraded links alpha times nominal,
// everything else nominal — and two degrade units sharing a link
// compose by the smaller alpha.
func TestScenarioCapacityDegraded(t *testing.T) {
	gad := topozoo.Fig1()
	g := gad.Graph
	fs := &failures.Set{
		Units: []failures.Unit{
			{Name: "kill1", Links: []topology.LinkID{1}},
			{Name: "deg0", Links: []topology.LinkID{0}, Alpha: 0.5},
			{Name: "deg01", Links: []topology.LinkID{0, 1}, Alpha: 0.3},
		},
		Budget: 3,
	}
	sc := fs.ScenarioOf([]int{0, 1, 2})
	for a := 0; a < g.NumArcs(); a++ {
		l := topology.LinkOf(topology.ArcID(a))
		got := ScenarioCapacity(g, sc, topology.ArcID(a))
		want := g.ArcCapacity(topology.ArcID(a))
		switch l {
		case 0:
			want *= 0.3 // min of the two degrade alphas
		case 1:
			want = 0 // dead wins over degraded
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("arc %d (link %d): scenario capacity %g, want %g", a, l, got, want)
		}
	}
}

// TestWorstMLUSearchMatchesEnumeration is the adversarial-search
// acceptance property: on every gadget where exhaustive enumeration is
// feasible, the search finds a scenario whose MLU is within 1e-9 of
// the enumerated worst. Seeded, so deterministic.
func TestWorstMLUSearchMatchesEnumeration(t *testing.T) {
	plans := map[string]*core.Plan{
		"fig1-f1":      fig1Plan(t, 1),
		"fig1-f2":      fig1Plan(t, 2),
		"fig4-ls":      fig4LSPlan(t, 3, 2, 3, 1),
		"fig5-cls":     fig5CLSPlan(t),
		"fig1-degrade": degradedFig1Plan(t, 2, 0.5),
	}
	for name, plan := range plans {
		worst, worstSc, err := worstMLU(plan)
		if err != nil {
			t.Fatalf("%s: enumeration: %v", name, err)
		}
		res, err := WorstMLUSearch(nil, plan, core.SearchOptions{Seed: 11})
		if err != nil {
			t.Fatalf("%s: search: %v", name, err)
		}
		if res.Value < worst-1e-9 {
			t.Fatalf("%s: search found %v = %.12g, enumeration found %v = %.12g",
				name, res.Scenario, res.Value, worstSc, worst)
		}
		if res.Evals == 0 {
			t.Fatalf("%s: search evaluated nothing", name)
		}
	}
}

// TestValidateSampledReport checks the shape of the coverage report:
// mass accounting adds up, the bound is present, and both passes'
// scenarios land in the merged stats.
func TestValidateSampledReport(t *testing.T) {
	plan := fig1Plan(t, 1)
	fs := plan.Instance.Failures
	pm, err := failures.Uniform(fs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateSampled(nil, plan, SampleOptions{
		Model: pm, Samples: 40, Delta: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := rep.Coverage
	if cov.Model != "sampled" {
		t.Fatalf("model %q", cov.Model)
	}
	if cov.Samples != 40 || cov.Budget != fs.Budget {
		t.Fatalf("samples %d budget %d", cov.Samples, cov.Budget)
	}
	if cov.Exhaustive != int64(fs.Count()) {
		t.Fatalf("exhaustive %d, set has %d scenarios", cov.Exhaustive, fs.Count())
	}
	if math.Abs(cov.ExhaustiveMass+cov.TailMass-1) > 1e-12 {
		t.Fatalf("masses do not sum to 1: exhaustive %g tail %g", cov.ExhaustiveMass, cov.TailMass)
	}
	if cov.SampledMass+cov.TruncatedMass > cov.TailMass+1e-12 {
		t.Fatalf("sampled %g + truncated %g exceeds tail %g", cov.SampledMass, cov.TruncatedMass, cov.TailMass)
	}
	if cov.Epsilon <= 0 || cov.Epsilon > 1 {
		t.Fatalf("epsilon %g outside (0,1]", cov.Epsilon)
	}
	if cov.Epsilon < cov.TruncatedMass {
		t.Fatalf("epsilon %g below the truncated mass %g it must include", cov.Epsilon, cov.TruncatedMass)
	}
	if rep.Stats.Scenarios != fs.Count()+40 {
		t.Fatalf("stats cover %d scenarios, want %d", rep.Stats.Scenarios, fs.Count()+40)
	}
	if rep.WorstMLU <= 0 {
		t.Fatalf("worst MLU %g", rep.WorstMLU)
	}
}

// TestValidateSampledRefusesForeignModel: a probability model with no
// set, with a set that is not the plan's, or with a probability count
// other than the set's unit count is refused with ErrForeignModel, not
// a nil dereference in the draw loop; a model over an equal copy of the
// plan's set is accepted.
func TestValidateSampledRefusesForeignModel(t *testing.T) {
	plan := fig1Plan(t, 1)
	fs := plan.Instance.Failures
	model := func(edit func(pm *failures.ProbModel)) *failures.ProbModel {
		pm, err := failures.Uniform(fs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		edit(pm)
		return pm
	}
	other := *fs
	other.Budget++
	copied := *fs
	for _, tc := range []struct {
		name string
		pm   *failures.ProbModel
		ok   bool
	}{
		{"no set", model(func(pm *failures.ProbModel) { pm.Set = nil }), false},
		{"another set", model(func(pm *failures.ProbModel) { pm.Set = &other }), false},
		{"short", model(func(pm *failures.ProbModel) { pm.P = pm.P[1:] }), false},
		{"equal copy", model(func(pm *failures.ProbModel) { pm.Set = &copied }), true},
	} {
		_, err := ValidateSampled(nil, plan, SampleOptions{Model: tc.pm, Samples: 20, Seed: 3})
		if tc.ok != (err == nil) || (!tc.ok && !errors.Is(err, ErrForeignModel)) {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestSampledCoverageDeterminism is the check.sh determinism gate: the
// same seed must produce a byte-identical coverage report (and the same
// worst MLU bits) run after run, regardless of worker scheduling.
func TestSampledCoverageDeterminism(t *testing.T) {
	plan := fig1Plan(t, 1)
	pm, err := failures.Uniform(plan.Instance.Failures, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	opts := SampleOptions{Model: pm, Samples: 60, Delta: 0.02, Seed: 7}
	first, err := ValidateSampled(nil, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		rep, err := ValidateSampled(nil, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Coverage.String(), first.Coverage.String(); got != want {
			t.Fatalf("run %d coverage report diverged:\n got %s\nwant %s", run, got, want)
		}
		if rep.Coverage != first.Coverage {
			t.Fatalf("run %d coverage struct diverged: %+v vs %+v", run, rep.Coverage, first.Coverage)
		}
		if math.Float64bits(rep.WorstMLU) != math.Float64bits(first.WorstMLU) {
			t.Fatalf("run %d worst MLU %g, first run %g", run, rep.WorstMLU, first.WorstMLU)
		}
	}
}

// TestValidateSampledNoSampler exercises the honest fallback: with
// zero unit probabilities the conditional tail has no mass, nothing is
// sampled, and epsilon is the (zero) tail mass rather than an error.
func TestValidateSampledNoSampler(t *testing.T) {
	plan := fig1Plan(t, 1)
	pm, err := failures.Uniform(plan.Instance.Failures, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateSampled(nil, plan, SampleOptions{Model: pm, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage.Samples != 0 {
		t.Fatalf("sampled %d scenarios from an empty tail", rep.Coverage.Samples)
	}
	if rep.Coverage.Epsilon != 0 || rep.Coverage.TailMass != 0 {
		t.Fatalf("epsilon %g tail %g, want 0", rep.Coverage.Epsilon, rep.Coverage.TailMass)
	}
}

// errAfter is a context whose Err turns to Canceled after a fixed
// number of calls: a cancellation placed at an exact point of a
// deterministic call sequence.
type errAfter struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestValidateSampledCanceledBeforeSweep: a context that ends once the
// designed-set pass is through stops the pre-draw loop — the sampled
// sweep never starts and the error is the context's own. The one-shot
// form's fresh engine has kept no designed pass, so each call sweeps
// the designed set itself.
func TestValidateSampledCanceledBeforeSweep(t *testing.T) {
	plan := fig1Plan(t, 1)
	pm, err := failures.Uniform(plan.Instance.Failures, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Samples < 0 draws nothing: this run counts the Err calls of the
	// engine build and the designed-set pass.
	ctx := &errAfter{Context: context.Background(), after: math.MaxInt64}
	if _, err := ValidateSampled(ctx, plan, SampleOptions{Model: pm, Samples: -1}); err != nil {
		t.Fatal(err)
	}
	ctx = &errAfter{Context: context.Background(), after: ctx.calls.Load()}
	_, err = ValidateSampled(ctx, plan, SampleOptions{Model: pm, Samples: 1000})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "after 0 draws") {
		t.Fatalf("err = %v, want the pre-draw loop's cancellation", err)
	}
}

// TestValidateSampledCanceledInTail: a cancellation that lands in the
// tail sweep — at its first, a middle or its last draw — is the call's
// error, wrapping the context's, and yields no report; the draw it
// reached is not counted as a sample failure. One worker makes the
// Err-call sequence deterministic: after the engine build, the
// designed-set pass (the one-shot form's fresh engine has kept none, so
// the call sweeps it) and the pre-draw loop, one call per draw in draw
// order, then the check once the tail sweep returns.
func TestValidateSampledCanceledInTail(t *testing.T) {
	old := sweepWorkerCount
	sweepWorkerCount = func() int { return 1 }
	defer func() { sweepWorkerCount = old }()
	plan := fig1Plan(t, 1)
	pm, err := failures.Uniform(plan.Instance.Failures, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 60
	opts := SampleOptions{Model: pm, Samples: samples, Seed: 5}
	// Samples < 0 draws nothing: this run counts the Err calls of the
	// build and the designed-set pass; the pre-draw loop adds one.
	ctx := &errAfter{Context: context.Background(), after: math.MaxInt64}
	if _, err := ValidateSampled(ctx, plan, SampleOptions{Model: pm, Samples: -1}); err != nil {
		t.Fatal(err)
	}
	beforeTail := ctx.calls.Load() + 1
	ctx = &errAfter{Context: context.Background(), after: math.MaxInt64}
	if _, err := ValidateSampled(ctx, plan, opts); err != nil {
		t.Fatal(err)
	}
	if got, want := ctx.calls.Load(), beforeTail+samples+1; got != want {
		t.Fatalf("a clean run made %d Err calls, want %d: the count this test cancels by is off", got, want)
	}
	for _, tc := range []struct {
		name string
		draw int64
	}{{"first", 0}, {"middle", samples / 2}, {"last", samples - 1}} {
		ctx := &errAfter{Context: context.Background(), after: beforeTail + tc.draw}
		rep, err := ValidateSampled(ctx, plan, opts)
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "tail sweep") {
			t.Fatalf("canceled at the %s draw: err = %v, want the tail sweep's cancellation", tc.name, err)
		}
		if rep != nil {
			t.Fatalf("canceled at the %s draw: a report came back: %s", tc.name, rep.Coverage)
		}
	}
}

// pauseAt is a context whose Err sleeps for pause on its at-th call.
type pauseAt struct {
	context.Context
	calls atomic.Int64
	at    int64
	pause time.Duration
}

func (c *pauseAt) Err() error {
	if c.calls.Add(1) == c.at {
		time.Sleep(c.pause)
	}
	return nil
}

// TestValidateSampledChargesWholeCall: the stats' Total, which pcfd
// records as the validate record's duration, covers the whole call, the
// serial draw-and-classify loop included. The loop's first cancellation
// check sleeps; a Total that leaves the loop out falls short of the
// pause. On a validated engine, so that every call makes the same Err
// calls before the loop: none, since the call reads the designed pass
// the engine kept.
func TestValidateSampledChargesWholeCall(t *testing.T) {
	plan := fig1Plan(t, 1)
	pm, err := failures.Uniform(plan.Instance.Failures, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sw := newSweep(t, plan)
	if _, err := sw.ValidateStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Samples < 0 draws nothing: this run counts the Err calls before the
	// draw loop (none: no designed representative is swept), and the
	// loop's first check is the one after them.
	count := &errAfter{Context: context.Background(), after: math.MaxInt64}
	if _, err := sw.ValidateSampled(count, SampleOptions{Model: pm, Samples: -1}); err != nil {
		t.Fatal(err)
	}
	const pause = 50 * time.Millisecond
	ctx := &pauseAt{Context: context.Background(), at: count.calls.Load() + 1, pause: pause}
	rep, err := sw.ValidateSampled(ctx, SampleOptions{Model: pm, Samples: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.calls.Load() <= ctx.at {
		t.Fatalf("the call made %d Err calls, the pause is at %d", ctx.calls.Load(), ctx.at)
	}
	if rep.Stats.Total < pause {
		t.Fatalf("Total %v, but the draw loop alone paused %v", rep.Stats.Total, pause)
	}
}

// distinctBeyondBudget lists up to limit distinct link sets past the plan's
// failure budget as scenarios: every set of budget+1 links in
// lexicographic order, then of budget+2, and so on.
func distinctBeyondBudget(plan *core.Plan, limit int) []failures.Scenario {
	numLinks := plan.Instance.Graph.NumLinks()
	var out []failures.Scenario
	var dead []topology.LinkID
	var rec func(start, size int)
	rec = func(start, size int) {
		if len(out) == limit {
			return
		}
		if len(dead) == size {
			sc := failures.Scenario{Dead: map[topology.LinkID]bool{}}
			for _, l := range dead {
				sc.Dead[l] = true
			}
			out = append(out, sc)
			return
		}
		for l := start; l < numLinks; l++ {
			dead = append(dead, topology.LinkID(l))
			rec(l+1, size)
			dead = dead[:len(dead)-1]
		}
	}
	for size := plan.Instance.Failures.Budget + 1; size <= numLinks && len(out) < limit; size++ {
		rec(0, size)
	}
	return out
}

// TestSampledOnPublishedMatchesOneShot: a sampled validation through a
// published engine — its designed set swept, its corrector cache warm —
// reports exactly what the one-shot form reports on a fresh engine: the
// coverage struct, the worst MLU's bits and scenario, and the scenario,
// SMW-hit and fallback counts. It runs on a forced 4-worker pool while
// another goroutine serves beyond-budget link sets through the same
// engine's Outcome, so under -race it is also the check that the fork
// reads the parent's cache while the parent writes it.
func TestSampledOnPublishedMatchesOneShot(t *testing.T) {
	old := sweepWorkerCount
	sweepWorkerCount = func() int { return 4 }
	defer func() { sweepWorkerCount = old }()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		plan func(*testing.T) *core.Plan
	}{
		{"fig1-f1", func(t *testing.T) *core.Plan { return fig1Plan(t, 1) }},
		{"fig5-cls", fig5CLSPlan},
		{"sprint-cls", sprintCLSPlanOrSkip},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan(t)
			fs := plan.Instance.Failures
			pub := newSweep(t, plan)
			if _, err := pub.ValidateStats(ctx); err != nil {
				t.Fatal(err)
			}
			traffic := distinctBeyondBudget(plan, 200)
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					pub.Outcome(traffic[i%len(traffic)]) // beyond budget: an error is an answer too
				}
			}()
			defer func() {
				close(stop)
				<-done
			}()
			pm, err := failures.Uniform(fs, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 2, 7} {
				for _, kcap := range []int{0, fs.Budget + 1, fs.Budget + 3} {
					opts := SampleOptions{Model: pm, Samples: 150, Delta: 0.05, Seed: seed, KCap: kcap}
					at := fmt.Sprintf("seed %d kcap %d", seed, kcap)
					want, err := ValidateSampled(ctx, plan, opts)
					if err != nil {
						t.Fatalf("%s: one-shot: %v", at, err)
					}
					got, err := pub.ValidateSampled(ctx, opts)
					if err != nil {
						t.Fatalf("%s: published: %v", at, err)
					}
					if got.Coverage != want.Coverage {
						t.Fatalf("%s: coverage\n got %+v\nwant %+v", at, got.Coverage, want.Coverage)
					}
					if math.Float64bits(got.WorstMLU) != math.Float64bits(want.WorstMLU) ||
						!reflect.DeepEqual(got.WorstScenario, want.WorstScenario) {
						t.Fatalf("%s: worst %v under %v, one-shot %v under %v", at, got.WorstMLU, got.WorstScenario, want.WorstMLU, want.WorstScenario)
					}
					g, w := got.Stats, want.Stats
					if g.Scenarios != w.Scenarios || g.SMWHits != w.SMWHits || g.Fallbacks != w.Fallbacks {
						t.Fatalf("%s: %d scenarios, %d SMW hits, %d fallbacks; one-shot %d, %d, %d",
							at, g.Scenarios, g.SMWHits, g.Fallbacks, w.Scenarios, w.SMWHits, w.Fallbacks)
					}
				}
			}
		})
	}
}

// TestSampledReadsDesignedOutcome: a sampled validation judges the
// designed set by the engine's kept designed pass. On an engine whose
// ValidateStats has run it realizes no designed representative: its
// only Err calls are the tail's (one per 256 draws before drawing, one
// per draw, one once the tail sweep returns), where a fresh engine's
// call adds one per representative it sweeps, and its report is the
// one-shot form's on a fresh engine. A ValidateStats a cancellation cut
// short keeps nothing: the next sampled call sweeps the designed set
// itself and succeeds. A plan whose designed set fails answers every
// call with the same first error, and two first calls racing on a
// fresh engine report alike. On a forced 4-worker pool.
func TestSampledReadsDesignedOutcome(t *testing.T) {
	old := sweepWorkerCount
	sweepWorkerCount = func() int { return 4 }
	defer func() { sweepWorkerCount = old }()
	ctx := context.Background()
	const samples = 300
	tailChecks := int64((samples+255)/256 + samples + 1)
	counting := func() *errAfter { return &errAfter{Context: ctx, after: math.MaxInt64} }
	for _, tc := range []struct {
		name string
		plan func(*testing.T) *core.Plan
	}{
		{"fig1-f1", func(t *testing.T) *core.Plan { return fig1Plan(t, 1) }},
		{"fig5-cls", fig5CLSPlan},
		{"sprint-cls", sprintCLSPlanOrSkip},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan(t)
			pm, err := failures.Uniform(plan.Instance.Failures, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			opts := SampleOptions{Model: pm, Samples: samples, Seed: 3}
			want, err := ValidateSampled(ctx, plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			same := func(at string, got *SampledReport, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				g, w := got.Stats, want.Stats
				if got.Coverage != want.Coverage || math.Float64bits(got.WorstMLU) != math.Float64bits(want.WorstMLU) ||
					!reflect.DeepEqual(got.WorstScenario, want.WorstScenario) ||
					g.Scenarios != w.Scenarios || g.SMWHits != w.SMWHits || g.Fallbacks != w.Fallbacks {
					t.Fatalf("%s: %+v, worst %.17g at %v, %d scenarios, %d SMW hits, %d fallbacks;\none-shot %+v, worst %.17g at %v, %d, %d, %d",
						at, got.Coverage, got.WorstMLU, got.WorstScenario, g.Scenarios, g.SMWHits, g.Fallbacks,
						want.Coverage, want.WorstMLU, want.WorstScenario, w.Scenarios, w.SMWHits, w.Fallbacks)
				}
			}

			pub := newSweep(t, plan)
			designed, err := pub.ValidateStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			count := counting()
			got, err := pub.ValidateSampled(count, opts)
			same("validated engine", got, err)
			if calls := count.calls.Load(); calls != tailChecks {
				t.Fatalf("on a validated engine the call made %d Err calls, the tail's %d: it swept %d designed representatives",
					calls, tailChecks, calls-tailChecks)
			}

			fresh := newSweep(t, plan)
			count = counting()
			got, err = fresh.ValidateSampled(count, opts)
			same("fresh engine", got, err)
			if calls := count.calls.Load(); calls < tailChecks+int64(designed.Classes) {
				t.Fatalf("on a fresh engine the call made %d Err calls, want at least %d for the tail and %d for the designed pass",
					calls, tailChecks, designed.Classes)
			}
			count = counting()
			got, err = fresh.ValidateSampled(count, opts)
			same("second call", got, err)
			if calls := count.calls.Load(); calls != tailChecks {
				t.Fatalf("a second call made %d Err calls, the tail's %d: the first call's pass was not kept", calls, tailChecks)
			}

			// A pass whose last Err call cancels it: one representative
			// holds the context's error, and nothing is kept.
			count = counting()
			if _, err := newSweep(t, plan).ValidateStats(count); err != nil {
				t.Fatal(err)
			}
			cut := newSweep(t, plan)
			if _, err := cut.ValidateStats(&errAfter{Context: ctx, after: count.calls.Load() - 1}); !errors.Is(err, context.Canceled) {
				t.Fatalf("ValidateStats canceled at its last representative: err = %v", err)
			}
			if cut.pass.Load() != nil {
				t.Fatal("a canceled ValidateStats kept its pass")
			}
			count = counting()
			got, err = cut.ValidateSampled(count, opts)
			same("after a canceled ValidateStats", got, err)
			if calls := count.calls.Load(); calls < tailChecks+int64(designed.Classes) {
				t.Fatalf("after a canceled ValidateStats the call made %d Err calls: it did not sweep the designed set", calls)
			}

			// Two first calls racing on a fresh engine.
			racing := newSweep(t, plan)
			var reps [2]*SampledReport
			var errs [2]error
			var wg sync.WaitGroup
			for i := range reps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reps[i], errs[i] = racing.ValidateSampled(ctx, opts)
				}()
			}
			wg.Wait()
			for i := range reps {
				same(fmt.Sprintf("racing call %d", i), reps[i], errs[i])
			}
		})
	}

	t.Run("failing", func(t *testing.T) {
		plan := withBudget(fig1Plan(t, 1), 2)
		pm, err := failures.Uniform(plan.Instance.Failures, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		opts := SampleOptions{Model: pm, Samples: samples, Seed: 3}
		sw := newSweep(t, plan)
		_, first := sw.ValidateStats(ctx)
		if first == nil {
			t.Fatal("the plan validates at budget 2; the case needs a failing designed set")
		}
		_, oneShot := ValidateSampled(ctx, plan, opts)
		for i := 0; i < 3; i++ {
			_, sampled := sw.ValidateSampled(ctx, opts)
			_, exact := sw.ValidateStats(ctx)
			for _, err := range []error{sampled, exact, oneShot} {
				if err == nil || err.Error() != first.Error() {
					t.Fatalf("call %d: err = %v, the first pass's %v", i, err, first)
				}
			}
		}
	})
}

// TestForkCacheBounded: a fork keeps at most its bound of correctors
// however many distinct scenarios it serves, never writes its parent's
// cache, and answers each scenario bit for bit as the parent engine's
// own sweep does. One worker: no two racing misses of one signature,
// so publication's sweep keeps every designed corrector.
func TestForkCacheBounded(t *testing.T) {
	old := sweepWorkerCount
	sweepWorkerCount = func() int { return 1 }
	defer func() { sweepWorkerCount = old }()
	plan := sprintCLSPlanOrSkip(t)
	ctx := context.Background()
	pub := newSweep(t, plan)
	if _, err := pub.ValidateStats(ctx); err != nil {
		t.Fatal(err)
	}
	designed := pub.CachedCorrectors()
	const bound = 40
	// The parent's signatures are the parent's hits: a fork sweeping the
	// designed set builds no corrector.
	f := pub.fork(bound)
	if _, stats := sweepScenarios(ctx, f, true, true, designedSet(plan)); stats.BatchHits == 0 || f.CachedCorrectors() != 0 {
		t.Fatalf("a fork swept the designed set with %d batch hits and kept %d correctors, want hits and none kept",
			stats.BatchHits, f.CachedCorrectors())
	}
	scs := distinctBeyondBudget(plan, 10*bound)
	if len(scs) < 10*bound {
		t.Fatalf("only %d beyond-budget link sets, want %d", len(scs), 10*bound)
	}
	f = pub.fork(bound)
	slots, _ := sweepScenarios(ctx, f, true, false, scs)
	if got := f.CachedCorrectors(); got == 0 || got > bound {
		t.Fatalf("the fork holds %d correctors after %d distinct scenarios, want 1..%d", got, len(scs), bound)
	}
	if got := pub.CachedCorrectors(); got != designed {
		t.Fatalf("the fork moved its parent's cache from %d to %d correctors", designed, got)
	}
	ref, _ := sweepScenarios(ctx, newSweep(t, plan), true, false, scs)
	for i := range slots {
		if math.Float64bits(slots[i].mlu) != math.Float64bits(ref[i].mlu) || fmt.Sprint(slots[i].err) != fmt.Sprint(ref[i].err) {
			t.Fatalf("under %v: fork %v (%v), fresh engine %v (%v)", scs[i], slots[i].mlu, slots[i].err, ref[i].mlu, ref[i].err)
		}
	}
}

// TestVerdictErrorsFormatLazily: the verdict errors format only when
// read, in the words they always had, and keep their identity:
// ErrUnrealizable for a missing reservation or a U out of range.
func TestVerdictErrorsFormatLazily(t *testing.T) {
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{3: true, 1: true}}
	p := topology.Pair{Src: 2, Dst: 5}
	cases := []struct {
		err          error
		want         string
		unrealizable bool
	}{
		{overloadError{7, 1.5, 1, sc}, "routing: arc 7 (link 3) overloaded: 1.5 > 1 under scenario {dead links [1 3]}", false},
		{balanceError{4, 2, 0.25, 0.5, sc}, "routing: destination 4 node 2 ships 0.25, want 0.5 under {dead links [1 3]}", false},
		{unrealizable{noReservationError{p, sc}}, fmt.Sprintf("routing: pair %v of interest has no live reservation under {dead links [1 3]}", p), true},
		{unrealizable{utilizationError{p, 1.25, sc}}, fmt.Sprintf("routing: U[%v] = 1.25 outside [0,1] under {dead links [1 3]} (Proposition 5 violated — plan not feasible for this scenario)", p), true},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Fatalf("message\n got %q\nwant %q", got, c.want)
		}
		if errors.Is(c.err, ErrUnrealizable) != c.unrealizable || errors.Is(c.err, ErrSingularMatrix) {
			t.Fatalf("%q: errors.Is(ErrUnrealizable) = %v, want %v", c.want, errors.Is(c.err, ErrUnrealizable), c.unrealizable)
		}
	}
	// Building one is boxing its operands, nothing more.
	if allocs := testing.AllocsPerRun(100, func() { verdictSink = unrealizable{utilizationError{p, 1.25, sc}} }); allocs > 2 {
		t.Fatalf("building a verdict error allocates %v times; it formats eagerly", allocs)
	}
}

var verdictSink error

// TestSampledReportsClampedKCap: the sampler truncates the failure count
// at the unit count, and the coverage report says so instead of echoing
// a larger kcap it never used.
func TestSampledReportsClampedKCap(t *testing.T) {
	plan := fig1Plan(t, 1)
	pm, err := failures.Uniform(plan.Instance.Failures, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	units := len(plan.Instance.Failures.Units)
	for _, kcap := range []int{2, units, units + 1, 1 << 30} {
		rep, err := ValidateSampled(context.Background(), plan, SampleOptions{Model: pm, Samples: 5, KCap: kcap})
		if err != nil {
			t.Fatalf("kcap %d: %v", kcap, err)
		}
		if want := min(kcap, units); rep.Coverage.KCap != want {
			t.Fatalf("kcap %d over %d units: the report says %d, want %d", kcap, units, rep.Coverage.KCap, want)
		}
	}
}

// TestValidateSampledRejects pins the option validation.
func TestValidateSampledRejects(t *testing.T) {
	plan := fig1Plan(t, 1)
	pm, err := failures.Uniform(plan.Instance.Failures, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]SampleOptions{
		"nil model":   {},
		"bad delta":   {Model: pm, Delta: 1.5},
		"kcap budget": {Model: pm, KCap: plan.Instance.Failures.Budget},
	}
	for name, opts := range cases {
		if _, err := ValidateSampled(nil, plan, opts); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
	other := failures.SingleLinks(plan.Instance.Graph, 1)
	other.Units = other.Units[:1]
	wrong, err := failures.Uniform(other, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateSampled(nil, plan, SampleOptions{Model: wrong}); err == nil {
		t.Fatal("mismatched model: no error")
	}
}
