package routing

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

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
// sweep never starts and the error is the context's own.
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
