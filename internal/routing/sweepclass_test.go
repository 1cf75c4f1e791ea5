package routing

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// The referee: the designed sweep as it ran before scenario classes —
// every designed scenario realized and judged, in enumeration order.

// listAt indexes a scenario list for firstFailure.
func listAt(scenarios []failures.Scenario) func(int) failures.Scenario {
	return func(i int) failures.Scenario { return scenarios[i] }
}

// refereeValidate is ValidateStats over every designed scenario: the
// index and error of the first failing one.
func refereeValidate(sw *Sweep, scenarios []failures.Scenario) (int, error) {
	slots, _ := sweepScenarios(context.Background(), sw, true, true, scenarios)
	return firstFailure(slots, listAt(scenarios))
}

// refereeWorst is WorstMLUStats over every designed scenario.
func refereeWorst(sw *Sweep, scenarios []failures.Scenario) (float64, failures.Scenario, error) {
	slots, _ := sweepScenarios(context.Background(), sw, false, true, scenarios)
	ok, err := firstFailure(slots, listAt(scenarios))
	worst, at := worstOf(slots[:ok])
	if at < 0 {
		return 0, failures.Scenario{}, err
	}
	return worst, scenarios[at], err
}

// refereeSampled is ValidateSampled with every option set and its
// designed pass over every designed scenario.
func refereeSampled(sw *Sweep, scenarios []failures.Scenario, opts SampleOptions) (*SampledReport, error) {
	ctx := context.Background()
	fs := sw.plan.Instance.Failures
	slots, _ := sweepScenarios(ctx, sw, true, true, scenarios)
	if _, err := firstFailure(slots, listAt(scenarios)); err != nil {
		return nil, err
	}
	rep := &SampledReport{}
	if worst, at := worstOf(slots); at >= 0 {
		rep.WorstMLU, rep.WorstScenario = worst, scenarios[at]
	}
	tail := opts.Model.TailMass(fs.Budget)
	cov := &rep.Coverage
	*cov = failures.Coverage{Model: "sampled", Budget: fs.Budget, Exhaustive: int64(len(scenarios)),
		ExhaustiveMass: 1 - tail, TailMass: tail, TruncatedMass: tail,
		KCap: min(opts.KCap, len(fs.Units)), Delta: opts.Delta, Seed: opts.Seed}
	if sampler, err := opts.Model.NewSampler(opts.Seed, fs.Budget, opts.KCap); err == nil {
		drawn := make([]failures.Scenario, opts.Samples)
		for i := range drawn {
			drawn[i] = sampler.Next()
		}
		sslots, _ := sweepScenarios(ctx, sw.fork(int64(opts.Samples)), true, false, drawn)
		for i := range sslots {
			if sslots[i].err != nil {
				cov.SampleFailures++
			}
		}
		if worst, at := worstOf(sslots); worst > rep.WorstMLU {
			rep.WorstMLU, rep.WorstScenario = worst, drawn[at]
		}
		cov.SampledMass = sampler.SampledMass()
		cov.TruncatedMass = tail - cov.SampledMass
		if cov.TruncatedMass < 0 {
			cov.TruncatedMass = 0
		}
		cov.Samples = opts.Samples
	}
	cov.ComputeEpsilon()
	return rep, nil
}

// classesOf runs the engine's classifier over the designed set: each
// scenario's class, and each class's first member.
func classesOf(sw *Sweep) (class, first []int) {
	c := newClassifier(sw.engine, 0)
	sw.plan.Instance.Failures.EnumerateCombos(func(combo []int) bool {
		id := c.classify(combo)
		if id == len(first) {
			first = append(first, len(class))
		}
		class = append(class, id)
		return true
	})
	return class, first
}

// verdict is what a scenario comes to: its MLU through Outcome and the
// validation check's, and each error's text with the scenario's own
// rendering cut out, so members of a class compare equal.
type verdict struct {
	mlu, checkMLU uint64
	err, checkErr string
}

func verdictOf(sw *Sweep, sr *sweepScratch, sc failures.Scenario) verdict {
	strip := func(err error) string {
		if err == nil {
			return ""
		}
		return strings.ReplaceAll(err.Error(), sc.String(), "{scenario}")
	}
	out, err := sw.Outcome(sc)
	v := verdict{mlu: math.Float64bits(out.MLU), err: strip(err)}
	if _, err := sw.realize(sc, sr); err != nil {
		v.checkErr = strip(err)
		return v
	}
	mlu, err := sw.judge(sc, sr, nil, true)
	v.checkMLU, v.checkErr = math.Float64bits(mlu), strip(err)
	return v
}

// withBudget returns plan against its failure set at budget f: above
// the budget it was solved for, a plan that fails validation.
func withBudget(plan *core.Plan, f int) *core.Plan {
	in := *plan.Instance
	in.Failures = &failures.Set{Units: in.Failures.Units, Budget: f}
	p := *plan
	//lint:ignore pcflint/mutafterpub a local copy of the plan, never published, pointed at a copy of its instance
	p.Instance = &in
	return &p
}

// assertClassesMatchFullSweep holds the classes of plan's designed set
// to the referee: every member realizes to its representative's
// verdict, and ValidateStats, WorstMLUStats and ValidateSampled answer
// as the per-scenario sweep does. It returns the class and scenario
// counts and whether the designed set validates.
func assertClassesMatchFullSweep(t *testing.T, name string, plan *core.Plan) (classes, scenarios int, valid bool) {
	t.Helper()
	sw := newSweep(t, plan)
	designed := designedSet(plan)
	class, first := classesOf(sw)
	if len(class) != len(designed) {
		t.Fatalf("%s: classified %d scenarios, the set has %d", name, len(class), len(designed))
	}
	cls, err := sw.designed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cls.len() != len(first) || cls.count != len(designed) {
		t.Fatalf("%s: engine holds %d classes of %d scenarios, the classifier %d of %d", name, cls.len(), cls.count, len(first), len(designed))
	}
	for c, i := range first {
		if got := cls.fill(plan.Instance.Failures).fresh(c); !reflect.DeepEqual(got, designed[i]) {
			t.Fatalf("%s: class %d's representative is %v, its first member %v", name, c, got, designed[i])
		}
	}

	// Members against representatives.
	sr := sw.newScratch()
	reps := make([]verdict, len(first))
	for i, sc := range designed {
		v := verdictOf(sw, sr, sc)
		if first[class[i]] == i {
			reps[class[i]] = v
			continue
		}
		if v != reps[class[i]] {
			t.Fatalf("%s: %v realizes to %+v, its representative %v to %+v", name, sc, v, designed[first[class[i]]], reps[class[i]])
		}
	}

	// The entry points against the referee, each through an engine of
	// its own as the referee's is.
	ref := newSweep(t, plan)
	at, refErr := refereeValidate(ref, designed)
	st, err := newSweep(t, plan).ValidateStats(context.Background())
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("%s: ValidateStats = %v, referee %v", name, err, refErr)
	}
	if refErr != nil && first[class[at]] != at {
		t.Fatalf("%s: the first failing scenario %d is not its class's first member %d", name, at, first[class[at]])
	}
	if st.Scenarios != len(designed) || st.Classes != len(first) {
		t.Fatalf("%s: stats count %d scenarios in %d classes, want %d in %d", name, st.Scenarios, st.Classes, len(designed), len(first))
	}

	worst, worstSc, _, err := WorstMLUStats(nil, plan, ValidateOptions{})
	refWorst, refSc, refWErr := refereeWorst(ref, designed)
	if math.Float64bits(worst) != math.Float64bits(refWorst) || !reflect.DeepEqual(worstSc, refSc) || (err == nil) != (refWErr == nil) || (err != nil && err.Error() != refWErr.Error()) {
		t.Fatalf("%s: WorstMLUStats = %.17g at %v (%v), referee %.17g at %v (%v)", name, worst, worstSc, err, refWorst, refSc, refWErr)
	}

	pm, err := failures.Uniform(plan.Instance.Failures, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	opts := SampleOptions{Model: pm, Samples: 40, Delta: 0.01, Seed: 9, KCap: plan.Instance.Failures.Budget + 8}
	rep, err := newSweep(t, plan).ValidateSampled(context.Background(), opts)
	refRep, refSErr := refereeSampled(ref, designed, opts)
	if (err == nil) != (refSErr == nil) || (err != nil && err.Error() != refSErr.Error()) {
		t.Fatalf("%s: ValidateSampled = %v, referee %v", name, err, refSErr)
	}
	if err == nil && (rep.Coverage != refRep.Coverage || math.Float64bits(rep.WorstMLU) != math.Float64bits(refRep.WorstMLU) || !reflect.DeepEqual(rep.WorstScenario, refRep.WorstScenario)) {
		t.Fatalf("%s: ValidateSampled reports %+v, worst %.17g at %v; referee %+v, worst %.17g at %v",
			name, rep.Coverage, rep.WorstMLU, rep.WorstScenario, refRep.Coverage, refRep.WorstMLU, refRep.WorstScenario)
	}
	return len(first), len(designed), refErr == nil
}

// TestClassesMatchFullSweep: on every plan the delta emission is pinned
// on, on a hand plan where a dead link flips a sequence and kills no
// tunnel, and on the small ones again one failure past their budget
// (where they fail validation), sweeping one representative per class
// answers exactly as sweeping every designed scenario.
func TestClassesMatchFullSweep(t *testing.T) {
	merged, failing := 0, 0
	flip, _ := membershipFlipPlan()
	for _, tc := range append(deltaPlans(t), struct {
		name string
		plan *core.Plan
	}{"membership-flip", flip}) {
		plans := []struct {
			name string
			plan *core.Plan
		}{{tc.name, tc.plan}}
		if fs := tc.plan.Instance.Failures; len(fs.Units) <= 40 {
			plans = append(plans, struct {
				name string
				plan *core.Plan
			}{tc.name + "+1", withBudget(tc.plan, fs.Budget+1)})
		}
		for _, p := range plans {
			classes, scenarios, valid := assertClassesMatchFullSweep(t, p.name, p.plan)
			t.Logf("%s: %d scenarios in %d classes, validates %v", p.name, scenarios, classes, valid)
			merged += scenarios - classes
			if !valid {
				failing++
			}
		}
	}
	if merged == 0 || failing == 0 {
		t.Fatalf("%d scenarios merged into classes and %d failing plans: the comparison needs both", merged, failing)
	}
}

// TestDegradedScenariosStandAlone: a failure set read from an SRLG file
// with degrade units. Every scenario with a degraded link is a class of
// its own, and the sweep over the classes answers as the referee does,
// within the budget and past it.
func TestDegradedScenariosStandAlone(t *testing.T) {
	g := topozoo.MustLoad("Sprint")
	const srlgs = `# a shared conduit, two fading pairs, a fading link a conduit also kills
0 3
alpha=0.5 1 4
alpha=0.3 2 5
alpha=0.6 3
`
	specs, err := failures.ReadSRLGs(strings.NewReader(srlgs), g.NumLinks())
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 5, Jitter: 0.4})
	pairs := tm.TopPairs(8)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{Graph: g, TM: tm.Restrict(pairs), Tunnels: ts,
		Failures: failures.SRLGSet(g, specs, 1), Objective: core.DemandScale}
	plan, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*core.Plan{plan, withBudget(plan, 2)} {
		fs := p.Instance.Failures
		name := fmt.Sprintf("sprint-srlg-f%d", fs.Budget)
		class, _ := classesOf(newSweep(t, p))
		members := make([]int, len(class))
		for _, c := range class {
			members[c]++
		}
		degraded := 0
		for i, sc := range designedSet(p) {
			if len(sc.Degraded) > 0 {
				degraded++
				if members[class[i]] != 1 {
					t.Fatalf("%s: degraded scenario %v shares class %d with %d others", name, sc, class[i], members[class[i]]-1)
				}
			}
		}
		if degraded == 0 {
			t.Fatalf("%s: no degraded scenario", name)
		}
		classes, scenarios, valid := assertClassesMatchFullSweep(t, name, p)
		t.Logf("%s: %d scenarios (%d degraded) in %d classes, validates %v", name, scenarios, degraded, classes, valid)
	}
}

// TestClassesBuiltOnceConcurrently: designed sweeps racing on a fresh
// engine, through it and through forks, build its classes once and all
// see them.
func TestClassesBuiltOnceConcurrently(t *testing.T) {
	sw := newSweep(t, fig5CLSPlan(t))
	const callers = 6
	got := make([]*designedClasses, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			view := sw
			if i%2 == 1 {
				view = sw.fork(8)
			}
			var st *SweepStats
			st, errs[i] = view.ValidateStats(context.Background())
			if errs[i] == nil && st.Classes != view.classes.len() {
				errs[i] = fmt.Errorf("caller %d realized %d of %d classes", i, st.Classes, view.classes.len())
			}
			got[i] = view.classes
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != sw.classes {
			t.Fatalf("caller %d swept classes %p, the engine holds %p", i, got[i], sw.classes)
		}
	}
}

// TestSweptErrorsKeepTheirScenario: a sweep worker refills one scratch
// scenario per class, and a failing class's error holds the scenario it
// failed under. On a plan one failure past its budget, swept by one
// worker that goes on past every failure, each error still names its
// own class's representative after the later classes were swept, and
// the first designed failure's error its scenario after a second sweep
// through the same engine.
func TestSweptErrorsKeepTheirScenario(t *testing.T) {
	old := sweepWorkerCount
	sweepWorkerCount = func() int { return 1 }
	defer func() { sweepWorkerCount = old }()
	plan := withBudget(fig4LSPlan(t, 3, 2, 2, 1), 2)
	ctx := context.Background()
	sw := newSweep(t, plan)
	_, err := sw.ValidateStats(ctx)
	if err == nil {
		t.Fatal("the plan validates one failure past its budget: the test needs failing classes")
	}
	msg := err.Error()

	cls, cerr := sw.designed(ctx)
	if cerr != nil {
		t.Fatal(cerr)
	}
	fill := cls.fill(plan.Instance.Failures)
	slots, _ := sweep(ctx, sw, true, false, cls.len(), fill)
	failing := 0
	for i := range slots {
		if slots[i].err == nil {
			continue
		}
		failing++
		alone, _ := sweepScenarios(ctx, newSweep(t, plan), true, true, []failures.Scenario{fill.fresh(i)})
		if got, want := slots[i].err.Error(), alone[0].err; want == nil || got != want.Error() {
			t.Fatalf("class %d: swept error %q, the class alone %v", i, got, want)
		}
	}
	if failing < 2 {
		t.Fatalf("%d failing classes: the test needs a failure followed by later ones", failing)
	}
	if got := err.Error(); got != msg {
		t.Fatalf("the first validation's error changed after later sweeps:\n%s\nnow\n%s", msg, got)
	}
}

// tailPlans are the plans the tail classes are pinned on: the
// benchmark's Sprint PCF-TF instance at f=1, the hand plan whose dead
// link flips a sequence and kills no tunnel at budget 0 (so that every
// draw is past the budget, the flip included), the conditional-LS
// gadget at f=2 and — outside -short — the benchmark's BTNorthAmerica
// pair at f=2.
func tailPlans(t *testing.T) []struct {
	name string
	plan *core.Plan
} {
	t.Helper()
	sprint, err := core.SolvePCFTF(benchInstance(t, "Sprint", 45, 1), core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flip, _ := membershipFlipPlan()
	plans := []struct {
		name string
		plan *core.Plan
	}{{"sprint-tf-f1", sprint}, {"membership-flip-f0", withBudget(flip, 0)}, {"fig5-cls", fig5CLSPlan(t)}}
	if !testing.Short() {
		tf, cls := btnaPlans(t)
		plans = append(plans, struct {
			name string
			plan *core.Plan
		}{"btna-tf-f2", tf}, struct {
			name string
			plan *core.Plan
		}{"btna-cls-f2", cls})
	}
	return plans
}

// sampledReportsEqual fails t unless two sampled validations answered
// alike: the same error, or the same coverage struct, worst MLU bits and
// worst scenario.
func sampledReportsEqual(t *testing.T, at string, got *SampledReport, err error, want *SampledReport, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: ValidateSampled = %v, per draw %v", at, err, werr)
	}
	if err == nil && (got.Coverage != want.Coverage || math.Float64bits(got.WorstMLU) != math.Float64bits(want.WorstMLU) ||
		!reflect.DeepEqual(got.WorstScenario, want.WorstScenario)) {
		t.Fatalf("%s: ValidateSampled reports %+v, worst %.17g at %v; per draw %+v, worst %.17g at %v",
			at, got.Coverage, got.WorstMLU, got.WorstScenario, want.Coverage, want.WorstMLU, want.WorstScenario)
	}
}

// TestTailClassesMatchPerDraw: a sampled validation realizes one draw
// per class of the tail — a draw in a designed class takes the designed
// pass's outcome, a later draw of a tail class its first draw's — and
// reports exactly what realizing every draw reports (refereeSampled):
// the coverage struct, the worst MLU's bits and the worst scenario, at
// three unit probabilities and three seeds. The draws must land in
// designed classes and repeat tail classes somewhere, or the comparison
// shows nothing. A last pass plants, under the hash of every tail key,
// a designed class of another key: a lookup that trusted the hash would
// hand those draws a designed outcome.
func TestTailClassesMatchPerDraw(t *testing.T) {
	const samples = 300
	ctx := context.Background()
	allHits, allRepeats := 0, 0
	for _, tc := range tailPlans(t) {
		fs := tc.plan.Instance.Failures
		designed := designedSet(tc.plan)
		ref, sw := newSweep(t, tc.plan), newSweep(t, tc.plan)
		cls, err := sw.designed(ctx)
		if err != nil {
			t.Fatal(err)
		}
		hits, reps := 0, 0
		var decoyOpts SampleOptions
		for _, p := range []float64{0.01, 0.05, 0.2} {
			pm, err := failures.Uniform(fs, p)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				opts := SampleOptions{Model: pm, Samples: samples, Delta: 0.01, Seed: seed, KCap: fs.Budget + 8}
				at := fmt.Sprintf("%s p %g seed %d", tc.name, p, seed)
				got, err := sw.ValidateSampled(ctx, opts)
				want, werr := refereeSampled(ref, designed, opts)
				sampledReportsEqual(t, at, got, err, want, werr)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				sampler, err := pm.NewSampler(seed, fs.Budget, opts.KCap)
				if err != nil {
					t.Fatal(err)
				}
				tail := newTailClasses(sw.engine, cls, fs.Units, samples)
				for i := 0; i < samples; i++ {
					tail.draw(sampler)
				}
				if got.Stats.Scenarios != len(designed)+samples || got.Stats.Classes != cls.len()+len(tail.reps) {
					t.Fatalf("%s: stats count %d scenarios in %d classes, want %d in %d",
						at, got.Stats.Scenarios, got.Stats.Classes, len(designed)+samples, cls.len()+len(tail.reps))
				}
				for _, r := range tail.class {
					if r < 0 {
						hits++
					}
				}
				reps += len(tail.reps)
				if want.Coverage.SampleFailures > 0 {
					decoyOpts = opts
				}
			}
		}
		repeats := 9*samples - hits - reps
		t.Logf("%s: %d draws, %d in designed classes, %d tail classes, %d repeats", tc.name, 9*samples, hits, reps, repeats)
		allHits += hits
		allRepeats += repeats

		// Decoys: every tail key's hash names the no-failure class.
		if decoyOpts.Model == nil {
			t.Fatalf("%s: no failing draw to hide behind a decoy", tc.name)
		}
		dec := newSweep(t, tc.plan)
		dcls, err := dec.designed(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := decoyOpts.Model.NewSampler(decoyOpts.Seed, fs.Budget, decoyOpts.KCap)
		if err != nil {
			t.Fatal(err)
		}
		tail := newTailClasses(dec.engine, dcls, fs.Units, samples)
		for i := 0; i < samples; i++ {
			tail.draw(sampler)
		}
		for r := range tail.reps {
			if key := tail.index.keys[tail.index.keyOff[r]:tail.index.keyOff[r+1]]; len(key) > 0 {
				dcls.index.ids[maphash.Bytes(dec.keySeed, key)] = 0
			}
		}
		got, err := dec.ValidateSampled(ctx, decoyOpts)
		want, werr := refereeSampled(ref, designed, decoyOpts)
		sampledReportsEqual(t, tc.name+" with decoys", got, err, want, werr)
	}
	if allHits == 0 || allRepeats == 0 {
		t.Fatalf("%d draws in designed classes and %d repeated tail classes: the comparison needs both", allHits, allRepeats)
	}
}

// TestTailRealizesOnePerClass: the thousand draws the sprint-tf-f1
// benchmark workload requests (p = 0.01, seed 1) fall into at most 190
// classes, and only those are realized; one realization per draw would
// be a thousand.
func TestTailRealizesOnePerClass(t *testing.T) {
	plan, err := core.SolvePCFTF(benchInstance(t, "Sprint", 45, 1), core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := failures.Uniform(plan.Instance.Failures, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sw := newSweep(t, plan)
	rep, err := sw.ValidateSampled(context.Background(), SampleOptions{Model: pm, Samples: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	draws, reps := rep.Stats.Scenarios-sw.classes.count, rep.Stats.Classes-sw.classes.len()
	t.Logf("%d draws, %d realized", draws, reps)
	if draws != 1000 || reps < 1 || reps > 190 {
		t.Fatalf("%d draws realized %d tail representatives, want 1000 draws in at most 190", draws, reps)
	}
}
