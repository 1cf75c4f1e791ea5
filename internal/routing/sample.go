package routing

// Sampled validation: the probabilistic scenario model's validation
// entry point. The designed failure set is still judged exhaustively —
// that part keeps the hard guarantee, read from the engine's kept
// designed pass — and the tail beyond the budget (scenarios exhaustive
// enumeration silently ignores) is covered statistically: N seeded
// draws from the conditional tail sampler are checked, one realization
// per class of draws, and the report carries
// the explicit bound "P(a scenario occurs that validation has not
// covered) ≤ ε with confidence 1−δ" (failures.Coverage, math in
// DESIGN.md §18).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
)

// SampleOptions configures ValidateSampled.
type SampleOptions struct {
	// Model supplies the per-unit failure probabilities. Required, and
	// over the plan's failure set (ErrForeignModel otherwise).
	Model *failures.ProbModel
	// Samples is the number of tail draws. Default 200; negative means
	// no sampling (the whole tail mass counts against ε).
	Samples int
	// Delta is the confidence parameter: the reported ε holds with
	// confidence 1−Delta. Default 0.01.
	Delta float64
	// Seed drives the tail sampler; the same seed yields a
	// byte-identical coverage report.
	Seed int64
	// KCap truncates the sampled failure-count range at (budget, KCap];
	// mass beyond KCap is charged fully to ε. Default Budget+8; above the
	// unit count it is the unit count, which the report then carries.
	KCap int
}

// SampledReport is the outcome of a sampled validation run.
type SampledReport struct {
	// Coverage is the explicit coverage bound (ε, δ).
	Coverage failures.Coverage
	// WorstMLU and WorstScenario track the worst utilization seen over
	// both the designed set and the successfully realized samples.
	WorstMLU      float64
	WorstScenario failures.Scenario
	// Stats merges the sweep statistics of the designed pass read (the
	// engine's kept one) and this call's tail, which share one engine;
	// Total is this call's wall clock.
	Stats SweepStats
}

// ValidateSampled judges the plan's designed failure set
// exhaustively, then estimates how the plan fares beyond it: tail
// scenarios (more than Budget failed units) are drawn from the
// conditional distribution with a seeded sampler, realized, and
// checked. A designed-set violation is a hard error, exactly as
// ValidateStats reports it. A sampled-scenario violation is not — beyond-
// budget scenarios carry no guarantee — it is counted in
// Coverage.SampleFailures and priced into ε. A cancellation anywhere,
// the tail sweep included, is the call's error and yields no report.
// Deterministic given opts.Seed: samples are pre-drawn serially before
// the parallel sweep, and outcomes merge in draw order. The stats'
// Total is the whole call's wall clock.
//
// The designed set's verdict and worst are the engine's kept designed
// pass (keptPass): its outcome depends on the plan alone, so on a
// published engine it is the pass publication's ValidateStats swept,
// and the call realizes no designed representative. An engine that has
// completed no such pass sweeps one first, one representative per class
// of scenarios as in ValidateStats, and keeps it; the designed counters
// in Stats are those of the pass read. The draws are classified by the
// same equivalence as they are drawn (tailClasses): a draw in a
// designed class takes that class's outcome from the kept pass, and of
// the others only the first draw of each class is realized, the later
// ones taking its outcome, so every draw's outcome is the one its own
// realization would have. The representatives run through a fork of s
// (fork): it shares the engine, reads s's correctors first and keeps
// its own misses, so s's cache stays at what it held. Safe for concurrent use, beside any
// other use of s.
func (s *Sweep) ValidateSampled(ctx context.Context, opts SampleOptions) (*SampledReport, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Model == nil {
		return nil, fmt.Errorf("routing: sampled validation needs a probability model")
	}
	plan := s.plan
	fs := plan.Instance.Failures
	if err := modelFits(opts.Model, fs); err != nil {
		return nil, err
	}
	if opts.Samples == 0 {
		opts.Samples = 200
	}
	if opts.Samples < 0 {
		opts.Samples = 0
	}
	if opts.Delta == 0 {
		opts.Delta = 0.01
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return nil, fmt.Errorf("routing: delta %v outside (0,1)", opts.Delta)
	}
	if opts.KCap == 0 {
		opts.KCap = fs.Budget + 8
	}
	if opts.KCap <= fs.Budget {
		return nil, fmt.Errorf("routing: kcap %d must exceed the budget %d", opts.KCap, fs.Budget)
	}
	// The designed set: the hard guarantee. Any violation here is the
	// caller's error, not a statistic.
	pass, err := s.keptPass(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := firstFailure(pass.slots, pass.fill.fresh); err != nil {
		return nil, err
	}
	rep := &SampledReport{Stats: pass.stats}
	if worst, i := worstOf(pass.slots); i >= 0 {
		rep.WorstMLU, rep.WorstScenario = worst, pass.fill.fresh(i)
	}

	tailMass := opts.Model.TailMass(fs.Budget)
	cov := &rep.Coverage
	cov.Model = "sampled"
	cov.Budget = fs.Budget
	cov.Exhaustive = int64(pass.stats.Scenarios)
	cov.ExhaustiveMass = 1 - tailMass
	cov.TailMass = tailMass
	cov.TruncatedMass = tailMass
	cov.KCap = min(opts.KCap, len(fs.Units)) // where the sampler clamps it
	cov.Delta = opts.Delta
	cov.Seed = opts.Seed

	// Tail pass. A sampler can legitimately be unconstructible (zero
	// unit probabilities, budget ≥ unit count): then nothing is sampled
	// and ComputeEpsilon charges the whole tail mass, which is the
	// honest answer, not an error.
	sampler, serr := opts.Model.NewSampler(opts.Seed, fs.Budget, opts.KCap)
	if serr == nil && opts.Samples > 0 {
		cls, err := s.designed(ctx)
		if err != nil {
			return nil, err
		}
		// Draw and classify serially: the seeded stream must not depend
		// on worker scheduling.
		draws := opts.Model.Set
		tail := newTailClasses(s.engine, cls, draws.Units, opts.Samples)
		for i := 0; i < opts.Samples; i++ {
			if i%256 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("routing: sampled validation canceled after %d draws: %w", i, err)
				}
			}
			tail.draw(sampler)
		}
		// Only the representatives are realized, each on the fork,
		// which keeps at most one corrector apiece. A draw's MLU is read
		// only above the designed worst, and its failure only counted.
		fill := func(i int, dst *failures.Scenario) { draws.FillScenario(dst, tail.at(i)) }
		sslots, sStats := sweepSome(ctx, s.fork(int64(len(tail.reps))), true, false, opts.Samples, fill, tail.represents)
		sStats.Classes = len(tail.reps)
		rep.Stats.add(*sStats)
		// A slot the cancellation reached holds the context's error, not
		// a measurement, and slots past it hold nothing: the call fails.
		// With the context live throughout, every draw was swept.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("routing: sampled validation canceled in the tail sweep: %w", err)
		}
		tail.outcomes(sslots, pass.slots)
		for i := range sslots {
			if sslots[i].err != nil {
				// Realization or check failure on a beyond-budget
				// scenario: a measurement, priced into ε.
				cov.SampleFailures++
			}
		}
		if worst, at := worstOf(sslots); worst > rep.WorstMLU {
			rep.WorstMLU, rep.WorstScenario = worst, draws.ScenarioOf(tail.at(at))
		}
		cov.SampledMass = sampler.SampledMass()
		cov.TruncatedMass = tailMass - cov.SampledMass
		if cov.TruncatedMass < 0 {
			cov.TruncatedMass = 0
		}
		cov.Samples = opts.Samples
	}
	cov.ComputeEpsilon()
	rep.Stats.Total = time.Since(start)
	return rep, nil
}

// ErrForeignModel reports a probability model that is not over the
// plan's failure set: it has no set, another set, or a probability
// count other than the set's unit count. Matched with errors.Is.
var ErrForeignModel = errors.New("routing: probability model is not over the plan's failure set")

// modelFits checks that pm draws over fs, the plan's failure set: its
// Set is fs or equal to it, and it gives every unit a probability.
func modelFits(pm *failures.ProbModel, fs *failures.Set) error {
	switch {
	case fs == nil:
		return fmt.Errorf("%w: the plan has none", ErrForeignModel)
	case pm.Set == nil:
		return fmt.Errorf("%w: the model has no set", ErrForeignModel)
	case pm.Set != fs && (pm.Set.Budget != fs.Budget || !reflect.DeepEqual(pm.Set.Units, fs.Units)):
		return fmt.Errorf("%w: the model's set has %d units at budget %d, the plan's %d at budget %d",
			ErrForeignModel, len(pm.Set.Units), pm.Set.Budget, len(fs.Units), fs.Budget)
	case len(pm.P) != len(fs.Units):
		return fmt.Errorf("%w: the model has %d probabilities, the set %d units", ErrForeignModel, len(pm.P), len(fs.Units))
	}
	return nil
}

// ValidateSampled is the one-shot form of (*Sweep).ValidateSampled: it
// builds the plan's engine, validates through it and discards it; the
// reported Total includes the build.
func ValidateSampled(ctx context.Context, plan *core.Plan, opts SampleOptions) (*SampledReport, error) {
	sw, err := NewSweepContext(ctx, plan)
	if err != nil {
		return nil, err
	}
	rep, err := sw.ValidateSampled(ctx, opts)
	if rep != nil {
		rep.Stats.Total += rep.Stats.BaseFactorTime
	}
	return rep, err
}

// WorstMLUSearch runs the adversarial worst-scenario search
// (core.WorstScenarioSearch) with the sweep engine's MLU as the
// objective: each candidate scenario is realized through the
// incremental §4.1 path and scored by its maximum link utilization.
// When opts.Eval is already set it is used as-is. The search is
// serial, so one scratch serves every evaluation.
func WorstMLUSearch(ctx context.Context, plan *core.Plan, opts core.SearchOptions) (*core.SearchResult, error) {
	if opts.Eval == nil {
		sw, err := NewSweepContext(ctx, plan)
		if err != nil {
			return nil, err
		}
		sr := sw.newScratch()
		opts.Eval = func(sc failures.Scenario) (float64, error) {
			if _, err := sw.realize(sc, sr); err != nil {
				return 0, err
			}
			return sw.judge(sc, sr, nil, false)
		}
	}
	return core.WorstScenarioSearch(ctx, plan, opts)
}
