package routing

// Sampled validation: the probabilistic scenario model's validation
// entry point. The designed failure set is still swept exhaustively —
// that part keeps the hard guarantee — and the tail beyond the budget
// (scenarios exhaustive enumeration silently ignores) is covered
// statistically: N seeded draws from the conditional tail sampler are
// realized and checked, and the report carries the explicit bound
// "P(a scenario occurs that validation has not covered) ≤ ε with
// confidence 1−δ" (failures.Coverage, math in DESIGN.md §18).

import (
	"context"
	"fmt"

	"pcf/internal/core"
	"pcf/internal/failures"
)

// SampleOptions configures ValidateSampled.
type SampleOptions struct {
	// Model supplies the per-unit failure probabilities. Required; its
	// unit count must match the plan's failure set.
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
	// both the exhaustive sweep and the successfully realized samples.
	WorstMLU      float64
	WorstScenario failures.Scenario
	// Stats merges the sweep statistics of the exhaustive and sampled
	// passes, which share one engine.
	Stats SweepStats
}

// ValidateSampled validates the plan's designed failure set
// exhaustively, then estimates how the plan fares beyond it: tail
// scenarios (more than Budget failed units) are drawn from the
// conditional distribution with a seeded sampler, realized, and
// checked. A designed-set violation is a hard error, exactly as
// ValidateStats reports it. A sampled-scenario violation is not — beyond-
// budget scenarios carry no guarantee — it is counted in
// Coverage.SampleFailures and priced into ε. A cancellation anywhere,
// the tail sweep included, is the call's error and yields no report.
// Deterministic given opts.Seed: samples are pre-drawn serially before
// the parallel sweep, and outcomes merge in draw order.
//
// The designed pass runs through s itself, one representative per
// class of scenarios as in ValidateStats, so on a published engine the
// classes and every corrector it needs are already built. The draws
// run through a fork of s (fork): it shares the engine, reads s's
// correctors first and keeps its own misses, so s's cache stays at what
// it held. Safe for concurrent use, beside any other use of s.
func (s *Sweep) ValidateSampled(ctx context.Context, opts SampleOptions) (*SampledReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Model == nil {
		return nil, fmt.Errorf("routing: sampled validation needs a probability model")
	}
	plan := s.plan
	fs := plan.Instance.Failures
	if fs == nil || len(opts.Model.P) != len(fs.Units) {
		return nil, fmt.Errorf("routing: probability model has %d units, plan's failure set %d",
			len(opts.Model.P), len(fs.Units))
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
	// Exhaustive pass over the designed set: the hard guarantee. Any
	// violation here is the caller's error, not a statistic.
	fill, slots, exStats, err := s.sweepDesigned(ctx, true)
	if err != nil {
		return nil, err
	}
	if _, err := firstFailure(slots, fill.fresh); err != nil {
		return nil, err
	}
	rep := &SampledReport{Stats: *exStats}
	if worst, i := worstOf(slots); i >= 0 {
		rep.WorstMLU, rep.WorstScenario = worst, fill.fresh(i)
	}

	tail := opts.Model.TailMass(fs.Budget)
	cov := &rep.Coverage
	cov.Model = "sampled"
	cov.Budget = fs.Budget
	cov.Exhaustive = int64(exStats.Scenarios)
	cov.ExhaustiveMass = 1 - tail
	cov.TailMass = tail
	cov.TruncatedMass = tail
	cov.KCap = min(opts.KCap, len(fs.Units)) // where the sampler clamps it
	cov.Delta = opts.Delta
	cov.Seed = opts.Seed

	// Tail pass. A sampler can legitimately be unconstructible (zero
	// unit probabilities, budget ≥ unit count): then nothing is sampled
	// and ComputeEpsilon charges the whole tail mass, which is the
	// honest answer, not an error.
	sampler, serr := opts.Model.NewSampler(opts.Seed, fs.Budget, opts.KCap)
	if serr == nil && opts.Samples > 0 {
		// Pre-draw serially: the seeded stream must not depend on
		// worker scheduling.
		drawn := make([]failures.Scenario, opts.Samples)
		for i := range drawn {
			if i%256 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("routing: sampled validation canceled after %d draws: %w", i, err)
				}
			}
			drawn[i] = sampler.Next()
		}
		// A draw's corrector is kept by the fork, at most one per draw.
		sslots, sStats := sweep(ctx, s.fork(int64(opts.Samples)), true, false, len(drawn), func(i int, dst *failures.Scenario) { *dst = drawn[i] })
		rep.Stats.add(*sStats)
		// A slot the cancellation reached holds the context's error, not
		// a measurement, and slots past it hold nothing: the call fails.
		// With the context live throughout, every slot was swept.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("routing: sampled validation canceled in the tail sweep: %w", err)
		}
		for i := range sslots {
			if sslots[i].err != nil {
				// Realization or check failure on a beyond-budget
				// scenario: a measurement, priced into ε.
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
