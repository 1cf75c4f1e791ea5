package core

import (
	"errors"
	"fmt"

	"pcf/internal/lp"
)

// Degradable reports whether a rung failure should drop to the next
// rung, and whether a solve failure counts toward tripping pcfd's
// circuit breaker: numerical breakdown or an exhausted iteration or
// cut budget, failure modes where retrying the same rung keeps burning
// the budget of every request. Infeasibility does not qualify — CLS is
// the most expressive scheme, so if it is infeasible every lower rung
// is too — and neither does a deadline, which only the overall Context
// sets and which indicts the request's budget, not the rung.
func Degradable(err error) bool {
	return errors.Is(err, lp.ErrNumerical) ||
		errors.Is(err, lp.ErrIterLimit) ||
		errors.Is(err, ErrCutLimit)
}

// stripConditional returns a copy of in with only the unconditional
// logical sequences, renumbered densely so Instance.Validate accepts
// the copy.
func stripConditional(in *Instance) *Instance {
	out := *in
	out.LSs = nil
	for _, q := range in.LSs {
		if q.Cond == nil {
			q.ID = LSID(len(out.LSs))
			out.LSs = append(out.LSs, q)
		}
	}
	return &out
}

// SolveBest runs the solve degradation ladder: PCF-CLS, then PCF-LS
// (conditional logical sequences stripped), then FFC. A rung is
// abandoned — and recorded in Plan.Degraded — when it breaks down
// numerically or exhausts an iteration or cut budget; any other
// failure, and cancellation of the overall Context, aborts the ladder
// immediately. Every rung optimizes the same congestion-free model
// family, so a downgrade weakens optimality, never the proved guarantee
// of the plan that is returned.
func SolveBest(in *Instance, opts SolveOptions) (*Plan, error) {
	return SolveBestFrom(in, opts, 0)
}

// BestRungs names SolveBest's ladder in order, most expressive first.
// Index i of this list is the rung SolveBestFrom(in, opts, i) starts
// at.
var BestRungs = []string{"PCF-CLS", "PCF-LS", "FFC"}

// SolveBestFrom is SolveBest entered partway down the ladder: the
// first skip rungs are not attempted at all. It exists for callers
// that track rung health across solves — pcfd's circuit breaker steps
// skip up after repeated numerical or cut-budget failures and anneals
// it back, so a rung that keeps breaking stops burning the solve
// budget of every request. Skipped rungs are not recorded in
// Plan.Degraded (they were never tried); skip is clamped to keep at
// least the last rung.
func SolveBestFrom(in *Instance, opts SolveOptions, skip int) (*Plan, error) {
	type rung struct {
		name  string
		solve func(*Instance, SolveOptions) (*Plan, error)
		inst  *Instance
	}
	rungs := []rung{
		{"PCF-CLS", SolvePCFCLS, in},
		{"PCF-LS", SolvePCFLS, stripConditional(in)},
		{"FFC", SolveFFC, in},
	}
	if skip < 0 {
		skip = 0
	}
	if skip > len(rungs)-1 {
		skip = len(rungs) - 1
	}
	rungs = rungs[skip:]

	var degraded []string
	var firstErr error
	for _, r := range rungs {
		if err := opts.ctxErr(); err != nil {
			return nil, fmt.Errorf("core: SolveBest canceled before %s: %w", r.name, err)
		}
		plan, err := r.solve(r.inst, opts)
		if err == nil {
			plan.Degraded = degraded
			return plan, nil
		}
		// A degradable failure under a context that has since expired
		// still aborts: retrying lower rungs would just burn the caller.
		if !Degradable(err) || opts.ctxErr() != nil {
			return nil, fmt.Errorf("core: SolveBest %s: %w", r.name, err)
		}
		degraded = append(degraded, r.name)
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("core: SolveBest exhausted all rungs (%v): %w", degraded, firstErr)
}
