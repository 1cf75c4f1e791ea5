package lp

import (
	"errors"
	"fmt"
)

// Typed solver failures. Every error returned by SolveWithOptions wraps
// one of these sentinels (or a context error), so callers select their
// response with errors.Is instead of string matching:
//
//	ErrNumerical — the basis inverse drifted beyond repair and the
//	  tightened-refactorization retry also failed;
//	ErrIterLimit — the iteration budget was exhausted before reaching
//	  optimality;
//	ErrInfeasible / ErrUnbounded — terminal statuses surfaced as errors
//	  via Solution.Err for callers that require an optimal solution.
var (
	ErrNumerical  = errors.New("lp: numerical failure, basis refactorization did not recover")
	ErrIterLimit  = errors.New("lp: iteration limit exhausted")
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
)

// Err converts a non-optimal terminal status into its typed sentinel.
// It returns nil for StatusOptimal. Callers that need an optimal
// solution can wrap the result with %w to make the failure matchable.
func (s *Solution) Err() error {
	switch s.Status {
	case StatusOptimal:
		return nil
	case StatusInfeasible:
		return ErrInfeasible
	case StatusUnbounded:
		return ErrUnbounded
	case StatusIterLimit:
		return ErrIterLimit
	}
	return fmt.Errorf("lp: unknown terminal status %d", s.Status)
}

// SolveError carries partial diagnostics from an aborted solve: how far
// the solver got before cancellation, fault injection, or numerical
// breakdown stopped it. It wraps the underlying cause, so
// errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, ErrNumerical) both see through it.
type SolveError struct {
	// Iterations is the number of simplex iterations completed across
	// both phases when the solve aborted.
	Iterations int
	// Phase is the simplex phase that aborted (1 or 2 for the primal
	// phases, 3 for the dual simplex), or 0 when the solve never started
	// iterating.
	Phase int
	// LastObjective is the most recent phase objective observed (the
	// phase-1 infeasibility sum or the phase-2 cost), +Inf if no
	// iteration improved it.
	LastObjective float64
	// Err is the underlying cause.
	Err error
}

func (e *SolveError) Error() string {
	return fmt.Sprintf("lp: solve aborted in phase %d after %d iterations (last objective %g): %v",
		e.Phase, e.Iterations, e.LastObjective, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *SolveError) Unwrap() error { return e.Err }

// FaultPoint identifies a solver checkpoint at which a FaultHook runs.
type FaultPoint int

const (
	// FaultSolveStart fires once per SolveWithOptions call, after the
	// model is converted to standard form.
	FaultSolveStart FaultPoint = iota
	// FaultIteration fires at the top of every simplex iteration.
	FaultIteration
	// FaultRefactor fires before each basis refactorization; an error
	// makes the refactorization report failure, exercising the solver's
	// numerical-recovery path.
	FaultRefactor
)

// String names the fault point.
func (p FaultPoint) String() string {
	switch p {
	case FaultSolveStart:
		return "solve-start"
	case FaultIteration:
		return "iteration"
	case FaultRefactor:
		return "refactor"
	}
	return "unknown"
}

// FaultEvent describes one checkpoint occurrence for a FaultHook.
type FaultEvent struct {
	Point FaultPoint
	// Iter is the global simplex iteration count at the checkpoint.
	Iter int
	// Rows and Cols are the standard-form dimensions of the model.
	Rows, Cols int
}
