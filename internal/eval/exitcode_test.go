package eval

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pcf/internal/core"
	"pcf/internal/lp"
	"pcf/internal/routing"
)

// TestExitCode pins the CLI exit-code contract: 2 for deadline, 3 for
// infeasible/unbounded, 1 for anything else — through arbitrary
// wrapping, including *lp.SolveError.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, ExitOK},
		{"plain deadline", context.DeadlineExceeded, ExitDeadline},
		{"wrapped deadline", fmt.Errorf("core: SolveBest FFC: %w", context.DeadlineExceeded), ExitDeadline},
		{"infeasible", lp.ErrInfeasible, ExitInfeasible},
		{"wrapped infeasible", fmt.Errorf("core: %w", fmt.Errorf("lp: %w", lp.ErrInfeasible)), ExitInfeasible},
		{"unbounded", fmt.Errorf("x: %w", lp.ErrUnbounded), ExitInfeasible},
		{"solve error deadline", &lp.SolveError{Err: context.DeadlineExceeded}, ExitDeadline},
		{"solve error infeasible", fmt.Errorf("wrap: %w", &lp.SolveError{Err: lp.ErrInfeasible}), ExitInfeasible},
		{"numerical", fmt.Errorf("x: %w", lp.ErrNumerical), ExitFailure},
		{"canceled", context.Canceled, ExitFailure},
		{"opaque", errors.New("boom"), ExitFailure},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := ExitCode(c.err); got != c.want {
				t.Fatalf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
			}
		})
	}
}

// TestExitCodeValidationDeadline: a -timeout that expires during
// `pcfplan -validate` must classify like one that expires during the
// solve. The validation sweep's error, wrapped the way pcfplan wraps
// it, still carries the deadline.
func TestExitCodeValidationDeadline(t *testing.T) {
	setup, err := Prepare(Options{Topology: "Sprint", Seed: 1, MaxPairs: 6, FailureBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.SolvePCFTF(setup.instance(0), core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = routing.ValidateStats(ctx, plan, routing.ValidateOptions{})
	if err == nil {
		t.Fatal("validation ignored an expired deadline")
	}
	if got := ExitCode(fmt.Errorf("VALIDATION FAILED: %w", err)); got != ExitDeadline {
		t.Fatalf("ExitCode(%v) = %d, want %d", err, got, ExitDeadline)
	}
}
