package routing

import (
	"context"
	"testing"

	"pcf/internal/core"
)

// Hooks for the external test package (served_test.go, which drives
// the engine through internal/serve, and loads_test.go, which prepares
// the benchmark's plans through internal/eval), which cannot live in
// this one.

// SweepBuilds reports how many engines have been constructed so far.
func SweepBuilds() int64 { return sweepBuilds.Load() }

// CachedCorrectors counts the SMW correctors the view has memoized —
// on a fork, its own, not its parent's.
func (s *Sweep) CachedCorrectors() int {
	n := 0
	s.cors.m.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// CorruptBaseFlow adds delta to the first recorded base flow of
// destination di — the flow list a replayed destination is checked and
// materialized from — and returns the undo. Both recompute the record's
// balance verdict for di, as recordBase would have.
func (s *Sweep) CorruptBaseFlow(di int, delta float64) (restore func()) {
	i := s.rec.flowOff[di]
	old := s.rec.flowVal[i]
	bal := newBalance(len(s.destIndex))
	set := func(v float64) {
		s.rec.flowVal[i] = v
		lo, hi := s.rec.flowOff[di], s.rec.flowOff[di+1]
		node, _, _ := s.imbalance(&bal, di, s.rec.flowTun[lo:hi], s.rec.flowVal[lo:hi])
		s.rec.balanced[di] = node < 0
	}
	set(old + delta)
	return func() { set(old) }
}

// Fig5CLSPlan is the conditional-LS, double-failure plan the sweep
// tests use: small, yet with rank-k scenarios and cold fallbacks.
var Fig5CLSPlan = fig5CLSPlan

// DistinctBeyondBudget lists distinct link sets past a plan's failure
// budget, smallest first.
var DistinctBeyondBudget = distinctBeyondBudget

// SprintCLSPlan is the Sprint single-failure plan: eight pairs over
// three tunnels each, so link sets beyond the budget have many distinct
// signatures.
var SprintCLSPlan = sprintCLSPlanOrSkip

// NamedPlan is a test plan and its name.
type NamedPlan struct {
	Name string
	Plan *core.Plan
}

// GadgetPlans are the small plans the engine's properties are pinned
// on.
func GadgetPlans(t *testing.T) []NamedPlan {
	var plans []NamedPlan
	for _, g := range gadgetPlans(t) {
		plans = append(plans, NamedPlan{g.name, g.plan})
	}
	return plans
}

// BeyondBudget draws seeded scenarios outside any designed set.
var BeyondBudget = beyondBudget

// NearThresholdPlan is a plan one of whose scenarios the engine and the
// dense loop judge differently, with the scenarios to referee it on.
var NearThresholdPlan = nearThresholdPlan

// AssertLoadsMatchDense referees the arc-load rule on one plan.
var AssertLoadsMatchDense = assertLoadsMatchDense

// AssertScratchCorrectors referees the decoupled corrector build on one
// plan and returns how many scenarios took it.
var AssertScratchCorrectors = assertScratchCorrectors

// CheckRealizationScan is the realization check over the whole
// matrix's demand pairs, as it was: the reference Sweep.Check is held
// to.
var CheckRealizationScan = checkRealizationScan

// SetSweepWorkers forces every sweep onto n workers, and returns the
// undo.
func SetSweepWorkers(n int) (restore func()) {
	old := sweepWorkerCount
	sweepWorkerCount = func() int { return n }
	return func() { sweepWorkerCount = old }
}

// ErrAfter returns a context whose Err reports context.Canceled from
// its (after+1)-th call on, and the number of calls so far.
func ErrAfter(ctx context.Context, after int64) (context.Context, func() int64) {
	c := &errAfter{Context: ctx, after: after}
	return c, c.calls.Load
}

// SweepUnchecked runs the unchecked designed pass WorstMLUStats runs,
// through s.
func (s *Sweep) SweepUnchecked(ctx context.Context) error {
	_, _, _, err := s.sweepDesigned(ctx, false)
	return err
}
