package routing

// Hooks for the external test package (served_test.go), which drives
// the engine through internal/serve and so cannot live in this one.

// SweepBuilds reports how many engines have been constructed so far.
func SweepBuilds() int64 { return sweepBuilds.Load() }

// CachedCorrectors counts the engine's memoized SMW correctors.
func (s *Sweep) CachedCorrectors() int {
	n := 0
	s.batches.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// CorruptBaseFlow adds delta to the first recorded base flow of
// destination di — the flow list a replayed destination is checked and
// materialized from — and returns the undo.
func (s *Sweep) CorruptBaseFlow(di int, delta float64) (restore func()) {
	i := s.rec.flowOff[di]
	old := s.rec.flowVal[i]
	s.rec.flowVal[i] += delta
	return func() { s.rec.flowVal[i] = old }
}

// Fig5CLSPlan is the conditional-LS, double-failure plan the sweep
// tests use: small, yet with rank-k scenarios and cold fallbacks.
var Fig5CLSPlan = fig5CLSPlan

// SprintCLSPlan is the Sprint single-failure plan: eight pairs over
// three tunnels each, so link sets beyond the budget have many distinct
// signatures.
var SprintCLSPlan = sprintCLSPlanOrSkip
