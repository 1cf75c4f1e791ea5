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

// Fig5CLSPlan is the conditional-LS, double-failure plan the sweep
// tests use: small, yet with rank-k scenarios and cold fallbacks.
var Fig5CLSPlan = fig5CLSPlan
