// Package faultinject provides deterministic, seeded fault injectors
// for the solve→realize pipeline. The injectors plug into the
// checkpoints exposed by internal/lp (Options.FaultHook) and
// internal/routing (SweepUpdateFault), so tests can force numerical
// breakdowns, iteration exhaustion, and ill-conditioned SMW updates at
// exact, reproducible points — and prove that every rung of the solve
// ladder and the sweep's cold fallback fire and still deliver a
// verified, congestion-free result.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/lp"
	"pcf/internal/topology"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// KillPivotsAfter returns an lp fault hook that aborts the solve at
// the first simplex iteration at or past n. The returned error wraps
// lp.ErrIterLimit, so the failure follows the iteration-exhaustion
// path through the degradation ladders.
func KillPivotsAfter(n int) func(lp.FaultEvent) error {
	return func(ev lp.FaultEvent) error {
		if ev.Point == lp.FaultIteration && ev.Iter >= n {
			return fmt.Errorf("faultinject: pivot killed at iteration %d: %w", ev.Iter, lp.ErrIterLimit)
		}
		return nil
	}
}

// KillPivotsRandom is KillPivotsAfter with the kill point drawn
// deterministically from seed in [1, maxIter].
func KillPivotsRandom(seed int64, maxIter int) func(lp.FaultEvent) error {
	n := 1 + rand.New(rand.NewSource(seed)).Intn(maxIter)
	return KillPivotsAfter(n)
}

// FailRefactorAfter returns an lp fault hook that makes every basis
// refactorization at or past iteration n report failure. The solver
// first runs its own recovery (a tightened-refactorization retry);
// when that also fails, the solve surfaces lp.ErrNumerical.
func FailRefactorAfter(n int) func(lp.FaultEvent) error {
	return func(ev lp.FaultEvent) error {
		if ev.Point == lp.FaultRefactor && ev.Iter >= n {
			return fmt.Errorf("faultinject: refactorization failed at iteration %d", ev.Iter)
		}
		return nil
	}
}

// FailFirstNStarts returns a stateful lp fault hook that fails the
// first n SolveWithOptions calls at their start checkpoint with an
// error wrapping cause, then lets every later call through. With one
// LP solve per ladder rung, FailFirstNStarts(k, lp.ErrNumerical)
// makes exactly the first k rungs fail.
func FailFirstNStarts(n int, cause error) func(lp.FaultEvent) error {
	starts := 0
	return func(ev lp.FaultEvent) error {
		if ev.Point != lp.FaultSolveStart {
			return nil
		}
		starts++
		if starts <= n {
			return fmt.Errorf("faultinject: solve start %d/%d failed: %w", starts, n, cause)
		}
		return nil
	}
}

// FailAllButFFC returns an lp fault hook that fails, with an error
// wrapping cause, every solve start whose row count no start of an
// FFC solve of in had, and the number of starts it failed: every
// master but FFC's breaks down at its first start.
func FailAllButFFC(in *core.Instance, cause error) (func(lp.FaultEvent) error, func() int64, error) {
	rows := map[int]bool{}
	var opts core.SolveOptions
	opts.LP.FaultHook = func(ev lp.FaultEvent) error {
		if ev.Point == lp.FaultSolveStart {
			rows[ev.Rows] = true
		}
		return nil
	}
	if _, err := core.SolveFFC(in, opts); err != nil {
		return nil, nil, err
	}
	var failed atomic.Int64
	return func(ev lp.FaultEvent) error {
		if ev.Point != lp.FaultSolveStart || rows[ev.Rows] {
			return nil
		}
		failed.Add(1)
		return fmt.Errorf("faultinject: %d-row master start failed: %w", ev.Rows, cause)
	}, failed.Load, nil
}

// NearSingularPlan hand-builds a plan whose reservation matrix is
// exactly singular under the no-failure scenario while passing the
// positive-diagonal pre-check: the two diagonal pairs of a 4-cycle
// carry mutually recursive logical sequences — (0,2) routed 0→1→3→2
// uses (1,3) as a segment, and (1,3) routed 1→0→2→3 uses (0,2) — and,
// being non-adjacent, have no tunnel reservation of their own. Their
// two matrix rows are then scalar multiples of each other (rank
// deficiency by construction). It exercises the linsolve.ErrSingular
// path out of the cold path's sparse factorization, which routing.Realize
// and an engine that cannot factor its base both run.
func NearSingularPlan() (*core.Plan, failures.Scenario) {
	g := topology.New("ring4")
	for i := 0; i < 4; i++ {
		g.AddNode("n")
	}
	g.AddLink(0, 1, 10)
	g.AddLink(1, 2, 10)
	g.AddLink(2, 3, 10)
	g.AddLink(3, 0, 10)
	ts := tunnels.NewSet(g)
	for _, l := range g.Links() {
		ts.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
		ts.MustAdd(topology.Pair{Src: l.B, Dst: l.A}, topology.Path{Arcs: []topology.ArcID{l.Reverse()}})
	}
	p02 := topology.Pair{Src: 0, Dst: 2}
	p13 := topology.Pair{Src: 1, Dst: 3}
	in := &core.Instance{
		Graph:   g,
		TM:      traffic.Single(4, p02, 1),
		Tunnels: ts,
		LSs: []core.LogicalSequence{
			{ID: 0, Pair: p02, Hops: []topology.NodeID{1, 3}},
			{ID: 1, Pair: p13, Hops: []topology.NodeID{0, 2}},
		},
		Failures:  failures.SingleLinks(g, 1),
		Objective: core.DemandScale,
	}
	// Single-link tunnels keep the segment pairs' rows well
	// conditioned; the LS pairs themselves get no tunnel reservation,
	// which is what makes their two rows linearly dependent.
	tunnelRes := map[tunnels.ID]float64{}
	for _, pr := range ts.Pairs() {
		for _, id := range ts.ForPair(pr) {
			tunnelRes[id] = 0.3
		}
	}
	plan := &core.Plan{
		Scheme:    "faultinject-near-singular",
		Z:         map[topology.Pair]float64{p02: 0.05},
		TunnelRes: tunnelRes,
		LSRes:     map[core.LSID]float64{0: 0.1, 1: 0.1},
		Instance:  in,
	}
	return plan, failures.Scenario{Dead: map[topology.LinkID]bool{}}
}

// Perturb applies a deterministic multiplicative perturbation of
// relative size eps to every nonzero constraint coefficient of m,
// driven by seed: the same (seed, eps) always yields the same perturbed
// model, so tests that provoke numerical trouble are reproducible.
func Perturb(m *lp.Model, seed int64, eps float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range m.NumConstraints() {
		terms := m.Constraint(i).Expr.Terms
		for j := range terms {
			terms[j].Coeff *= 1 + eps*(2*rng.Float64()-1)
		}
	}
}

// LPCorpus returns a deterministic, seeded corpus of feasible bounded
// LP models exercising the solver's structural variety: chain LPs
// that force long pivot sequences, perturbed variants with broken
// degeneracy, and random capacitated models mixing LE/GE/EQ rows.
// Tests use it to cross-check solver paths (e.g. warm vs cold starts)
// on inputs with different sparsity, sign and degeneracy patterns.
func LPCorpus(seed int64) []*lp.Model {
	rng := rand.New(rand.NewSource(seed))
	var corpus []*lp.Model

	// Chain LPs: min Σx with x_i + x_{i+1} >= 1, highly degenerate.
	chain := func(n int) *lp.Model {
		m := lp.NewModel()
		obj := lp.NewExpr()
		vars := make([]lp.Var, n+1)
		for i := range vars {
			vars[i] = m.AddVar(0, 1)
			obj.Add(1, vars[i])
		}
		for i := 0; i < n; i++ {
			m.AddConstraint(lp.NewExpr().Add(1, vars[i]).Add(1, vars[i+1]), lp.GE, 1)
		}
		m.SetObjective(obj, lp.Minimize)
		return m
	}
	for _, n := range []int{4, 9, 23} {
		corpus = append(corpus, chain(n))
		p := chain(n)
		Perturb(p, rng.Int63(), 1e-3)
		corpus = append(corpus, p)
	}

	// Random capacitated models: maximize a positive objective over
	// variables with finite upper bounds and random LE capacity rows,
	// plus occasional GE floors and EQ couplings that keep the model
	// feasible by construction (floors at 0, couplings between two
	// free-to-move variables).
	for k := 0; k < 6; k++ {
		nv := 3 + rng.Intn(8)
		nc := 2 + rng.Intn(6)
		m := lp.NewModel()
		obj := lp.NewExpr()
		vars := make([]lp.Var, nv)
		for j := range vars {
			vars[j] = m.AddVar(0, 1+4*rng.Float64())
			obj.Add(0.1+rng.Float64(), vars[j])
		}
		for i := 0; i < nc; i++ {
			e := lp.NewExpr()
			terms := 0
			for j := range vars {
				if rng.Float64() < 0.5 {
					e.Add(0.1+rng.Float64(), vars[j])
					terms++
				}
			}
			if terms == 0 {
				e.Add(1, vars[rng.Intn(nv)])
			}
			m.AddConstraint(e, lp.LE, 0.5+2*rng.Float64())
		}
		if k%2 == 0 {
			// A floor of 0 on a nonneg sum is always satisfiable.
			m.AddConstraint(lp.NewExpr().Add(1, vars[0]).Add(1, vars[nv-1]), lp.GE, 0)
		}
		if k%3 == 0 {
			// Couple two variables; both sides can move freely in [0, ub].
			m.AddConstraint(lp.NewExpr().Add(1, vars[0]).Add(-1, vars[1]), lp.EQ, 0)
		}
		m.SetObjective(obj, lp.Maximize)
		corpus = append(corpus, m)
	}
	return corpus
}

// IllConditionedUpdates returns a hook for routing.SweepUpdateFault
// that declares every everyN-th rank-k SMW update ill-conditioned
// (wrapping linsolve.ErrIllConditioned), forcing those scenarios onto
// the cold path, which factors the scenario's own rows afresh. The sweep
// must count each forced fallback in routing.SweepStats.Fallbacks and
// still produce results bit-identical to routing.Realize, which runs
// that same path — the fault changes the code path, never the answer. everyN <= 1 fails every update. The second return
// value reports how many updates were failed so far.
func IllConditionedUpdates(everyN int) (func([]linsolve.RowUpdate) error, func() int) {
	if everyN < 1 {
		everyN = 1
	}
	// The parallel sweep calls the hook from several workers.
	var mu sync.Mutex
	seen, fired := 0, 0
	hook := func(ups []linsolve.RowUpdate) error {
		mu.Lock()
		defer mu.Unlock()
		seen++
		if seen%everyN != 0 {
			return nil
		}
		fired++
		return fmt.Errorf("faultinject: rank-%d update declared ill-conditioned: %w",
			len(ups), linsolve.ErrIllConditioned)
	}
	return hook, func() int {
		mu.Lock()
		defer mu.Unlock()
		return fired
	}
}
