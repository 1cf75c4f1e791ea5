package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pcf/internal/lp"
	"pcf/internal/tol"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

const maxCutRounds = 60 // cutting-plane rounds before ErrCutLimit

// SolveOptions tune the scheme solvers.
type SolveOptions struct {
	// Context, when non-nil, bounds the whole solve: its deadline and
	// cancellation are checked between cutting-plane rounds and inside
	// the simplex iteration loop. Errors wrap the context error, so
	// errors.Is(err, context.DeadlineExceeded) works.
	Context context.Context
	// LP passes options to the simplex solver. Its Context field is
	// filled from Context above unless already set.
	LP lp.Options
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.LP.Context == nil {
		o.LP.Context = o.Context
	}
	return o
}

func (o SolveOptions) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// ErrCutLimit reports that lazy cut generation exhausted maxCutRounds
// without converging. Matched with errors.Is.
var ErrCutLimit = errors.New("core: cut generation round limit exhausted")

// ErrNegativeBudget reports an instance whose failure set has a negative
// budget: no scenario, not even the no-failure one, lies within it.
// Matched with errors.Is.
var ErrNegativeBudget = errors.New("core: negative failure budget")

// advBuilder builds the per-pair adversary spec for a scheme.
type advBuilder func(in *Instance, p topology.Pair, mv *masterVars) *advSpec

// newMasterVars starts a master's variable handles, with the solve's
// death-unit and LS indexes built once for every pair's adversary and
// the workspace their polytopes share.
func newMasterVars(in *Instance, pairs []topology.Pair, perPair int) *masterVars {
	return &masterVars{
		pairs:   pairs,
		perPair: perPair,
		unitsOf: deathUnitsOf(in.Failures, in.Graph.NumLinks()),
		lss:     in.lsIndex(),
		ws:      lp.NewWorkspace(),
		a:       map[tunnels.ID]lp.Var{},
		b:       map[LSID]lp.Var{},
	}
}

// buildMaster creates the master model: reservation variables, the
// admitted-fraction variables, link capacity rows (paper eq. 3) and the
// objective Θ(z). Only the tunnels of pairs enter it (ascending, as
// Instance.ConstraintPairs and tunnels.Set.Pairs list them), of each
// pair only its first perPair tunnels when perPair > 0, and of in's
// LSs only lss. demand is the instance's demand pairs, in
// Instance.DemandPairs' order. It also returns each arc's capacity
// row, or -1 where no tunnel of pairs crosses the arc.
func buildMaster(in *Instance, lss []LogicalSequence, demand, pairs []topology.Pair, perPair int) (*lp.Model, *masterVars, []int) {
	m := lp.NewModel()
	mv := newMasterVars(in, pairs, perPair)

	for _, p := range pairs {
		for _, tid := range mv.tunnelsOf(in, p) {
			mv.a[tid] = m.AddNonNeg()
		}
	}
	for _, q := range lss {
		mv.b[q.ID] = m.AddNonNeg()
	}

	switch in.Objective {
	case DemandScale:
		z := m.AddNonNeg()
		mv.zExpr = func(p topology.Pair) *lp.Expr {
			if d := in.TM.At(p); d > 0 {
				return lp.NewExpr().Add(d, z)
			}
			return lp.NewExpr()
		}
		m.SetObjective(lp.NewExpr().Add(1, z), lp.Maximize)
	case Throughput:
		zp := map[topology.Pair]lp.Var{}
		obj := lp.NewExpr()
		for _, p := range demand {
			v := m.AddVar(0, 1)
			zp[p] = v
			obj.Add(in.TM.At(p), v)
		}
		mv.zExpr = func(p topology.Pair) *lp.Expr {
			if v, ok := zp[p]; ok {
				return lp.NewExpr().Add(in.TM.At(p), v)
			}
			return lp.NewExpr()
		}
		m.SetObjective(obj, lp.Maximize)
	}

	// Capacity per arc: Σ_{l: arc ∈ l} a_l <= capacity (eq. 3), with
	// the capacity tightened to what the link keeps under the worst
	// single degradation it can suffer. Degraded links stay alive, so
	// their tunnels keep their full reservations; the plan is
	// congestion-free across degradation scenarios exactly when the
	// reservations fit the degraded capacity. Because degrade units
	// compose by min, the worst scale is achieved by one unit and the
	// per-arc bound is exact for any budget >= 1 (failures.WorstCapScale).
	perArc := make([][]lp.Var, in.Graph.NumArcs())
	for _, p := range pairs {
		for _, tid := range mv.tunnelsOf(in, p) {
			for _, arc := range in.Tunnels.Tunnel(tid).Path.Arcs {
				perArc[arc] = append(perArc[arc], mv.a[tid])
			}
		}
	}
	capRow := make([]int, len(perArc))
	for arc, vars := range perArc {
		capRow[arc] = -1
		if len(vars) == 0 {
			continue
		}
		e := lp.NewExpr()
		for _, v := range vars {
			e.Add(1, v)
		}
		capRow[arc] = m.AddConstraint(e, lp.LE, arcCapacity(in, topology.ArcID(arc)))
	}
	return m, mv, capRow
}

// arcCapacity is the right-hand side of arc's capacity row: its
// capacity under the worst degradation it can suffer.
func arcCapacity(in *Instance, arc topology.ArcID) float64 {
	return in.Graph.ArcCapacity(arc) * in.Failures.WorstCapScale(topology.LinkOf(arc))
}

// master is a robust master on its view of an instance, built once and
// solved any number of times, one solve at a time (Solver keeps it
// between solves): its pairs' adversaries, the master model compiled
// with their seed cuts, which is never solved itself, and on an
// instance with conditional LSs the pool that pricing enters from.
//
// The model holds the tunnels of the demand pairs and of every LS's
// pair and segments (of each pair only its first perPair tunnels when
// perPair > 0; another pair's tunnel would be a column no constraint
// rewards), the LSs' reservations, the capacity rows and those pairs'
// seed cuts. On the PCF master only the unconditional LSs count, so the
// model is the LS master, and each conditional LS is a pool column
// (pricing.go). Master variables are numbered as one
// template — the model's first, then every pool tunnel's and pool LS's
// — so every adversary is built once over the whole pool and a solve
// maps only the pool variables that entered to its LP's columns.
//
// Every solve extends a fresh clone of the seeded master, in the kept
// workspace, with every polytope's saved answer forgotten: the simplex
// and the separation oracle start from what a freshly built master
// starts from, entering touches nothing the master keeps, and a
// workspace carries only capacity from one solve to the next, so the
// solve pivots, cuts, prices and calls the oracle exactly as one on a
// new master would (DESIGN.md §11, "The kept master").
type master struct {
	scheme string // the plan's scheme when the solve does not price
	in     *Instance
	lsIn   *Instance // the LS view: in's unconditional LSs, renumbered
	demand []topology.Pair
	mv     *masterVars
	// specs is one adversary per constraint pair: the model's pairs,
	// ascending, then the pool's (poolPairs, ascending), built by the
	// first priced solve. live0 lists the model's, specs[:len(live0)].
	specs     []*advSpec
	live0     []int
	poolPairs []topology.Pair
	pool      pool
	seeded    *lp.Compiled
	seeds     int // seed cuts in seeded
	// seedCuts records the seed cuts of each of the model's pairs when
	// the master keeps its cut rows: pricing reads every cut row's
	// adversary point.
	seedCuts [][]cutRec
	capRow   []int // per arc, its capacity row in seeded, or -1
	nModel   int   // template variables below nModel are the model's
	ws       *lp.Workspace
	// pending is build time no solve has reported yet, and compileTime
	// the compile when no solve has reported it: the next solve
	// reports both, so a slow re-plan's record says whether it built.
	pending, compileTime time.Duration
}

// newMaster builds scheme's master on in: the validated pairs, the
// master model and one adversary per pair from build, sealed (seal).
// When in has a conditional LS, those LSs form the pool, the model
// holds only the LS master and the master keeps every cut row's
// record, which pricing reads.
func newMaster(in *Instance, scheme string, build advBuilder, perPair int) (*master, error) {
	start := time.Now()
	demand, pairs, err := in.validated()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", scheme, err)
	}
	ms := &master{scheme: scheme, in: in, lsIn: in, demand: demand}
	lss := in.LSs
	if hasConditional(in) {
		ms.lsIn = stripConditional(in)
		lss = nil
		for _, q := range in.LSs {
			if q.Cond == nil {
				lss = append(lss, q)
			}
		}
		model := ms.lsIn.constraintPairs(demand)
		pairs, ms.poolPairs = model, pairsNotIn(pairs, model)
	}
	m, mv, capRow := buildMaster(in, lss, demand, pairs, perPair)
	ms.mv, ms.capRow = mv, capRow
	if ms.lsIn != in {
		ms.pool = newPool(in, mv, ms.poolPairs, m.NumVars())
	}
	specs := buildSpecs(in, mv, build)
	if ms.lsIn != in {
		for _, spec := range specs {
			ms.pool.terms = append(ms.pool.terms, ms.pool.termsOf(mv, spec))
		}
	}
	if err := ms.seal(m, specs, start); err != nil {
		return nil, fmt.Errorf("%s: %w", scheme, err)
	}
	return ms, nil
}

// seal is the one way a model with for-all-failures rows becomes a
// solvable master: the scheme masters, the §3.5 flow model and the
// tests' referees each build their model m and one adversary spec per
// constraint pair of it, and seal does the rest. It adds each spec's
// seed cuts to m — the no-failure scenario, which keeps the master
// bounded from round one, and every single-unit failure touching the
// pair, usually the binding scenarios at a budget of one — records them
// when the master keeps its cut rows (ms.pool.terms is set), and
// compiles m. Template variables from m.NumVars() on are the pool's.
// The time since start is build time, which the first solve reports.
func (ms *master) seal(m *lp.Model, specs []*advSpec, start time.Time) error {
	if b := ms.in.Failures.Budget; b < 0 {
		return fmt.Errorf("%w %d", ErrNegativeBudget, b)
	}
	ms.specs, ms.nModel, ms.ws = specs, m.NumVars(), lp.NewWorkspace()
	ms.live0 = make([]int, len(specs))
	if ms.pool.terms != nil {
		ms.seedCuts = make([][]cutRec, len(specs))
	}
	for i, spec := range specs {
		ms.live0[i] = i
		pts, err := spec.seedPoints()
		if err != nil {
			return err
		}
		for _, w := range pts {
			e := lpTerms(spec.cutExpr(w), ms.nModel, nil)
			row := m.AddConstraint(e, lp.GE, 0)
			if ms.seedCuts != nil {
				ms.seedCuts[i] = append(ms.seedCuts[i], ms.pool.record(i, row, e, w))
			}
			ms.seeds++
		}
	}
	ms.seeded = lp.Compile(m)
	ms.compileTime = ms.seeded.CompileTime
	ms.pending = time.Since(start)
	return nil
}

// pairsNotIn returns the pairs of the ascending list all that the
// ascending list some does not hold.
func pairsNotIn(all, some []topology.Pair) []topology.Pair {
	var rest []topology.Pair
	for _, p := range all {
		if len(some) > 0 && some[0] == p {
			some = some[1:]
			continue
		}
		rest = append(rest, p)
	}
	return rest
}

// hasConditional reports whether in has a conditional LS.
func hasConditional(in *Instance) bool {
	for _, q := range in.LSs {
		if q.Cond != nil {
			return true
		}
	}
	return false
}

// solve runs the cut loop on a clone of the seeded master and returns
// its plan. Without price it is the LS iterate, the first master no
// cut separates: the plan of ms.scheme over the LS view. With price the
// loop goes on pricing the pool in until neither separation nor pricing
// adds anything, and the plan is PCF-CLS's over the whole instance. A
// priced solve that fails degradably after the LS iterate (numerical
// breakdown, an exhausted iteration or round budget) falls back to
// that iterate: the PCF-LS plan, with PCF-CLS in Plan.Degraded.
//
// The solve reports the build no solve has reported as
// SolveStats.PrepareTime — the model on a master's first solve, the
// pool's adversaries on its first priced one — and the compile as
// CompileTime on its first; its SolveTime leaves the build out.
func (ms *master) solve(opts SolveOptions, price bool) (*Plan, error) {
	start := time.Now()
	name := ms.scheme
	if price {
		name = SchemePCFCLS
	}
	it, sol, stats, err := ms.run(opts, price)
	dur := stats.PrepareTime + time.Since(start)
	if err != nil {
		if it == nil || it.ls == nil || !Degradable(err) || opts.ctxErr() != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		plan := it.extractPlan(ms.scheme, it.ls, false, dur)
		plan.Degraded = []string{SchemePCFCLS}
		plan.Stats = stats
		return plan, nil
	}
	plan := it.extractPlan(name, sol, price, dur)
	plan.Stats = stats
	return plan, nil
}

// run is solve's loop: it builds the pool on the first priced solve,
// forgets every polytope's saved answer and runs the cut loop on a new
// iterate, returning it with its last master solution.
func (ms *master) run(opts SolveOptions, price bool) (*iterate, *lp.Solution, SolveStats, error) {
	var stats SolveStats
	if price && !ms.pool.built {
		if err := ms.buildPool(); err != nil {
			return nil, nil, stats, err
		}
	}
	stats.PrepareTime, stats.CompileTime = ms.pending, ms.compileTime
	ms.pending, ms.compileTime = 0, 0
	for _, spec := range ms.specs {
		spec.poly.Forget()
	}
	it := ms.newIterate()
	sol, err := it.loop(opts.withDefaults(), price, &stats)
	return it, sol, stats, err
}

// solveOnce builds the master of one rung on in, solves it once and
// drops it: the exported per-scheme solvers.
func solveOnce(build func(*Instance) (*master, error), in *Instance, opts SolveOptions, price bool) (*Plan, error) {
	ms, err := build(in)
	if err != nil {
		return nil, err
	}
	return ms.solve(opts, price)
}

// buildSpecs builds one adversary spec per pair of the master.
func buildSpecs(in *Instance, mv *masterVars, build advBuilder) []*advSpec {
	specs := make([]*advSpec, len(mv.pairs))
	for i, p := range mv.pairs {
		specs[i] = build(in, p, mv)
	}
	return specs
}

// absorbLPStats folds one LP solution's statistics into the aggregate:
// iterations, slack-started rows and refactorizations accumulate
// across rounds, factor sizes and the row count track the latest
// (largest master) solve, and the eta-chain length and the kernel
// dimension keep their maxima.
func absorbLPStats(st *SolveStats, sol *lp.Solution) {
	st.LPIterations += sol.Stats.Iterations()
	st.Phase1Iters += sol.Stats.Phase1Iters
	st.Phase2Iters += sol.Stats.Phase2Iters
	st.DualIters += sol.Stats.DualIters
	st.SlackStartRows += sol.Stats.SlackStartRows
	st.Refactors += sol.Stats.Refactors
	st.BasisNNZ = sol.Stats.BasisNNZ
	st.FactorNNZ = sol.Stats.FactorNNZ
	st.Rows = sol.Stats.Rows
	st.MaxEtaLen = max(st.MaxEtaLen, sol.Stats.MaxEtaLen)
	st.KernelDim = max(st.KernelDim, sol.Stats.KernelDim)
}

// cutExpr is the robust constraint of spec's pair evaluated at the
// adversary point w, as the expression of a row "cutExpr >= 0".
func (spec *advSpec) cutExpr(w []float64) *lp.Expr {
	e := lp.NewExpr()
	e.AddExpr(1, spec.constPart)
	for j, c := range spec.costs {
		if c != nil && w[j] != 0 {
			e.AddExpr(w[j], c)
		}
	}
	e.AddExpr(-1, spec.rhs)
	e.AddConst(0)
	return e
}

// seedPoints returns the adversary points of spec's seed scenarios
// (seedScenarios), each checked to lie in its polytope.
func (spec *advSpec) seedPoints() ([][]float64, error) {
	scs := spec.seedScenarios()
	pts := make([][]float64, len(scs))
	for k, sc := range scs {
		w := spec.scenarioPoint(sc)
		if !spec.poly.Contains(w, tol.Feas) {
			return nil, fmt.Errorf("internal: seed scenario %v is not a polytope point for %v", sc, spec.pair)
		}
		pts[k] = w
	}
	return pts, nil
}

// loop is the one cut loop every robust master is solved by: each
// round solves the master warm from the last round's basis, asks every
// live pair's separation oracle for its worst adversary point and
// appends the violated cuts to the compiled form (an appended cut
// enters primal-infeasible but dual-feasible, so the dual simplex
// needs a handful of pivots per round; DESIGN.md §11). Every cut is the
// robust row at one adversary point, so the master is a relaxation, and
// a master optimum no oracle separates is optimal; the cut set only
// grows, over finitely many polytope vertices, so the loop converges.
// (The paper's appendix D2 replaces each robust row by its LP dual,
// lp.RobustGE: one larger LP with the same optimum, kept as the tests'
// oracle.) When no cut is violated and price is set, it prices the
// pool from that master's duals (iterate.price): the first such master
// is the LS iterate, kept in it.ls, and the loop goes on while pricing
// enters columns. Every round, a re-solve after pricing included,
// counts against maxCutRounds; the loop's statistics fold into stats.
func (it *iterate) loop(opts SolveOptions, price bool, stats *SolveStats) (*lp.Solution, error) {
	var basis *lp.Basis
	var reuse *lp.Solution // the last round's solution, rewritten by this round's
	costBuf := make([]float64, 0, 64)
	for round := 0; round < maxCutRounds; round++ {
		stats.Rounds = round + 1
		if err := opts.ctxErr(); err != nil {
			return nil, fmt.Errorf("cut generation canceled after %d rounds (%d cuts): %w",
				round, it.numCuts, err)
		}
		lpOpts := opts.LP
		lpOpts.WarmStart, lpOpts.Reuse = basis, reuse
		sol, err := it.cm.Solve(lpOpts)
		if err != nil {
			return nil, err
		}
		absorbLPStats(stats, sol)
		if sol.Stats.WarmHit {
			stats.WarmHits++
		}
		stats.Cuts = it.numCuts
		if sol.Status != lp.StatusOptimal {
			return nil, fmt.Errorf("master LP: %w", sol.Err())
		}
		basis, reuse = sol.Basis, sol

		violated := 0
		for _, i := range it.live {
			spec := it.ms.specs[i]
			costBuf = costBuf[:0]
			for _, c := range spec.costs {
				if c == nil {
					costBuf = append(costBuf, 0)
				} else {
					costBuf = append(costBuf, it.eval(sol, c))
				}
			}
			solves := spec.poly.Solves()
			inner, w, err := spec.poly.Minimize(costBuf)
			stats.OracleCalls++
			stats.OracleSolves += spec.poly.Solves() - solves
			if err != nil {
				return nil, err
			}
			lhs := it.eval(sol, spec.constPart) + inner
			rhs := it.eval(sol, spec.rhs)
			if lhs < rhs-tol.Cut {
				it.addCut(i, w)
				violated++
			}
		}
		if violated > 0 {
			continue
		}
		if !price {
			return sol, nil
		}
		if it.ls == nil {
			it.ls, reuse = sol, nil // kept for the fallback
		}
		stats.PricingRounds++
		entered := it.price(sol)
		stats.ColumnsPriced += entered
		if entered == 0 {
			return sol, nil
		}
	}
	return nil, fmt.Errorf("%w (%d rounds, %d cuts live)", ErrCutLimit, maxCutRounds, it.numCuts)
}

// extractPlan reads the plan out of sol: PCF-CLS's over the whole
// instance when full is set, every tunnel and LS of the template (a
// pool column that did not enter reserves 0), else the LS view's, the
// model's tunnels and unconditional LSs under the view's LS numbering.
func (it *iterate) extractPlan(scheme string, sol *lp.Solution, full bool, dur time.Duration) *Plan {
	ms := it.ms
	in := ms.lsIn
	if full {
		in = ms.in
	}
	plan := &Plan{
		Scheme:    scheme,
		Objective: in.Objective,
		Value:     sol.Objective,
		Z:         map[topology.Pair]float64{},
		TunnelRes: map[tunnels.ID]float64{},
		LSRes:     map[LSID]float64{},
		SolveTime: dur,
		Instance:  in,
	}
	for tid, v := range ms.mv.a {
		if full || int(v) < ms.nModel {
			plan.TunnelRes[tid] = clampTiny(it.value(sol, v))
		}
	}
	view := LSID(0)
	for _, q := range ms.in.LSs {
		v, ok := ms.mv.b[q.ID]
		switch {
		case !ok:
		case full:
			plan.LSRes[q.ID] = clampTiny(it.value(sol, v))
		case q.Cond == nil || in == ms.in:
			plan.LSRes[view] = clampTiny(it.value(sol, v))
			view++
		}
	}
	for _, p := range ms.demand {
		d := in.TM.At(p)
		ze := ms.mv.zExpr(p)
		if d > 0 {
			plan.Z[p] = clampTiny(it.eval(sol, ze) / d)
		}
	}
	return plan
}

func clampTiny(v float64) float64 {
	if v < tol.Feas && v > -tol.Feas {
		return 0
	}
	return v
}

// SolveFFC computes FFC's bandwidth allocation (paper §2/§3.2, model
// (P1) with failure set (5)) on the first in.FFCTunnels tunnels of each
// demand pair. Logical sequences are ignored: FFC is a pure tunnel
// scheme.
func SolveFFC(in *Instance, opts SolveOptions) (*Plan, error) {
	return solveOnce(newFFCMaster, in, opts, false)
}

func newFFCMaster(in *Instance) (*master, error) {
	stripped := *in
	stripped.LSs = nil
	return newMaster(&stripped, SchemeFFC, buildFFCAdversary, in.FFCTunnels)
}

// SolvePCFTF computes the PCF-TF allocation (paper §3.2): FFC's
// response mechanism with the link-aware failure set (4).
func SolvePCFTF(in *Instance, opts SolveOptions) (*Plan, error) {
	return solveOnce(newTFMaster, in, opts, false)
}

func newTFMaster(in *Instance) (*master, error) {
	stripped := *in
	stripped.LSs = nil
	return newMaster(&stripped, SchemePCFTF, buildPCFAdversary, 0)
}

// SolvePCFLS computes the PCF-LS allocation (paper §3.3, model (P2)).
// All logical sequences must be unconditional.
func SolvePCFLS(in *Instance, opts SolveOptions) (*Plan, error) {
	return solveOnce(newLSMaster, in, opts, false)
}

func newLSMaster(in *Instance) (*master, error) {
	for _, q := range in.LSs {
		if q.Cond != nil {
			return nil, fmt.Errorf("PCF-LS: LS %d has a condition; use SolvePCFCLS", q.ID)
		}
	}
	return newPCFMaster(in)
}

// SolvePCFCLS computes the PCF-CLS allocation (paper §3.4): logical
// sequences may carry activation conditions. It solves the LS master
// and prices the conditional LSs in (pricing.go): the optimum over
// every LS of in.
func SolvePCFCLS(in *Instance, opts SolveOptions) (*Plan, error) {
	return solveOnce(newPCFMaster, in, opts, true)
}

// newPCFMaster builds the master PCF-LS and PCF-CLS share: the LS
// master, with in's conditional LSs as the pool.
func newPCFMaster(in *Instance) (*master, error) {
	return newMaster(in, SchemePCFLS, buildPCFAdversary, 0)
}
