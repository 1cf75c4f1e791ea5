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
func newMasterVars(in *Instance) *masterVars {
	return &masterVars{
		unitsOf: deathUnitsOf(in.Failures, in.Graph.NumLinks()),
		lss:     in.lsIndex(),
		ws:      lp.NewWorkspace(),
		a:       map[tunnels.ID]lp.Var{},
		b:       map[LSID]lp.Var{},
	}
}

// buildMaster creates the master model: reservation variables, the
// admitted-fraction variables, link capacity rows (paper eq. 3) and the
// objective Θ(z).
func buildMaster(in *Instance, withLS bool) (*lp.Model, *masterVars) {
	m := lp.NewModel()
	mv := newMasterVars(in)

	for _, p := range in.Tunnels.Pairs() {
		for _, tid := range in.Tunnels.ForPair(p) {
			mv.a[tid] = m.AddNonNeg()
		}
	}
	if withLS {
		for _, q := range in.LSs {
			mv.b[q.ID] = m.AddNonNeg()
		}
	}

	demand := in.DemandPairs()
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
	for _, p := range in.Tunnels.Pairs() {
		for _, tid := range in.Tunnels.ForPair(p) {
			for _, arc := range in.Tunnels.Tunnel(tid).Path.Arcs {
				perArc[arc] = append(perArc[arc], mv.a[tid])
			}
		}
	}
	for arc, vars := range perArc {
		if len(vars) == 0 {
			continue
		}
		e := lp.NewExpr()
		for _, v := range vars {
			e.Add(1, v)
		}
		rhs := in.Graph.ArcCapacity(topology.ArcID(arc)) *
			in.Failures.WorstCapScale(topology.LinkOf(topology.ArcID(arc)))
		m.AddConstraint(e, lp.LE, rhs)
	}
	return m, mv
}

// solveScheme solves the scheme described by its adversary builder.
func solveScheme(in *Instance, scheme string, withLS bool, build advBuilder, opts SolveOptions) (*Plan, error) {
	opts = opts.withDefaults()
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", scheme, err)
	}
	start := time.Now()

	m, mv := buildMaster(in, withLS)
	sol, stats, err := solveRobust(m, buildSpecs(in, mv, build), opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", scheme, err)
	}
	plan := extractPlan(in, scheme, sol, mv, time.Since(start))
	plan.Stats = stats
	return plan, nil
}

// buildSpecs builds one adversary spec per constraint pair.
func buildSpecs(in *Instance, mv *masterVars, build advBuilder) []*advSpec {
	pairs := in.ConstraintPairs()
	specs := make([]*advSpec, len(pairs))
	for i, p := range pairs {
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

// seedMaster adds each pair's seed cuts to the master model and
// returns how many: the no-failure scenario (keeps the master bounded
// from round one) and every single-unit failure touching the pair —
// for a budget of one failure these seeds are usually already the
// binding scenarios, so separation converges in a round or two
// instead of rediscovering them one by one. Seeds go into the model
// before compilation; later cuts are appended to the compiled form.
func seedMaster(base *lp.Model, specs []*advSpec) (int, error) {
	numCuts := 0
	for _, spec := range specs {
		for _, sc := range spec.seedScenarios() {
			w := spec.scenarioPoint(sc)
			if !spec.poly.Contains(w, tol.Feas) {
				return 0, fmt.Errorf("internal: seed scenario %v is not a polytope point for %v", sc, spec.pair)
			}
			base.AddConstraint(spec.cutExpr(w), lp.GE, 0)
			numCuts++
		}
	}
	return numCuts, nil
}

// solveRobust is the one place a model with for-all-failures rows is
// solved: it optimizes base subject to every spec's robust constraint
// and returns the optimal solution; any other verdict of the master is
// an error wrapping the typed sentinel (lp.ErrInfeasible, ...). It
// generates the rows lazily. Every cut is the robust constraint
// evaluated at one adversary point, so the master is always a
// relaxation; when no pair's separation oracle finds a violation at the
// master optimum, that point is feasible for the full constraint set
// and hence optimal. (The paper's appendix D2 instead replaces each
// robust row by its LP dual, lp.RobustGE; that reaches the same optimum
// in one larger LP and is kept as the oracle the tests compare this
// engine against.) The base model is compiled once; each round
// appends only the newly violated cuts to the compiled form and
// re-solves warm from the previous round's basis (an appended cut
// enters primal-infeasible but dual-feasible, so the dual simplex
// usually needs a handful of pivots per round — see DESIGN.md §11).
// The cut set grows monotonically, which also guarantees finite
// convergence: there are finitely many polytope vertices.
func solveRobust(base *lp.Model, specs []*advSpec, opts SolveOptions) (*lp.Solution, SolveStats, error) {
	var stats SolveStats
	numCuts, err := seedMaster(base, specs)
	if err != nil {
		return nil, stats, err
	}

	cm := lp.Compile(base)
	stats.CompileTime = cm.CompileTime
	var basis *lp.Basis
	costBuf := make([]float64, 0, 64)
	for round := 0; round < maxCutRounds; round++ {
		stats.Rounds = round + 1
		if err := opts.ctxErr(); err != nil {
			return nil, stats, fmt.Errorf("cut generation canceled after %d rounds (%d cuts): %w",
				round, numCuts, err)
		}
		lpOpts := opts.LP
		lpOpts.WarmStart = basis
		sol, err := cm.Solve(lpOpts)
		if err != nil {
			return nil, stats, err
		}
		absorbLPStats(&stats, sol)
		if sol.Stats.WarmHit {
			stats.WarmHits++
		}
		stats.Cuts = numCuts
		if sol.Status != lp.StatusOptimal {
			return nil, stats, fmt.Errorf("master LP: %w", sol.Err())
		}
		basis = sol.Basis

		violated := 0
		for _, spec := range specs {
			costBuf = costBuf[:0]
			for _, c := range spec.costs {
				if c == nil {
					costBuf = append(costBuf, 0)
				} else {
					costBuf = append(costBuf, sol.Eval(c))
				}
			}
			solves := spec.poly.Solves()
			inner, w, err := spec.poly.Minimize(costBuf)
			stats.OracleCalls++
			stats.OracleSolves += spec.poly.Solves() - solves
			if err != nil {
				return nil, stats, err
			}
			lhs := sol.Eval(spec.constPart) + inner
			rhs := sol.Eval(spec.rhs)
			if lhs < rhs-tol.Cut {
				cm.AddRow(spec.cutExpr(w), lp.GE, 0)
				numCuts++
				violated++
			}
		}
		if violated == 0 {
			return sol, stats, nil
		}
	}
	return nil, stats, fmt.Errorf("%w (%d rounds, %d cuts live)", ErrCutLimit, maxCutRounds, numCuts)
}

func extractPlan(in *Instance, scheme string, sol *lp.Solution, mv *masterVars, dur time.Duration) *Plan {
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
	for tid, v := range mv.a {
		plan.TunnelRes[tid] = clampTiny(sol.Value(v))
	}
	for qid, v := range mv.b {
		plan.LSRes[qid] = clampTiny(sol.Value(v))
	}
	for _, p := range in.DemandPairs() {
		d := in.TM.At(p)
		ze := mv.zExpr(p)
		if d > 0 {
			plan.Z[p] = clampTiny(sol.Eval(ze) / d)
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
// (P1) with failure set (5)). Logical sequences are ignored: FFC is a
// pure tunnel scheme.
func SolveFFC(in *Instance, opts SolveOptions) (*Plan, error) {
	stripped := *in
	stripped.LSs = nil
	return solveScheme(&stripped, "FFC", false, buildFFCAdversary, opts)
}

// SolvePCFTF computes the PCF-TF allocation (paper §3.2): FFC's
// response mechanism with the link-aware failure set (4).
func SolvePCFTF(in *Instance, opts SolveOptions) (*Plan, error) {
	stripped := *in
	stripped.LSs = nil
	return solveScheme(&stripped, "PCF-TF", false, buildPCFAdversary, opts)
}

// SolvePCFLS computes the PCF-LS allocation (paper §3.3, model (P2)).
// All logical sequences must be unconditional.
func SolvePCFLS(in *Instance, opts SolveOptions) (*Plan, error) {
	for _, q := range in.LSs {
		if q.Cond != nil {
			return nil, fmt.Errorf("PCF-LS: LS %d has a condition; use SolvePCFCLS", q.ID)
		}
	}
	return solveScheme(in, "PCF-LS", true, buildPCFAdversary, opts)
}

// SolvePCFCLS computes the PCF-CLS allocation (paper §3.4): logical
// sequences may carry activation conditions.
func SolvePCFCLS(in *Instance, opts SolveOptions) (*Plan, error) {
	return solveScheme(in, "PCF-CLS", true, buildPCFAdversary, opts)
}
