package lp

import (
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"pcf/internal/tol"
)

// ctxCheckPeriod is how many simplex iterations pass between context
// cancellation checks. Iterations are O(nonzeros), so the atomic load
// in Context.Err is negligible at this period while a wedged phase
// still aborts within a few dozen pivots.
const ctxCheckPeriod = 32

// blandTrigger is the number of non-improving iterations before
// pricing switches to Bland's rule.
const blandTrigger = 300

// Options tune the simplex solver. The zero value selects defaults.
type Options struct {
	// MaxIter bounds total simplex iterations across both phases.
	// Zero selects a default proportional to problem size.
	MaxIter int
	// RefactorEvery forces a basis refactorization at this iteration
	// period, on top of the factor's own growth trigger. Zero selects
	// the default, 1500 — which the growth trigger (an eta chain of
	// 24+m/8) undercuts for any m below about 11 800, so in practice the
	// period binds only as the tighter value the ErrNumerical retry
	// sets and as the lever the fault-injection tests pull.
	RefactorEvery int
	// Context, when non-nil, bounds the solve: the iteration loop
	// checks it periodically and aborts with a SolveError wrapping the
	// context error (so errors.Is(err, context.DeadlineExceeded)
	// matches) carrying partial diagnostics. Nil means no deadline.
	Context context.Context
	// FaultHook, when non-nil, is consulted at solver checkpoints for
	// fault-injection testing (see internal/faultinject). A non-nil
	// return aborts the solve (or fails the refactorization, for
	// FaultRefactor events) with the returned error in the chain.
	FaultHook func(FaultEvent) error
	// WarmStart, when non-nil, is an optimal basis from a previous
	// solve of the same Compiled (Solution.Basis), possibly captured
	// before SetRowRHS edits or AddRow appends. The solver restores
	// primal feasibility from it with the dual simplex and falls back
	// to a cold solve whenever the basis proves unusable (an artificial
	// it leaves carrying value included), so a warm start never changes
	// the result — only the work to reach it.
	WarmStart *Basis
}

// ctxErr reports the context's cancellation error, nil without one.
func (o Options) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIter == 0 {
		o.MaxIter = 200*(m+n) + 20000
	}
	if o.RefactorEvery == 0 {
		// A backstop: the factor refactorizes long before on its own
		// growth trigger, priced from its measured costs
		// (sparseFactor.shouldRefactor).
		o.RefactorEvery = 1500
	}
	return o
}

// SolveStats reports how a solve went, for the statistics surfaced
// through core, mcf, and the cmds.
type SolveStats struct {
	// CompileTime is the model-to-standard-form lowering time of the
	// Compiled this solution came from.
	CompileTime time.Duration
	// SolveTime is the wall-clock time of this Solve call.
	SolveTime time.Duration
	// Phase1Iters, Phase2Iters, and DualIters count primal phase-1,
	// primal phase-2, and dual-simplex iterations.
	Phase1Iters int
	Phase2Iters int
	DualIters   int
	// SlackStartRows is how many rows the cold start put on their own
	// slack rather than an artificial; when it equals the row count
	// phase 1 did not run. Zero when the warm path produced the result.
	SlackStartRows int
	// WarmStarted records that a warm basis was supplied; WarmHit that
	// the warm path produced the result (no cold fallback).
	WarmStarted bool
	WarmHit     bool
	// Refactors counts basis refactorizations across the solve.
	Refactors int
	// BasisNNZ is the nonzero count of the last refactored basis matrix
	// and FactorNNZ of what a solve against it reads: the kernel's L+U
	// factors, one pivot per covered row and the kernel columns'
	// entries in covered rows (sparseFactor).
	BasisNNZ  int
	FactorNNZ int
	// MaxEtaLen is the longest eta update chain carried between
	// refactorizations.
	MaxEtaLen int
	// KernelDim is the largest kernel any refactorization of the solve
	// handed to the LU — the basis columns left after every single-entry
	// column has covered its row — and Rows the standard-form row count
	// it is a share of. The kernel stays well under the rows wherever
	// most of the basis is slack.
	KernelDim int
	Rows      int
}

// FillRatio reports the fill-in of the last factorization: factor
// nonzeros over basis nonzeros, 0 before any.
func (s SolveStats) FillRatio() float64 {
	if s.BasisNNZ == 0 {
		return 0
	}
	return float64(s.FactorNNZ) / float64(s.BasisNNZ)
}

// Iterations reports the total simplex iterations across all phases.
func (s SolveStats) Iterations() int { return s.Phase1Iters + s.Phase2Iters + s.DualIters }

// Solve optimizes the model with default options.
func Solve(m *Model) (*Solution, error) { return SolveWithOptions(m, Options{}) }

// SolveWithOptions optimizes the model. Non-optimal but well-defined
// outcomes (infeasible, unbounded, iteration limit) are reported via
// Solution.Status with a nil error; use Solution.Err to convert them to
// typed sentinels. A non-nil error means the solve itself broke down —
// numerically (wrapping ErrNumerical), by cancellation (wrapping the
// context error), or by fault injection — and is always a *SolveError
// carrying partial diagnostics.
//
// SolveWithOptions compiles and solves in one shot; callers that
// re-solve variants of one model should Compile once and use
// Compiled.Solve with warm starts.
func SolveWithOptions(mod *Model, opts Options) (*Solution, error) {
	return Compile(mod).Solve(opts)
}

func sign(neg bool) float64 {
	if neg {
		return -1
	}
	return 1
}

// simplexState holds the working data of the revised simplex method.
// It lives in the workspace of the Compiled it solves
// (sparseFactor.st), and so do all its vectors: a solve allocates none
// of them, and its state is valid until the workspace solves again.
type simplexState struct {
	cm    *Compiled
	opts  Options
	m     int
	basis []int         // basic column per row (std columns; artificials are >= nCols)
	fac   *sparseFactor // B⁻¹ as LU + etas, in the Compiled's workspace
	xB    []float64     // basic variable values
	// artSign is the sign of each row's artificial column. Artificials
	// enter with the sign of the current b so their start value is
	// nonnegative even after RHS edits turned some b negative.
	artSign []float64
	artCol  [1]entry // col's scratch for an artificial column
	inB     []bool   // whether std column j is basic
	// cost is the running phase's cost per column, artificials
	// included (phase1, phase2Cost); costs is its c_B; y, d and rho are
	// the iteration's prices, entering direction and row of B⁻¹.
	cost      []float64
	costs     basicCosts
	y, d, rho []float64
	// slackRows counts rows a cold start put on their own slack; the
	// other m-slackRows started on an artificial.
	slackRows int
	iter      int
	// Per-phase iteration counters for SolveStats.
	p1Iters, p2Iters, dualIters int
	// Factorization telemetry for SolveStats.
	refactors, maxEtaLen, kernelDim int
	// Diagnostics for SolveError: the phase currently running and the
	// last phase objective observed.
	phase   int
	lastObj float64
}

// abortErr wraps a cause with the state's partial diagnostics.
func (st *simplexState) abortErr(cause error) error {
	return &SolveError{Iterations: st.iter, Phase: st.phase, LastObjective: st.lastObj, Err: cause}
}

// newState resets the state in cm's workspace for a solve and points
// it at the workspace's vectors. Nothing of an earlier solve survives in
// them that the solve reads before writing.
func newState(cm *Compiled, opts Options) *simplexState {
	f := cm.workspace()
	st := &f.st
	*st = simplexState{
		cm: cm, opts: opts, m: cm.nRows, fac: f,
		basis: f.basis, xB: f.xB, artSign: f.artSign, inB: f.inB, cost: f.cost,
		costs: basicCosts{cB: f.cB, nz: f.cNZ[:0]},
		y:     f.y, d: f.d, rho: f.rho,
	}
	return st
}

// newSimplexState builds the cold start: the slack crash basis. Row i
// starts on its own slack (coefficient σ = ±1) when that is feasible,
// b_i/σ ≥ 0, and on an artificial signed like b_i otherwise (EQ rows,
// slacks that would start negative). Either way column i of the start
// basis is ±e_i, so the factor installs the diagonal directly.
func newSimplexState(cm *Compiled, opts Options) *simplexState {
	st := newState(cm, opts)
	for i := 0; i < st.m; i++ {
		st.artSign[i] = 1
		if cm.b[i] < 0 {
			st.artSign[i] = -1
		}
		j := cm.nCols + i
		if sc := cm.slack[i]; sc >= 0 && cm.b[i]*cm.cols[sc][0].val >= 0 {
			j = sc
			st.slackRows++
		}
		st.basis[i] = j
		st.inB[j] = true
		st.xB[i] = cm.b[i] * st.col(j)[0].val // b_i/σ_i, σ_i = ±1
	}
	st.fac.refactor(st) // a diagonal: the kernel is empty, nothing to factor or to fail
	return st
}

// newWarmState builds a state whose basis is the supplied warm basis,
// extended over rows appended since capture (slack if available, else
// that row's artificial). It returns nil when the basis cannot apply
// (stale dimensions, duplicate columns) and the caller should solve
// cold.
func newWarmState(cm *Compiled, opts Options, ws *Basis) *simplexState {
	m := cm.nRows
	if ws.nRows > m || len(ws.cols) != ws.nRows {
		return nil
	}
	st := newState(cm, opts)
	for i := range st.artSign {
		st.artSign[i] = 1
	}
	for i := 0; i < ws.nRows; i++ {
		j := ws.cols[i]
		if j < 0 {
			r := -j - 1
			if r >= m {
				return nil
			}
			j = cm.nCols + r
		} else if j >= cm.nCols {
			return nil
		}
		if st.inB[j] {
			return nil
		}
		st.basis[i] = j
		st.inB[j] = true
	}
	for i := ws.nRows; i < m; i++ {
		if sc := cm.slack[i]; sc >= 0 && !st.inB[sc] {
			st.basis[i] = sc
			st.inB[sc] = true
		} else {
			st.basis[i] = cm.nCols + i
			st.inB[cm.nCols+i] = true
		}
	}
	return st
}

// captureBasis encodes the current basis for Solution.Basis.
// Artificials are encoded by row so the encoding stays valid when
// columns are appended later.
func (st *simplexState) captureBasis() *Basis {
	bs := &Basis{cols: make([]int, st.m), nRows: st.m}
	for i, j := range st.basis {
		if j >= st.cm.nCols {
			bs.cols[i] = -(j - st.cm.nCols) - 1
		} else {
			bs.cols[i] = j
		}
	}
	return bs
}

// col returns the nonzeros of std column j; an artificial's single
// entry is built in the state's scratch, valid until the next call.
func (st *simplexState) col(j int) []entry {
	if j < st.cm.nCols {
		return st.cm.cols[j]
	}
	r := j - st.cm.nCols
	st.artCol[0] = entry{row: r, val: st.artSign[r]}
	return st.artCol[:]
}

// ftran computes d = B⁻¹ * col(j).
func (st *simplexState) ftran(j int, d []float64) {
	st.fac.ftran(st, j, d)
}

// btran computes y = c_Bᵀ·B⁻¹ for the running phase's basic costs.
func (st *simplexState) btran(y []float64) {
	st.fac.btran(st.costs.cB, st.costs.nz, y)
}

// basicCosts is BTRAN's input during a phase: c_B, the phase cost of
// the column basic at each position, and nz, the ascending positions
// where it is non-zero. A pivot changes one basic column, so pivot
// updates one entry of each instead of gathering all m again.
type basicCosts struct {
	cost []float64 // the phase's cost per std column
	cB   []float64
	nz   []int
}

// reset gathers c_B for cost over basis.
func (bc *basicCosts) reset(cost []float64, basis []int) {
	bc.cost, bc.nz = cost, bc.nz[:0]
	for p, j := range basis {
		bc.cB[p] = cost[j]
		if cost[j] != 0 {
			bc.nz = append(bc.nz, p)
		}
	}
}

// set records that column j became basic at position p.
func (bc *basicCosts) set(p, j int) {
	v := bc.cost[j]
	bc.cB[p] = v
	i, in := slices.BinarySearch(bc.nz, p)
	switch {
	case v != 0 && !in:
		bc.nz = slices.Insert(bc.nz, i, p)
	case v == 0 && in:
		bc.nz = slices.Delete(bc.nz, i, i+1)
	}
}

// objective is c_Bᵀx_B, summed over nz in ascending position order: the
// terms left out are exact zeros.
func (bc *basicCosts) objective(xB []float64) float64 {
	obj := 0.0
	for _, p := range bc.nz {
		obj += bc.cB[p] * xB[p]
	}
	return obj
}

// refactor rebuilds the basis factorization from the current basis
// and recomputes xB. Returns false if the basis matrix is singular (or
// a fault hook injected a failure).
func (st *simplexState) refactor() bool {
	if h := st.opts.FaultHook; h != nil {
		if h(FaultEvent{Point: FaultRefactor, Iter: st.iter, Rows: st.cm.nRows, Cols: st.cm.nCols}) != nil {
			return false
		}
	}
	if !st.fac.refactor(st) {
		return false
	}
	st.refactors++
	st.kernelDim = max(st.kernelDim, len(st.fac.kPos))
	// xB = B⁻¹ * b.
	st.fac.applyInv(st.cm.b, st.xB)
	return true
}

// needRefactor merges the fixed-period trigger with the factor's own
// growth trigger (eta-chain length / fill).
func (st *simplexState) needRefactor(sinceRefactor int) bool {
	return sinceRefactor >= st.opts.RefactorEvery || st.fac.shouldRefactor()
}

// pivot performs the basis change: column enter replaces the basic
// column in row leaveRow, with direction vector d = B⁻¹*A_enter. The
// factorization absorbs the pivot as an appended eta rather than
// refactoring.
func (st *simplexState) pivot(enter, leaveRow int, d []float64) {
	theta := st.xB[leaveRow] / d[leaveRow]
	for i, di := range d { // leaveRow too: its value is overwritten below
		st.xB[i] -= theta * di
		if st.xB[i] < 0 && st.xB[i] > -tol.Feas {
			st.xB[i] = 0
		}
	}
	st.xB[leaveRow] = theta
	st.fac.update(leaveRow, d)
	if etaLen := len(st.fac.etas); etaLen > st.maxEtaLen {
		st.maxEtaLen = etaLen
	}
	st.inB[st.basis[leaveRow]] = false
	st.inB[enter] = true
	st.basis[leaveRow] = enter
	st.costs.set(leaveRow, enter)
	if h := st.fac.hooks; h != nil && h.pivot != nil {
		h.pivot(st, enter, leaveRow)
	}
}

// ratioRows lists the rows whose direction entry exceeds pivTol — the
// ratio test's candidates, ascending, in BTRAN's position list, which
// is free until the next BTRAN — and the least ratio xB/d among them.
func (st *simplexState) ratioRows(d []float64, pivTol float64) ([]int, float64) {
	cand, minTheta := st.fac.nz[:0], math.Inf(1)
	for i, di := range d {
		if di > pivTol {
			cand = append(cand, i)
			if theta := st.xB[i] / di; theta < minTheta {
				minTheta = theta
			}
		}
	}
	return cand, minTheta
}

// runPhase runs primal simplex iterations with the given cost vector
// (length nCols + m where the artificial block carries artCost). It
// returns the terminal status for this phase.
func (st *simplexState) runPhase(cost []float64, phase1 bool) (Status, error) {
	cm := st.cm
	y, d := st.y, st.d
	st.costs.reset(cost, st.basis)
	noImprove := 0
	lastObj := math.Inf(1)
	sinceRefactor := 0
	iters := &st.p2Iters
	if phase1 {
		st.phase = 1
		iters = &st.p1Iters
	} else {
		st.phase = 2
	}
	st.lastObj = lastObj

	for ; st.iter < st.opts.MaxIter; st.iter++ {
		if st.iter%ctxCheckPeriod == 0 {
			if err := st.opts.ctxErr(); err != nil {
				return StatusIterLimit, err
			}
		}
		if h := st.opts.FaultHook; h != nil {
			if err := h(FaultEvent{Point: FaultIteration, Iter: st.iter, Rows: cm.nRows, Cols: cm.nCols}); err != nil {
				return StatusIterLimit, err
			}
		}
		if st.needRefactor(sinceRefactor) {
			if !st.refactor() {
				return StatusIterLimit, ErrNumerical
			}
			sinceRefactor = 0
		}
		sinceRefactor++

		st.btran(y)

		useBland := noImprove >= blandTrigger
		enter := -1
		bestRC := -tol.Opt
		// Price structural + slack columns.
		for j := 0; j < cm.nCols; j++ {
			if st.inB[j] {
				continue
			}
			rc := cost[j]
			for _, e := range cm.cols[j] {
				rc -= y[e.row] * e.val
			}
			if rc < -tol.Opt {
				if useBland {
					enter = j
					break
				}
				if rc < bestRC {
					bestRC = rc
					enter = j
				}
			}
		}
		// In phase 1, artificials never re-enter. In phase 2 they are
		// excluded entirely (cost 0 and would be degenerate).
		if enter < 0 {
			// Optimal for this phase.
			return StatusOptimal, nil
		}

		st.ftran(enter, d)
		// Two-pass ratio test (Harris style): find the minimal ratio,
		// then among near-ties — the first pass's candidate rows only —
		// pick the row with the largest pivot magnitude for numerical
		// stability. Under Bland's rule the smallest basis index wins
		// instead to guarantee termination.
		cand, minTheta := st.ratioRows(d, tol.Pivot)
		if math.IsInf(minTheta, 1) {
			// Distinguish true unboundedness from a degenerate state
			// where only sub-threshold pivots remain: accept tiny
			// pivots before declaring an unbounded ray.
			cand, minTheta = st.ratioRows(d, tol.Feas)
		}
		if math.IsInf(minTheta, 1) {
			// An apparent unbounded ray can be an artifact of a drifted
			// basis inverse; refactorize once and re-derive before
			// trusting it.
			if sinceRefactor > 1 {
				if !st.refactor() {
					return StatusIterLimit, ErrNumerical
				}
				sinceRefactor = 0 // the loop top counts this retry as the first iteration since
				continue
			}
			if phase1 {
				// Should not happen: phase-1 objective bounded below by 0.
				return StatusIterLimit, ErrNumerical
			}
			return StatusUnbounded, nil
		}
		leave := -1
		thetaCap := minTheta + tol.Feas*(1+math.Abs(minTheta))
		bestPiv := 0.0
		for _, i := range cand {
			theta := st.xB[i] / d[i]
			if theta > thetaCap {
				continue
			}
			switch {
			case useBland:
				if leave < 0 || st.basis[i] < st.basis[leave] {
					leave = i
				}
			case phase1 && st.basis[i] >= cm.nCols:
				// Prefer driving artificials out on ties.
				if leave < 0 || st.basis[leave] < cm.nCols || d[i] > bestPiv {
					leave = i
					bestPiv = d[i]
				}
			default:
				if leave >= 0 && phase1 && st.basis[leave] >= cm.nCols {
					continue // keep the artificial-leaving row
				}
				if d[i] > bestPiv {
					leave = i
					bestPiv = d[i]
				}
			}
		}
		if leave < 0 {
			return StatusIterLimit, ErrNumerical
		}
		st.pivot(enter, leave, d)
		*iters++

		if obj := st.costs.objective(st.xB); obj < lastObj-tol.Progress {
			lastObj = obj
			noImprove = 0
		} else {
			noImprove++
		}
		st.lastObj = lastObj
	}
	return StatusIterLimit, nil
}

// runDual runs dual simplex iterations: starting from a basis that is
// dual feasible for cost but primal infeasible (negative basic
// values, typically after RHS edits or appended violated cuts), it
// drives the most negative basic variable out per iteration while
// keeping reduced costs nonnegative. StatusOptimal means primal
// feasibility was restored (the caller still polishes with a primal
// phase 2); StatusInfeasible means a row proved the LP infeasible —
// callers on the warm path treat that as a cold-solve fallback rather
// than trusting the warm basis with the verdict.
func (st *simplexState) runDual(cost []float64) (Status, error) {
	m := st.m
	cm := st.cm
	y, d, rho := st.y, st.d, st.rho
	st.costs.reset(cost, st.basis)
	st.phase = 3
	sinceRefactor := 0
	stall := 0
	lastWorst := math.Inf(-1)
	for ; st.iter < st.opts.MaxIter; st.iter++ {
		if st.iter%ctxCheckPeriod == 0 {
			if err := st.opts.ctxErr(); err != nil {
				return StatusIterLimit, err
			}
		}
		if h := st.opts.FaultHook; h != nil {
			if err := h(FaultEvent{Point: FaultIteration, Iter: st.iter, Rows: cm.nRows, Cols: cm.nCols}); err != nil {
				return StatusIterLimit, err
			}
		}
		if st.needRefactor(sinceRefactor) {
			if !st.refactor() {
				return StatusIterLimit, ErrNumerical
			}
			sinceRefactor = 0
		}
		sinceRefactor++

		// Leaving row: the most negative basic value.
		r := -1
		worst := -tol.Feas
		for i := 0; i < m; i++ {
			if st.xB[i] < worst {
				worst = st.xB[i]
				r = i
			}
		}
		if r < 0 {
			return StatusOptimal, nil
		}
		// Degenerate dual steps make no progress on the worst
		// infeasibility; rather than carry a dual Bland rule, give the
		// loop a generous stall budget and hand persistent cycling back
		// to the cold solver.
		if worst > lastWorst+tol.Progress {
			stall = 0
		} else if stall++; stall > blandTrigger {
			return StatusIterLimit, ErrNumerical
		}
		lastWorst = worst

		st.btran(y)
		st.fac.invRow(r, rho)

		// Entering column: among columns with a negative pivot-row
		// entry, the minimal reduced-cost ratio keeps dual feasibility;
		// near-ties prefer the larger pivot for stability. Artificials
		// never enter — they are phase-1 scaffolding, not LP columns.
		enter := -1
		bestRatio := math.Inf(1)
		bestPiv := 0.0
		for j := 0; j < cm.nCols; j++ {
			if st.inB[j] {
				continue
			}
			alpha := 0.0
			rc := cost[j]
			for _, e := range cm.cols[j] {
				alpha += rho[e.row] * e.val
				rc -= y[e.row] * e.val
			}
			if alpha >= -tol.Pivot {
				continue
			}
			if rc < 0 {
				rc = 0 // clamp within-tolerance dual infeasibility
			}
			ratio := rc / -alpha
			if ratio < bestRatio-tol.Progress || (ratio <= bestRatio+tol.Progress && -alpha > bestPiv) {
				bestRatio = ratio
				bestPiv = -alpha
				enter = j
			}
		}
		if enter < 0 {
			// No admissible pivot in a negative row proves the LP
			// infeasible — but only on a fresh basis inverse.
			if sinceRefactor > 1 {
				if !st.refactor() {
					return StatusIterLimit, ErrNumerical
				}
				sinceRefactor = 0 // the loop top counts this retry as the first iteration since
				continue
			}
			return StatusInfeasible, nil
		}
		st.ftran(enter, d)
		if d[r] >= -tol.PivotDrift {
			// The dense row disagrees with the ftran column: drift.
			if sinceRefactor > 1 {
				if !st.refactor() {
					return StatusIterLimit, ErrNumerical
				}
				sinceRefactor = 0 // the loop top counts this retry as the first iteration since
				continue
			}
			return StatusIterLimit, ErrNumerical
		}
		st.pivot(enter, r, d)
		st.dualIters++
	}
	return StatusIterLimit, nil
}

// dualFeasible reports whether every nonbasic structural/slack column
// has a reduced cost above -tol.Restart, i.e. the basis is usable as a
// dual simplex start.
func (st *simplexState) dualFeasible(cost []float64) bool {
	cm := st.cm
	y := st.y
	st.costs.reset(cost, st.basis)
	st.btran(y)
	for j := 0; j < cm.nCols; j++ {
		if st.inB[j] {
			continue
		}
		rc := cost[j]
		for _, e := range cm.cols[j] {
			rc -= y[e.row] * e.val
		}
		if rc < -tol.Restart {
			return false
		}
	}
	return true
}

// driveOutArtificials pivots remaining zero-level artificials out of
// the basis where possible. Rows where no structural pivot exists are
// redundant; their artificial stays basic at zero.
func (st *simplexState) driveOutArtificials() {
	d, rho := st.d, st.rho
	for i := 0; i < st.m; i++ {
		if st.basis[i] < st.cm.nCols {
			continue
		}
		// Find a nonbasic structural column with nonzero entry in row i
		// of B⁻¹*A, priced against row i of the inverse.
		st.fac.invRow(i, rho)
		found := -1
		for j := 0; j < st.cm.nCols && found < 0; j++ {
			if st.inB[j] {
				continue
			}
			v := 0.0
			for _, e := range st.cm.cols[j] {
				v += rho[e.row] * e.val
			}
			if math.Abs(v) > tol.Restart {
				found = j
			}
		}
		if found < 0 {
			continue // redundant row
		}
		st.ftran(found, d)
		st.pivot(found, i, d)
	}
}

// phase1 minimizes the sum of the basic artificials. StatusOptimal
// means it reached zero — the basis is feasible, and artificials left
// basic at zero level have been pivoted out where a column exists;
// StatusInfeasible that positive artificial mass remains.
func (st *simplexState) phase1() (Status, error) {
	cm := st.cm
	clear(st.cost[:cm.nCols])
	for i := 0; i < st.m; i++ {
		st.cost[cm.nCols+i] = 1
	}
	status, err := st.runPhase(st.cost, true)
	if err != nil || status != StatusOptimal {
		return status, err
	}
	infeas := 0.0
	for i := 0; i < st.m; i++ {
		if st.basis[i] >= cm.nCols {
			infeas += st.xB[i]
		}
	}
	if infeas > tol.Artificial {
		return StatusInfeasible, nil
	}
	st.driveOutArtificials()
	return StatusOptimal, nil
}

// phase2Cost fills the state's cost vector for phase 2 (structural
// costs, zero artificials) and returns it.
func (st *simplexState) phase2Cost() []float64 {
	copy(st.cost, st.cm.c)
	clear(st.cost[st.cm.nCols:])
	return st.cost
}

// Solve optimizes the compiled model. See SolveWithOptions for the
// status/error contract. With Options.WarmStart set, the supplied
// basis seeds the solve; the warm path falls back to a cold solve on
// any doubt (singular or dual-infeasible basis, numerical trouble, a
// non-optimal warm outcome), so warm and cold solves always agree on
// the result.
func (cm *Compiled) Solve(opts Options) (*Solution, error) {
	startTime := time.Now()
	st, status, stats, err := cm.run(opts)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Status: status}
	if st != nil {
		sol = st.extract(status)
	}
	stats.SolveTime = time.Since(startTime)
	sol.Stats = stats
	return sol, nil
}

// run solves cm in its workspace — warm from opts.WarmStart when that
// basis serves, cold otherwise — and returns the final state, which the
// caller reads before the workspace solves again: Solve extracts a
// Solution from it, Polytope.Minimize only the primal point. The state
// is nil when phase 1 ended the solve (infeasible or out of
// iterations), which leaves no basis to read. stats lacks SolveTime.
func (cm *Compiled) run(opts Options) (*simplexState, Status, SolveStats, error) {
	opts = opts.withDefaults(cm.nRows, cm.nCols)
	stats := SolveStats{CompileTime: cm.CompileTime}

	if err := opts.ctxErr(); err != nil {
		st := &simplexState{}
		return nil, 0, stats, st.abortErr(err)
	}
	if h := opts.FaultHook; h != nil {
		if err := h(FaultEvent{Point: FaultSolveStart, Rows: cm.nRows, Cols: cm.nCols}); err != nil {
			st := &simplexState{}
			return nil, 0, stats, st.abortErr(err)
		}
	}

	if opts.WarmStart != nil {
		stats.WarmStarted = true
		if st := newWarmState(cm, opts, opts.WarmStart); st != nil {
			status, ok, err := st.solveWarm()
			if err != nil && !errors.Is(err, ErrNumerical) {
				// Cancellation or fault injection must surface, not
				// silently degrade to a cold solve.
				return nil, 0, stats, st.abortErr(err)
			}
			if err == nil && ok {
				stats.WarmHit = true
				st.fillStats(&stats)
				return st, status, stats, nil
			}
		}
	}

	st := newSimplexState(cm, opts)
	status, final, err := st.solveCold()
	if errors.Is(err, ErrNumerical) && opts.ctxErr() == nil {
		// One full retry with tighter refactorization.
		opts.RefactorEvery = 50
		st = newSimplexState(cm, opts)
		status, final, err = st.solveCold()
	}
	if err != nil {
		return nil, 0, stats, st.abortErr(err)
	}
	stats.SlackStartRows = st.slackRows
	st.fillStats(&stats)
	if !final {
		st = nil
	}
	return st, status, stats, nil
}

// solveCold runs the two phases from the slack crash basis; phase 1
// only when some row starts on an artificial. final reports that phase
// 2 ran, so the basis is the one the status describes.
func (st *simplexState) solveCold() (status Status, final bool, err error) {
	if st.slackRows < st.m {
		status, err := st.phase1()
		if err != nil || status != StatusOptimal {
			return status, false, err
		}
	}
	status, err = st.runPhase(st.phase2Cost(), false)
	return status, err == nil, err
}

// solveWarm runs the warm-start pipeline on an installed basis:
// refactor, restore primal feasibility with the dual simplex (after
// RHS edits and appended inequality cuts), then primal phase 2. ok is
// false when the basis was unusable — singular, dual infeasible, or
// leaving a basic artificial carrying value (an appended equality row
// the basis does not satisfy) — and the caller should solve cold; an
// ErrNumerical return degrades the same way.
func (st *simplexState) solveWarm() (status Status, ok bool, err error) {
	cm := st.cm
	if !st.refactor() {
		return 0, false, nil
	}
	m := st.m
	// Normalize artificial signs so every basic artificial sits at a
	// nonnegative value: flipping an artificial column's sign scales
	// the matching B⁻¹ row and basic value by -1, which refactorizing
	// over the new signs recomputes.
	flipped := false
	for i := 0; i < m; i++ {
		if j := st.basis[i]; j >= cm.nCols && st.xB[i] < 0 {
			st.artSign[j-cm.nCols] *= -1
			flipped = true
		}
	}
	if flipped && !st.refactor() {
		return 0, false, nil
	}

	primalBad := false
	for i := 0; i < m; i++ {
		if st.basis[i] >= cm.nCols {
			if st.xB[i] > tol.Artificial {
				return 0, false, nil
			}
		} else if st.xB[i] < -tol.Feas {
			primalBad = true
		}
	}
	cost2 := st.phase2Cost()
	if primalBad {
		if !st.dualFeasible(cost2) {
			return 0, false, nil
		}
		status, err := st.runDual(cost2)
		if err != nil || status != StatusOptimal {
			return 0, false, err
		}
	}
	status, err = st.runPhase(cost2, false)
	if err != nil {
		return 0, false, err
	}
	return status, status == StatusOptimal || status == StatusUnbounded, nil
}

// fillStats copies the state's iteration counts and factorization
// telemetry into stats.
func (st *simplexState) fillStats(stats *SolveStats) {
	stats.Phase1Iters, stats.Phase2Iters, stats.DualIters = st.p1Iters, st.p2Iters, st.dualIters
	stats.Refactors = st.refactors
	stats.BasisNNZ, stats.FactorNNZ = st.fac.basisNNZ, st.fac.luNNZ
	stats.MaxEtaLen, stats.KernelDim, stats.Rows = st.maxEtaLen, st.kernelDim, st.m
}

// values writes the model variables' values at the state's basis into
// vals, undoing each column's substitution: a variable's value is its
// shift plus its columns' scaled values, summed in column order.
func (st *simplexState) values(vals []float64) {
	cm := st.cm
	x := st.fac.xs
	clear(x)
	for i, j := range st.basis {
		if j < cm.nCols {
			x[j] = st.xB[i]
		}
	}
	for j, mp := range cm.maps {
		if mp.v < 0 {
			continue
		}
		if cm.refs[mp.v].pos == j { // a variable's first column
			vals[mp.v] = mp.shift
		}
		vals[mp.v] += mp.scale * x[j]
	}
}

// objective values the model's objective at vals.
func (cm *Compiled) objective(vals []float64) float64 {
	obj := cm.obj.Offset
	for _, t := range cm.obj.Terms {
		obj += t.Coeff * vals[t.Var]
	}
	return obj
}

// extract builds the Solution of the state's final basis: primal
// values, objective, duals and, when optimal, the basis.
func (st *simplexState) extract(status Status) *Solution {
	cm := st.cm
	sol := &Solution{Status: status}
	if status != StatusOptimal && status != StatusIterLimit {
		return sol
	}
	vals := make([]float64, cm.nModel)
	st.values(vals)
	sol.values = vals
	sol.Objective = cm.objective(vals)

	// Duals: y = c_Bᵀ·B⁻¹, mapped back to logical rows.
	y := st.y
	st.costs.reset(st.cost, st.basis)
	st.btran(y)
	duals := make([]float64, cm.nLogical)
	for r := 0; r < st.m; r++ {
		lr := cm.rowOf[r]
		if lr < 0 {
			continue
		}
		v := y[r] * cm.rowSign[r]
		if cm.negObj {
			v = -v
		}
		duals[lr] = v
	}
	sol.duals = duals
	if status == StatusOptimal {
		sol.Basis = st.captureBasis()
	}
	return sol
}
