// Package mcf solves multi-commodity flow problems: the maximum
// concurrent flow (demand scale / inverse MLU), optionally under a set
// of dead links. It implements the paper's "intrinsic network
// capability" baseline — the performance of a network that responds to
// each failure with an optimal multi-commodity flow — by exhaustive
// scenario enumeration (§5), and the MLU-targeted traffic-matrix
// scaling used to generate evaluation demands.
//
// Flows are aggregated per destination, so the LP has O(V·E) variables
// rather than O(V^2·E). The scenario sweep compiles the base MCF once
// and re-solves each scenario by zeroing the dead arcs' capacity rows
// with a warm basis (DESIGN.md §11), sweeping scenarios across a
// runtime.NumCPU()-bounded worker pool.
package mcf

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/tol"
	"pcf/internal/topology"
	"pcf/internal/traffic"
)

// Result reports an optimal flow.
type Result struct {
	// Objective is the optimal value (the demand scale z).
	Objective float64
	// FlowTo[t][a] is the flow toward destination t on arc a.
	FlowTo map[topology.NodeID][]float64
}

// MaxConcurrentFlow computes the largest z such that z times every
// demand can be routed simultaneously within arc capacities, with the
// links in dead removed. Pairs whose demand is zero are ignored.
func MaxConcurrentFlow(g *topology.Graph, tm *traffic.Matrix, dead map[topology.LinkID]bool) (*Result, error) {
	return solveFlow(g, tm, dead)
}

// flowModel is a built (not yet compiled) MCF model plus the handles
// needed to extract flows and to toggle per-arc capacity rows.
type flowModel struct {
	m       *lp.Model
	flow    map[topology.NodeID][]lp.Var
	z       lp.Var
	dsts    []topology.NodeID
	numArcs int
	capRow  []int // logical capacity row per arc, or -1
}

// buildFlow assembles the MCF model. Dead arcs are omitted as
// variables; the scenario sweep instead builds with dead == nil and
// disables arcs by zeroing their capacity rows, which keeps one
// compiled layout valid for every scenario.
func buildFlow(g *topology.Graph, tm *traffic.Matrix, dead map[topology.LinkID]bool) (*flowModel, error) {
	if tm.N() != g.NumNodes() {
		return nil, fmt.Errorf("mcf: matrix is %dx%d but graph has %d nodes", tm.N(), tm.N(), g.NumNodes())
	}
	n := g.NumNodes()
	// Destinations with any inbound demand.
	dsts := make([]topology.NodeID, 0, n)
	inDemand := make([]float64, n)
	for t := 0; t < n; t++ {
		for s := 0; s < n; s++ {
			inDemand[t] += tm.Demand[s][t]
		}
		if inDemand[t] > 0 {
			dsts = append(dsts, topology.NodeID(t))
		}
	}
	fm := &flowModel{m: lp.NewModel(), dsts: dsts, numArcs: g.NumArcs(), z: -1}
	if len(dsts) == 0 {
		return fm, nil
	}

	m := fm.m
	numArcs := fm.numArcs
	fm.flow = make(map[topology.NodeID][]lp.Var, len(dsts))
	liveArc := make([]bool, numArcs)
	for a := 0; a < numArcs; a++ {
		liveArc[a] = dead == nil || !dead[topology.LinkOf(topology.ArcID(a))]
	}
	for _, t := range dsts {
		vars := make([]lp.Var, numArcs)
		for a := 0; a < numArcs; a++ {
			if liveArc[a] {
				vars[a] = m.AddNonNeg()
			} else {
				vars[a] = -1
			}
		}
		fm.flow[t] = vars
	}

	fm.z = m.AddNonNeg()

	// Flow balance at every node v != t for each destination t:
	//   out(v) - in(v) = scaled demand from v to t.
	for _, t := range dsts {
		vars := fm.flow[t]
		for v := 0; v < n; v++ {
			if topology.NodeID(v) == t {
				continue
			}
			e := lp.NewExpr()
			for _, a := range g.OutArcs(topology.NodeID(v)) {
				if vars[a] >= 0 {
					e.Add(1, vars[a])
				}
				// The reverse of an outgoing arc is the incoming arc.
				rev := a ^ 1
				if vars[rev] >= 0 {
					e.Add(-1, vars[rev])
				}
			}
			if d := tm.Demand[v][t]; d > 0 {
				e.Add(-d, fm.z)
			}
			m.AddConstraint(e, lp.EQ, 0)
		}
	}
	// Arc capacities across destinations.
	fm.capRow = make([]int, numArcs)
	for a := 0; a < numArcs; a++ {
		fm.capRow[a] = -1
		if !liveArc[a] {
			continue
		}
		e := lp.NewExpr()
		for _, t := range dsts {
			if fm.flow[t][a] >= 0 {
				e.Add(1, fm.flow[t][a])
			}
		}
		if len(e.Terms) == 0 {
			continue
		}
		fm.capRow[a] = m.AddConstraint(e, lp.LE, g.ArcCapacity(topology.ArcID(a)))
	}

	m.SetObjective(lp.NewExpr().Add(1, fm.z), lp.Maximize)
	return fm, nil
}

// objectiveOf maps a solve status to the sweep's objective
// convention: infeasible means a disconnected demand (objective 0),
// unbounded means no binding demand (+Inf).
func objectiveOf(sol *lp.Solution) (float64, error) {
	switch sol.Status {
	case lp.StatusOptimal:
		return sol.Objective, nil
	case lp.StatusInfeasible:
		return 0, nil
	case lp.StatusUnbounded:
		return math.Inf(1), nil
	default:
		return 0, fmt.Errorf("mcf: %w", sol.Err())
	}
}

func solveFlow(g *topology.Graph, tm *traffic.Matrix, dead map[topology.LinkID]bool) (*Result, error) {
	fm, err := buildFlow(g, tm, dead)
	if err != nil {
		return nil, err
	}
	if len(fm.dsts) == 0 {
		return &Result{Objective: math.Inf(1), FlowTo: map[topology.NodeID][]float64{}}, nil
	}
	sol, err := lp.Solve(fm.m)
	if err != nil {
		return nil, fmt.Errorf("mcf: %w", err)
	}
	obj, err := objectiveOf(sol)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return &Result{Objective: obj, FlowTo: map[topology.NodeID][]float64{}}, nil
	}
	res := &Result{Objective: obj, FlowTo: make(map[topology.NodeID][]float64, len(fm.dsts))}
	for _, t := range fm.dsts {
		fv := make([]float64, fm.numArcs)
		for a := 0; a < fm.numArcs; a++ {
			if fm.flow[t][a] >= 0 {
				fv[a] = sol.Value(fm.flow[t][a])
			}
		}
		res.FlowTo[t] = fv
	}
	return res, nil
}

// MinMLU returns the maximum link utilization of an optimal routing of
// the full matrix (the inverse of the max concurrent flow scale).
func MinMLU(g *topology.Graph, tm *traffic.Matrix) (float64, error) {
	mlu, _, err := minMLU(g, tm, nil)
	return mlu, err
}

// minMLU is MinMLU on a solve warm-started from warm when it is
// non-nil, returning the solution too (nil when the matrix has no
// demand): MaxConcurrentFlow without the per-arc flows.
func minMLU(g *topology.Graph, tm *traffic.Matrix, warm *lp.Basis) (float64, *lp.Solution, error) {
	fm, err := buildFlow(g, tm, nil)
	if err != nil {
		return 0, nil, err
	}
	if len(fm.dsts) == 0 {
		return 0, nil, nil // no demand: the scale is unbounded
	}
	sol, err := lp.Compile(fm.m).Solve(lp.Options{WarmStart: warm})
	if err != nil {
		return 0, nil, fmt.Errorf("mcf: %w", err)
	}
	z, err := objectiveOf(sol)
	if err != nil {
		return 0, nil, err
	}
	if z <= 0 {
		return math.Inf(1), sol, nil
	}
	return 1 / z, sol, nil
}

// SweepStats reports how a scenario sweep went.
type SweepStats struct {
	// Scenarios is the number of failure scenarios solved; Workers the
	// goroutines that swept them.
	Scenarios int
	Workers   int
	// WarmHits counts scenario solves served by the warm-start path;
	// ColdSolves counts full cold solves (including the base solve
	// that seeds the bases).
	WarmHits   int
	ColdSolves int
	// LPIterations totals simplex iterations across all solves.
	LPIterations int
	// CompileTime is the one-time model compilation cost; Total the
	// wall clock of the whole sweep.
	CompileTime time.Duration
	Total       time.Duration
}

// WarmHitRate is the fraction of scenario solves served warm.
func (s SweepStats) WarmHitRate() float64 {
	if s.Scenarios == 0 {
		return 0
	}
	return float64(s.WarmHits) / float64(s.Scenarios)
}

// Metrics flattens the stats into the flat field schema of the
// telemetry record model (durations in milliseconds). The keys are the
// one vocabulary for MCF-sweep statistics everywhere they surface.
func (s SweepStats) Metrics() map[string]float64 {
	return map[string]float64{
		"scenarios":       float64(s.Scenarios),
		"workers":         float64(s.Workers),
		"warm_hits":       float64(s.WarmHits),
		"cold_solves":     float64(s.ColdSolves),
		"warm_hit_rate":   s.WarmHitRate(),
		"lp_iterations":   float64(s.LPIterations),
		"compile_time_ms": float64(s.CompileTime) / float64(time.Millisecond),
		"total_ms":        float64(s.Total) / float64(time.Millisecond),
	}
}

// OptimalUnderFailuresStats computes the intrinsic network capability
// for the demand-scale metric: the worst over all scenarios in fs of
// the optimal per-scenario concurrent flow, with the scenario that
// attains it and the sweep's statistics. ctx bounds the sweep: it is
// checked before every scenario's solve and inside each solve's simplex
// loop, and a nil ctx means no bound. The base MCF is compiled once;
// each scenario re-solves it with the dead arcs' capacity rows zeroed,
// warm-started from the worker's previous basis. Scenarios are
// pre-enumerated and swept by up to runtime.NumCPU() workers, each
// owning its compiled clone and basis chain; results are merged by an
// in-order scan taking the first strict minimum, so a successful
// sweep returns the same (value, scenario) as the sequential
// enumeration regardless of scheduling.
func OptimalUnderFailuresStats(ctx context.Context, g *topology.Graph, tm *traffic.Matrix, fs *failures.Set) (float64, failures.Scenario, *SweepStats, error) {
	start := time.Now()
	stats := &SweepStats{}
	var scenarios []failures.Scenario
	fs.Enumerate(func(sc failures.Scenario) bool {
		scenarios = append(scenarios, sc)
		return true
	})
	stats.Scenarios = len(scenarios)
	if len(scenarios) == 0 {
		stats.Total = time.Since(start)
		return math.Inf(1), failures.Scenario{}, stats, nil
	}

	fm, err := buildFlow(g, tm, nil)
	if err != nil {
		return 0, failures.Scenario{}, stats, err
	}
	if len(fm.dsts) == 0 {
		// No demand: every scenario scales unboundedly.
		stats.Total = time.Since(start)
		return math.Inf(1), failures.Scenario{}, stats, nil
	}
	comp := lp.Compile(fm.m)
	stats.CompileTime = comp.CompileTime

	// One cold solve of the no-failure model seeds every worker's
	// basis chain.
	baseSol, err := comp.Solve(lp.Options{Context: ctx})
	if err != nil {
		return 0, failures.Scenario{}, stats, fmt.Errorf("mcf: base solve: %w", err)
	}
	stats.ColdSolves++
	stats.LPIterations += baseSol.Stats.Iterations()

	workers := runtime.NumCPU()
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if workers < 1 {
		workers = 1
	}
	stats.Workers = workers

	type slot struct {
		obj  float64
		err  error
		done bool
	}
	results := make([]slot, len(scenarios))
	perWorker := make([]SweepStats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wcomp := comp
			if workers > 1 {
				wcomp = comp.Clone()
			}
			basis := baseSol.Basis
			ws := &perWorker[w]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(scenarios) {
					return
				}
				sc := scenarios[i]
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						results[i].err = fmt.Errorf("mcf: scenario enumeration canceled at %v: %w", sc, err)
						results[i].done = true
						return
					}
				}
				obj, sol, err := sweepSolve(ctx, wcomp, fm, sc, basis)
				results[i].done = true
				if err != nil {
					results[i].err = fmt.Errorf("mcf: scenario %v: %w", sc, err)
					return
				}
				results[i].obj = obj
				if sol != nil {
					ws.LPIterations += sol.Stats.Iterations()
					if sol.Stats.WarmHit {
						ws.WarmHits++
					} else {
						ws.ColdSolves++
					}
					if sol.Basis != nil {
						basis = sol.Basis
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, ws := range perWorker {
		stats.WarmHits += ws.WarmHits
		stats.ColdSolves += ws.ColdSolves
		stats.LPIterations += ws.LPIterations
	}
	stats.Total = time.Since(start)

	worst := math.Inf(1)
	var worstSc failures.Scenario
	for i := range results {
		if results[i].err != nil {
			return 0, failures.Scenario{}, stats, results[i].err
		}
		if !results[i].done {
			// Only reachable when every worker bailed out early; the
			// in-order scan surfaces the triggering error first, so an
			// undone slot here means a logic error upstream.
			return 0, failures.Scenario{}, stats, fmt.Errorf("mcf: scenario %v was never solved", scenarios[i])
		}
		if results[i].obj < worst {
			worst = results[i].obj
			worstSc = scenarios[i]
		}
	}
	return worst, worstSc, stats, nil
}

// sweepSolve re-solves the compiled base MCF under one scenario by
// toggling the affected arcs' capacity rows (restored before
// returning), warm-starting from the supplied basis: dead arcs drop to
// zero capacity, degraded arcs to their scenario scale times the
// nominal RHS.
func sweepSolve(ctx context.Context, comp *lp.Compiled, fm *flowModel, sc failures.Scenario, basis *lp.Basis) (float64, *lp.Solution, error) {
	var touched []int
	var saved []float64
	for a := 0; a < fm.numArcs; a++ {
		row := fm.capRow[a]
		if row < 0 {
			continue
		}
		scale := sc.CapScale(topology.LinkOf(topology.ArcID(a)))
		if scale >= 1 {
			continue
		}
		touched = append(touched, row)
		rhs := comp.RowRHS(row)
		saved = append(saved, rhs)
		comp.SetRowRHS(row, rhs*scale)
	}
	defer func() {
		for k, row := range touched {
			comp.SetRowRHS(row, saved[k])
		}
	}()
	sol, err := comp.Solve(lp.Options{Context: ctx, WarmStart: basis})
	if err != nil {
		return 0, nil, fmt.Errorf("mcf: %w", err)
	}
	obj, err := objectiveOf(sol)
	if err != nil {
		return 0, nil, err
	}
	return obj, sol, nil
}

// ScaleToMLU rescales the matrix so the optimal no-failure MLU falls
// in [lo, hi], reproducing the paper's evaluation setup. It returns
// the scaled matrix and the achieved MLU.
func ScaleToMLU(g *topology.Graph, tm *traffic.Matrix, lo, hi float64) (*traffic.Matrix, float64, error) {
	scaled, got, _, err := scaleToMLU(g, tm, lo, hi)
	return scaled, got, err
}

// scaleToMLU is ScaleToMLU that also returns the confirming solve.
// Scaling the matrix by α changes only the z column of the flow LP:
// each balance row's -d·z becomes -(α·d)·z, and the layout of the
// standard form does not depend on coefficient values. The first
// solve's optimal basis therefore stays primal feasible (z's value
// scales by 1/α, every other basic value is unchanged) and dual
// feasible (z is basic and the only cost, so every reduced cost scales
// by 1/α > 0), and the confirmation starts from it: a real solve with
// its range check, usually without a pivot, that the warm dispatch
// redoes cold on any doubt.
func scaleToMLU(g *topology.Graph, tm *traffic.Matrix, lo, hi float64) (*traffic.Matrix, float64, *lp.Solution, error) {
	if lo <= 0 || hi <= lo {
		return nil, 0, nil, fmt.Errorf("mcf: bad MLU target [%g, %g]", lo, hi)
	}
	mlu, sol, err := minMLU(g, tm, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	if math.IsInf(mlu, 1) || mlu == 0 {
		return nil, 0, nil, fmt.Errorf("mcf: cannot scale matrix with MLU %v", mlu)
	}
	// MLU scales linearly with the matrix.
	target := (lo + hi) / 2
	scaled := tm.Scale(target / mlu)
	got, confirm, err := minMLU(g, scaled, sol.Basis)
	if err != nil {
		return nil, 0, nil, err
	}
	if got < lo-tol.MLULanding || got > hi+tol.MLULanding {
		return nil, 0, nil, fmt.Errorf("mcf: scaling landed at MLU %g, outside [%g, %g]", got, lo, hi)
	}
	return scaled, got, confirm, nil
}
