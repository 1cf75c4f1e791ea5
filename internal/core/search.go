package core

// Adversarial worst-scenario search: the LP adversary grown into a
// first-class harness. Exhaustive enumeration of a failure Set is
// O(C(n, f)) and dies at synth scale; this file finds bad scenarios
// without enumerating by combining two moves (DESIGN.md §18):
//
//  1. LP-guided candidate extraction. Each resilience constraint's
//     adversary polytope is minimized at the *plan's* reservation
//     values — exactly the separation oracle the cutting-plane engine
//     runs during solves, re-aimed at a finished plan. The minimizing
//     vertex's failure-unit variables are rounded to an integral
//     ≤Budget unit combination; these candidates pinpoint the
//     constraints the plan has least slack on.
//
//  2. Seeded local search over unit flips. From each candidate (plus
//     deterministic restarts), hill-climb on the caller's objective
//     over the add/remove/swap neighborhood of unit combinations.
//
// The objective is a callback so the harness stays free of an
// internal/routing dependency (routing imports core); routing wires it
// to a Sweep-based MLU evaluation in WorstMLUSearch and cross-checks
// against exhaustive enumeration on small topologies.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/tol"
)

const (
	searchRestarts   = 4    // random restart combinations added to the LP candidates
	searchMaxEvals   = 5000 // objective evaluations per search
	searchSinglesCap = 64   // unit count up to which every single is a start, making Budget ≤ 1 exact
)

// SearchOptions configures WorstScenarioSearch.
type SearchOptions struct {
	// Eval scores a scenario (higher = worse for the plan, e.g. MLU).
	// Required. An Eval error marks the scenario unusable (counted in
	// EvalErrors) without aborting the search: beyond-design scenarios
	// may legitimately fail to realize.
	Eval func(failures.Scenario) (float64, error)
	// Seed drives restart generation; the whole search is
	// deterministic given the seed.
	Seed int64
}

// SearchResult is the outcome of a worst-scenario search.
type SearchResult struct {
	// Scenario is the worst scenario found and Value its objective.
	Scenario failures.Scenario
	Value    float64
	// Evals counts objective evaluations, EvalErrors the scenarios
	// whose evaluation failed, LPCandidates the candidates extracted
	// from the adversary polytopes, and Improvements the accepted
	// hill-climbing moves.
	Evals        int
	EvalErrors   int
	LPCandidates int
	Improvements int
}

// evalExprAt evaluates a master-variable expression at a fixed
// assignment (missing variables count as zero).
func evalExprAt(e *lp.Expr, val map[lp.Var]float64) float64 {
	if e == nil {
		return 0
	}
	s := e.Offset
	for _, t := range e.Terms {
		s += t.Coeff * val[t.Var]
	}
	return s
}

// planValues maps the master variables of a freshly built master model
// to the plan's reservations.
func planValues(plan *Plan, mv *masterVars) map[lp.Var]float64 {
	val := make(map[lp.Var]float64, len(mv.a)+len(mv.b))
	for tid, v := range mv.a {
		val[v] = plan.TunnelRes[tid]
	}
	for qid, v := range mv.b {
		val[v] = plan.LSRes[qid]
	}
	return val
}

// lpCandidates rebuilds the plan's adversary specs, minimizes each
// polytope at the plan's values, and rounds the unit variables of the
// minimizing vertices into candidate unit combinations.
func lpCandidates(plan *Plan, budget int) [][]int {
	in := plan.Instance
	demand := in.DemandPairs()
	_, mv, _ := buildMaster(in, in.LSs, demand, in.constraintPairs(demand), 0)
	val := planValues(plan, mv)
	var combos [][]int
	for _, spec := range buildSpecs(in, mv, buildPCFAdversary) {
		costBuf := make([]float64, len(spec.costs))
		for j, c := range spec.costs {
			costBuf[j] = evalExprAt(c, val)
		}
		_, w, err := spec.poly.Minimize(costBuf)
		if err != nil {
			continue
		}
		type uw struct {
			u int
			w float64
		}
		var weights []uw
		for u, v := range spec.unitVars {
			if w[v] > tol.Support {
				weights = append(weights, uw{u, w[v]})
			}
		}
		sort.Slice(weights, func(i, j int) bool {
			if weights[i].w > weights[j].w {
				return true
			}
			if weights[i].w < weights[j].w {
				return false
			}
			return weights[i].u < weights[j].u
		})
		if len(weights) > budget {
			weights = weights[:budget]
		}
		if len(weights) == 0 {
			continue
		}
		combo := make([]int, len(weights))
		for i, x := range weights {
			combo[i] = x.u
		}
		sort.Ints(combo)
		combos = append(combos, combo)
	}
	return combos
}

func comboKey(combo []int) string {
	return fmt.Sprint(combo)
}

// WorstScenarioSearch hunts for the failure scenario (≤Budget units)
// that maximizes opts.Eval over the plan's failure set, without
// enumerating the set. Deterministic given opts.Seed. Cross-check
// against exhaustive enumeration lives in internal/routing's tests.
func WorstScenarioSearch(ctx context.Context, plan *Plan, opts SearchOptions) (*SearchResult, error) {
	if opts.Eval == nil {
		return nil, fmt.Errorf("core: WorstScenarioSearch needs an Eval objective")
	}
	in := plan.Instance
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("core: worst-scenario search: %w", err)
	}
	fs := in.Failures
	n := len(fs.Units)
	budget := fs.Budget
	if budget > n {
		budget = n
	}
	res := &SearchResult{Value: math.Inf(-1)}

	// Memoized objective over unit combinations.
	cache := map[string]float64{}
	evaluate := func(combo []int) (float64, error) {
		key := comboKey(combo)
		if v, ok := cache[key]; ok {
			return v, nil
		}
		if res.Evals >= searchMaxEvals {
			return math.Inf(-1), nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("core: worst-scenario search canceled: %w", err)
			}
		}
		res.Evals++
		sc := fs.ScenarioOf(combo)
		v, err := opts.Eval(sc)
		if err != nil {
			res.EvalErrors++
			v = math.Inf(-1)
		}
		cache[key] = v
		if v > res.Value {
			res.Value = v
			res.Scenario = sc
		}
		return v, nil
	}

	// Starting points: the no-failure scenario, LP candidates, all
	// singles on small sets, and seeded random restarts.
	var starts [][]int
	starts = append(starts, []int{})
	cands := lpCandidates(plan, budget)
	res.LPCandidates = len(cands)
	starts = append(starts, cands...)
	if n <= searchSinglesCap && budget >= 1 {
		for u := 0; u < n; u++ {
			starts = append(starts, []int{u})
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for r := 0; r < searchRestarts && budget >= 1; r++ {
		k := 1 + rng.Intn(budget)
		perm := rng.Perm(n)[:k]
		sort.Ints(perm)
		starts = append(starts, perm)
	}

	seenStart := map[string]bool{}
	for _, start := range starts {
		key := comboKey(start)
		if seenStart[key] {
			continue
		}
		seenStart[key] = true
		cur := append([]int(nil), start...)
		curVal, err := evaluate(cur)
		if err != nil {
			return res, err
		}
		// Hill climb until no neighbor improves or budgets run out.
		for step := 0; step < n*budget+1; step++ {
			if res.Evals >= searchMaxEvals {
				break
			}
			neighbors := comboNeighbors(cur, n, budget)
			bestVal, bestIdx := curVal, -1
			for i, nb := range neighbors {
				v, err := evaluate(nb)
				if err != nil {
					return res, err
				}
				if v > bestVal+tol.Tie {
					bestVal, bestIdx = v, i
				}
			}
			if bestIdx < 0 {
				break
			}
			cur, curVal = neighbors[bestIdx], bestVal
			res.Improvements++
		}
	}
	if math.IsInf(res.Value, -1) {
		return res, fmt.Errorf("core: worst-scenario search evaluated no scenario successfully (%d errors)", res.EvalErrors)
	}
	return res, nil
}

// comboNeighbors generates the add/remove/swap neighborhood of a unit
// combination in deterministic order.
func comboNeighbors(combo []int, n, budget int) [][]int {
	chosen := make(map[int]bool, len(combo))
	for _, u := range combo {
		chosen[u] = true
	}
	var out [][]int
	// Removals.
	for i := range combo {
		nb := make([]int, 0, len(combo)-1)
		nb = append(nb, combo[:i]...)
		nb = append(nb, combo[i+1:]...)
		out = append(out, nb)
	}
	// Additions.
	if len(combo) < budget {
		for u := 0; u < n; u++ {
			if !chosen[u] {
				nb := append(append([]int(nil), combo...), u)
				sort.Ints(nb)
				out = append(out, nb)
			}
		}
	}
	// Swaps.
	for i := range combo {
		for u := 0; u < n; u++ {
			if chosen[u] {
				continue
			}
			nb := append([]int(nil), combo...)
			nb[i] = u
			sort.Ints(nb)
			out = append(out, nb)
		}
	}
	return out
}
