package core

import (
	"sort"

	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// advSpec is the inner adversarial minimization for one pair's
// resilience constraint:
//
//	constPart + min_{w in poly} Σ_j costs[j]·w_j  >=  rhs
//
// where w collects failure-unit, link, tunnel and condition variables.
// The cut loop (iterate.loop) calls poly.Minimize on it as a
// separation oracle; the tests' reference dualizes the same spec with
// lp.RobustGE.
type advSpec struct {
	pair      topology.Pair
	in        *Instance
	poly      *lp.Polytope
	costs     []*lp.Expr
	constPart *lp.Expr
	rhs       *lp.Expr

	// Bookkeeping for tests, condition building and scenario checks;
	// unitsOf is the solve's death-unit index (masterVars.unitsOf).
	unitsOf  [][]int
	xIdx     map[topology.LinkID]lp.AdvVar
	yIdx     map[tunnels.ID]lp.AdvVar
	hIdx     map[LSID]lp.AdvVar
	unitVars map[int]lp.AdvVar
	conds    map[lp.AdvVar]*Condition
}

// deathUnitsOf returns, for each link, the indices of the units that
// contain it and kill their links (Alpha == 0). Degrade units (Alpha > 0) leave their links
// alive, so they never drive link or tunnel failure variables: a
// scenario that spends part of its budget on degrade units kills a
// subset of the tunnels the all-death scenario over the same death
// units kills, and is therefore dominated inside the death-only
// polytope. Degradation instead tightens the master's capacity rows
// (effectiveCapacity in solve.go). Every pair's adversary reads it, so a
// solve builds it once (newMasterVars) and hands it down.
func deathUnitsOf(fs *failures.Set, numLinks int) [][]int {
	out := make([][]int, numLinks)
	for ui, u := range fs.Units {
		if u.Alpha > 0 {
			continue
		}
		for _, l := range u.Links {
			out[l] = append(out[l], ui)
		}
	}
	return out
}

// scenarioPoint evaluates the adversary variables at an integral
// failure scenario: the linearizations are exact at integral points,
// so the result is a vertex of the polytope. Used to seed the
// cutting-plane engine with real scenarios.
func (spec *advSpec) scenarioPoint(sc failures.Scenario) []float64 {
	w := make([]float64, spec.poly.NumVars())
	for u, v := range spec.unitVars {
		failed := true
		for _, l := range spec.in.Failures.Units[u].Links {
			if !sc.Dead[l] {
				failed = false
				break
			}
		}
		if failed {
			w[v] = 1
		}
	}
	for l, v := range spec.xIdx {
		if sc.Dead[l] {
			w[v] = 1
		}
	}
	for tid, v := range spec.yIdx {
		if !sc.Alive(spec.in.Tunnels.Tunnel(tid).Path) {
			w[v] = 1
		}
	}
	for v, cond := range spec.conds {
		if cond.Holds(sc) {
			w[v] = 1
		} else {
			w[v] = 0
		}
	}
	return w
}

// seedScenarios returns the scenarios used to prime the cutting-plane
// master: no failure, plus each relevant failure unit failing alone.
func (spec *advSpec) seedScenarios() []failures.Scenario {
	out := []failures.Scenario{{Dead: map[topology.LinkID]bool{}}}
	if spec.in == nil {
		return out
	}
	// Seed with every unit the spec's polytope can see: these cover
	// the binding single-failure scenarios, so separation typically
	// converges within a round or two.
	unitSet := map[int]bool{}
	for u := range spec.unitVars {
		unitSet[u] = true
	}
	if len(unitSet) == 0 {
		// FFC-style specs have no explicit unit variables; derive the
		// relevant units from the tunnels' links.
		for tid := range spec.yIdx {
			for _, l := range uniqueLinks(spec.in.Tunnels.Tunnel(tid).Path) {
				for _, u := range spec.unitsOf[l] {
					unitSet[u] = true
				}
			}
		}
	}
	units := make([]int, 0, len(unitSet))
	for u := range unitSet {
		units = append(units, u)
	}
	sort.Ints(units)
	for _, u := range units {
		dead := map[topology.LinkID]bool{}
		for _, l := range spec.in.Failures.Units[u].Links {
			dead[l] = true
		}
		out = append(out, failures.Scenario{FailedUnits: []int{u}, Dead: dead})
	}
	return out
}

// masterVars holds what every pair's adversary is built against: the
// pairs whose tunnels enter the master and each pair's tunnel cap
// (tunnelsOf), the first-stage variable handles of the master LP, the
// solve's per-link death-unit index (deathUnitsOf), its pair → LSs
// index (lsIndex) and the workspace the pairs' polytopes share,
// minimized one at a time.
type masterVars struct {
	pairs   []topology.Pair
	perPair int
	unitsOf [][]int
	lss     map[topology.Pair]pairLSs
	ws      *lp.Workspace
	a       map[tunnels.ID]lp.Var
	b       map[LSID]lp.Var
	// zExpr returns the z_p·d_p expression for a pair (zero expression
	// for pairs with no demand).
	zExpr func(p topology.Pair) *lp.Expr
}

// tunnelsOf returns the tunnels of pair p that enter the master: its
// first perPair tunnels when perPair > 0, else all of them.
func (mv *masterVars) tunnelsOf(in *Instance, p topology.Pair) []tunnels.ID {
	tun := in.Tunnels.ForPair(p)
	if mv.perPair > 0 && len(tun) > mv.perPair {
		return tun[:mv.perPair]
	}
	return tun
}

// addCost accumulates a master-variable expression as the inner
// objective coefficient of adversary variable v.
func (spec *advSpec) addCost(v lp.AdvVar, e *lp.Expr) {
	for len(spec.costs) <= int(v) {
		spec.costs = append(spec.costs, nil)
	}
	if e != nil {
		if spec.costs[v] == nil {
			spec.costs[v] = lp.NewExpr()
		}
		spec.costs[v].AddExpr(1, e)
	}
}

// pad extends the cost slice to the polytope's variable count.
func (spec *advSpec) pad() {
	for len(spec.costs) < spec.poly.NumVars() {
		spec.costs = append(spec.costs, nil)
	}
}

// buildFFCAdversary builds FFC's failure set (paper eq. 5): up to
// f·p_st of the pair's tunnels fail, with no link-level structure.
func buildFFCAdversary(in *Instance, p topology.Pair, mv *masterVars) *advSpec {
	spec := &advSpec{
		pair:      p,
		in:        in,
		poly:      mv.ws.NewPolytope(),
		constPart: lp.NewExpr(),
		rhs:       lp.NewExpr(),
		unitsOf:   mv.unitsOf,
		xIdx:      map[topology.LinkID]lp.AdvVar{},
		yIdx:      map[tunnels.ID]lp.AdvVar{},
		hIdx:      map[LSID]lp.AdvVar{},
		unitVars:  map[int]lp.AdvVar{},
		conds:     map[lp.AdvVar]*Condition{},
	}
	tun := mv.tunnelsOf(in, p)
	budget := make([]lp.AdvTerm, 0, len(tun))
	for _, tid := range tun {
		y := spec.poly.AddVar()
		spec.yIdx[tid] = y
		spec.poly.AddUpperBound(y, 1)
		budget = append(budget, lp.AdvTerm{Var: y, Coeff: 1})
		spec.addCost(y, lp.NewExpr().Add(-1, mv.a[tid]))
		spec.constPart.Add(1, mv.a[tid])
	}
	pst := unitMaxShared(in, mv.unitsOf, tun)
	spec.poly.AddRow(budget, lp.LE, float64(in.Failures.Budget*pst))
	spec.rhs.AddExpr(1, mv.zExpr(p))
	spec.pad()
	return spec
}

// unitMaxShared generalizes FFC's p_st to failure units: the maximum
// number of the pair's tunnels that a single unit (link, SRLG, or
// node) can take down. For single-link units it equals
// tunnels.Set.MaxShared.
func unitMaxShared(in *Instance, unitsOf [][]int, tun []tunnels.ID) int {
	count := make(map[int]int)
	for _, tid := range tun {
		seen := map[int]bool{}
		for _, l := range uniqueLinks(in.Tunnels.Tunnel(tid).Path) {
			for _, u := range unitsOf[l] {
				if !seen[u] {
					seen[u] = true
					count[u]++
				}
			}
		}
	}
	best := 0
	for _, c := range count {
		if c > best {
			best = c
		}
	}
	return best
}

// baseLinkAdversary builds the PCF failure polytope (paper eq. 4,
// generalized to failure units for SRLGs and node failures): unit
// variables under the failure budget, link variables x tied to their
// units, and tunnel variables y tied to the links of the pair's
// tunnels. extraLinks lists links (e.g. condition links) that must have
// x variables even if no tunnel of the pair uses them. mv holds the
// tunnels' reservation variables, the solve's death-unit index and the
// polytopes' workspace.
func baseLinkAdversary(in *Instance, mv *masterVars, p topology.Pair, tun []tunnels.ID,
	extraLinks []topology.LinkID) *advSpec {

	unitsOf := mv.unitsOf
	spec := &advSpec{
		pair:      p,
		in:        in,
		poly:      mv.ws.NewPolytope(),
		constPart: lp.NewExpr(),
		rhs:       lp.NewExpr(),
		unitsOf:   unitsOf,
		xIdx:      map[topology.LinkID]lp.AdvVar{},
		yIdx:      map[tunnels.ID]lp.AdvVar{},
		hIdx:      map[LSID]lp.AdvVar{},
		unitVars:  map[int]lp.AdvVar{},
		conds:     map[lp.AdvVar]*Condition{},
	}
	poly := spec.poly

	// Relevant links: those on the pair's tunnels plus extras.
	// Restricting the adversary to these is exact: failing any other
	// link cannot affect this constraint.
	relevant := map[topology.LinkID]bool{}
	for _, tid := range tun {
		for _, l := range in.Tunnels.Tunnel(tid).Path.Links() {
			relevant[l] = true
		}
	}
	for _, l := range extraLinks {
		relevant[l] = true
	}
	relLinks := make([]topology.LinkID, 0, len(relevant))
	for l := range relevant {
		relLinks = append(relLinks, l)
	}
	sort.Slice(relLinks, func(i, j int) bool { return relLinks[i] < relLinks[j] })

	// Failure-unit variables for units touching relevant links. Only
	// death units appear: degrade units cannot kill links or tunnels,
	// so giving them adversary variables would only let a fractional
	// adversary spend budget without flow-side effect.
	unitVar := map[int]lp.AdvVar{}
	var budget []lp.AdvTerm
	for _, l := range relLinks {
		for _, u := range unitsOf[l] {
			if _, ok := unitVar[u]; !ok {
				s := poly.AddVar()
				unitVar[u] = s
				spec.unitVars[u] = s
				poly.AddUpperBound(s, 1)
				budget = append(budget, lp.AdvTerm{Var: s, Coeff: 1})
				spec.addCost(s, nil)
			}
		}
	}
	poly.AddRow(budget, lp.LE, float64(in.Failures.Budget))

	// Link failure variables tied to their units.
	for _, l := range relLinks {
		x := poly.AddVar()
		spec.xIdx[l] = x
		spec.addCost(x, nil)
		poly.AddUpperBound(x, 1)
		// x_e <= Σ_{u∋e} s_u: a link fails only if a containing unit fails.
		up := []lp.AdvTerm{{Var: x, Coeff: 1}}
		for _, u := range unitsOf[l] {
			up = append(up, lp.AdvTerm{Var: unitVar[u], Coeff: -1})
		}
		poly.AddRow(up, lp.LE, 0)
		// s_u <= x_e: a failed unit kills all its links.
		for _, u := range unitsOf[l] {
			poly.AddRow([]lp.AdvTerm{{Var: unitVar[u], Coeff: 1}, {Var: x, Coeff: -1}}, lp.LE, 0)
		}
	}

	// Whether any death unit groups several links (SRLGs, nodes).
	multiUnit := false
	for _, u := range in.Failures.Units {
		if u.Alpha <= 0 && len(u.Links) > 1 {
			multiUnit = true
			break
		}
	}

	// Tunnel failure variables (paper eq. 4).
	for _, tid := range tun {
		y := poly.AddVar()
		spec.yIdx[tid] = y
		spec.addCost(y, lp.NewExpr().Add(-1, mv.a[tid]))
		spec.constPart.Add(1, mv.a[tid])
		poly.AddUpperBound(y, 1)
		links := uniqueLinks(in.Tunnels.Tunnel(tid).Path)
		sum := []lp.AdvTerm{{Var: y, Coeff: 1}}
		for _, l := range links {
			x := spec.xIdx[l]
			// x_e - y_l <= 0: a dead link kills the tunnel.
			poly.AddRow([]lp.AdvTerm{{Var: x, Coeff: 1}, {Var: y, Coeff: -1}}, lp.LE, 0)
			sum = append(sum, lp.AdvTerm{Var: x, Coeff: -1})
		}
		// y_l - Σ x_e <= 0: a tunnel fails only via a link failure.
		poly.AddRow(sum, lp.LE, 0)
		if multiUnit {
			// Tightening for grouped failures: a tunnel fails only if
			// some UNIT touching it fails, and each unit can kill the
			// tunnel at most once however many of its links the tunnel
			// crosses: y_l <= Σ_{u: u ∩ τ_l ≠ ∅} s_u. Without this row
			// a fractional adversary could spread one failure budget
			// over the links of several units and take down disjoint
			// tunnels simultaneously.
			unitSeen := map[int]bool{}
			row := []lp.AdvTerm{{Var: y, Coeff: 1}}
			for _, l := range links {
				for _, u := range unitsOf[l] {
					if !unitSeen[u] {
						unitSeen[u] = true
						row = append(row, lp.AdvTerm{Var: unitVar[u], Coeff: -1})
					}
				}
			}
			poly.AddRow(row, lp.LE, 0)
		}
	}
	return spec
}

// conditionVar adds an adversary variable h for a condition with the
// appendix linearization of h = Π_{ξ} x_e · Π_{η} (1 - x_e). All links
// referenced by the condition must already have x variables. For the
// common single-dead-link condition the linearization collapses to
// h = x_e, so the link variable itself is returned.
func (spec *advSpec) conditionVar(cond *Condition) lp.AdvVar {
	if len(cond.AliveLinks) == 0 && len(cond.DeadLinks) == 1 {
		return spec.xIdx[cond.DeadLinks[0]]
	}
	poly := spec.poly
	h := poly.AddVar()
	spec.conds[h] = cond
	spec.addCost(h, nil)
	poly.AddUpperBound(h, 1)
	for _, l := range cond.AliveLinks {
		poly.AddRow([]lp.AdvTerm{{Var: h, Coeff: 1}, {Var: spec.xIdx[l], Coeff: 1}}, lp.LE, 1)
	}
	for _, l := range cond.DeadLinks {
		poly.AddRow([]lp.AdvTerm{{Var: h, Coeff: 1}, {Var: spec.xIdx[l], Coeff: -1}}, lp.LE, 0)
	}
	// (1-h) - Σ_{η} x_e - Σ_{ξ} (1-x_e) <= 0.
	row := []lp.AdvTerm{{Var: h, Coeff: -1}}
	for _, l := range cond.AliveLinks {
		row = append(row, lp.AdvTerm{Var: spec.xIdx[l], Coeff: -1})
	}
	for _, l := range cond.DeadLinks {
		row = append(row, lp.AdvTerm{Var: spec.xIdx[l], Coeff: 1})
	}
	poly.AddRow(row, lp.LE, float64(len(cond.DeadLinks))-1)
	return h
}

// buildPCFAdversary builds the adversary for the PCF-TF / PCF-LS /
// PCF-CLS family: the link-aware failure set plus condition variables
// for conditional LSs (appendix linearization); unconditional LSs fold
// into the constant parts.
func buildPCFAdversary(in *Instance, p topology.Pair, mv *masterVars) *advSpec {
	local, through := mv.lss[p].local, mv.lss[p].through

	var extra []topology.LinkID
	for _, qs := range [][]LSID{local, through} {
		for _, qid := range qs {
			if c := in.LSs[qid].Cond; c != nil {
				extra = append(extra, c.Links()...)
			}
		}
	}
	spec := baseLinkAdversary(in, mv, p, mv.tunnelsOf(in, p), extra)

	condVar := func(qid LSID) lp.AdvVar {
		if h, ok := spec.hIdx[qid]; ok {
			return h
		}
		h := spec.conditionVar(in.LSs[qid].Cond)
		spec.hIdx[qid] = h
		return h
	}
	for _, qid := range local {
		if in.LSs[qid].Cond == nil {
			spec.constPart.Add(1, mv.b[qid])
		} else {
			spec.addCost(condVar(qid), lp.NewExpr().Add(1, mv.b[qid]))
		}
	}
	for _, qid := range through {
		if in.LSs[qid].Cond == nil {
			spec.rhs.Add(1, mv.b[qid])
		} else {
			spec.addCost(condVar(qid), lp.NewExpr().Add(-1, mv.b[qid]))
		}
	}
	spec.rhs.AddExpr(1, mv.zExpr(p))
	spec.pad()
	return spec
}

func uniqueLinks(p topology.Path) []topology.LinkID {
	seen := map[topology.LinkID]bool{}
	var out []topology.LinkID
	for _, a := range p.Arcs {
		l := topology.LinkOf(a)
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}
