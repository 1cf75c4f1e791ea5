package core

import (
	"slices"
	"time"

	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/tol"
	"pcf/internal/topology"
)

// This file implements PCF-CLS by pricing. A master on an instance with
// conditional LSs starts as the LS master; each conditional LS q is a
// column of the pool, and the loop (iterate.loop) alternates separation
// with pricing until neither adds anything (DESIGN.md §11, "Pricing the
// pool").
//
// q's reservation b_q enters the robust row of q's own pair with +h and
// the row of each of its segments with -h, h being q's condition
// variable in that pair's adversary: a cut row r, the robust row at the
// adversary point w_r, holds b_q with coefficient ±w_r[h]. It holds no
// capacity row and nothing of the objective, so with y_r ≥ 0 the cut
// duals (cutDual) its reduced cost is
//
//	Σ_{r ∈ cuts of q's pair} y_r·w_r[h] − Σ_{segments s} Σ_{r ∈ cuts of s} y_r·w_r[h].
//
// A pair without cuts yet prices at 0. Columns whose reduced cost
// exceeds tol.Price enter, with the bypasses of their segments two
// levels deep, each with the pairs it brings: their tunnel
// columns, capacity rows for arcs no live tunnel crossed, and, once the
// round's columns are in, their seed cuts and the entry cuts of every
// column's segments (iterate.entryCuts). Every row a new pair brings
// holds only columns that just entered at 0, every existing row's value
// is unchanged by a column at 0, and an entry cut on a live pair is
// added only where the current point satisfies it, so the last basis
// stays primal feasible and the re-solve is warm primal simplex.

// pool is a master's conditional LSs, as columns pricing may enter.
type pool struct {
	cols  []poolCol
	colOf []int // per LS of the instance: its column, or -1
	// terms lists, per spec, the columns its robust row holds.
	terms [][]poolTerm
	// nVars counts the pool's template variables: every pool pair's
	// tunnels and every column.
	nVars int
	// The pool pairs' seed points, per spec from the first pool pair's
	// on, and whether buildPool has built their adversaries.
	seeds [][][]float64
	built bool
}

// poolCol is one conditional LS: its ID, its template variable and
// where each spec of its pair and segments holds it.
type poolCol struct {
	q  LSID
	v  lp.Var
	in []specTerm
}

type specTerm struct{ spec, term int }

// poolTerm is a pool column in one spec's robust row: the condition
// variable its reservation multiplies and the sign it enters with, +1
// in its own pair's row and -1 in a segment's.
type poolTerm struct {
	col  int
	h    lp.AdvVar
	sign float64
}

// cutRec is a cut row of a solve: its logical row, its expression over
// the LP's columns and the adversary point's weight on each of its
// spec's pool terms.
type cutRec struct {
	row  int
	expr *lp.Expr
	hw   []float64
}

// newPool numbers the pool's template variables from nModel on — the
// tunnels of poolPairs (ascending), then the conditional LSs in ID
// order — and records them in mv.
func newPool(in *Instance, mv *masterVars, poolPairs []topology.Pair, nModel int) pool {
	p := pool{colOf: make([]int, len(in.LSs))}
	next := nModel
	for _, pair := range poolPairs {
		for _, tid := range mv.tunnelsOf(in, pair) {
			mv.a[tid] = lp.Var(next)
			next++
		}
	}
	for _, q := range in.LSs {
		p.colOf[q.ID] = -1
		if q.Cond != nil {
			mv.b[q.ID] = lp.Var(next)
			p.colOf[q.ID] = len(p.cols)
			p.cols = append(p.cols, poolCol{q: q.ID, v: lp.Var(next)})
			next++
		}
	}
	p.nVars = next - nModel
	return p
}

// termsOf lists the pool columns spec's robust row holds: its pair's
// conditional LSs (+) and those it is a segment of (−).
func (p *pool) termsOf(mv *masterVars, spec *advSpec) []poolTerm {
	if p.colOf == nil {
		return nil
	}
	var out []poolTerm
	idx := mv.lss[spec.pair]
	for _, q := range idx.local {
		if c := p.colOf[q]; c >= 0 {
			out = append(out, poolTerm{col: c, h: spec.hIdx[q], sign: 1})
		}
	}
	for _, q := range idx.through {
		if c := p.colOf[q]; c >= 0 {
			out = append(out, poolTerm{col: c, h: spec.hIdx[q], sign: -1})
		}
	}
	return out
}

// record describes the cut of spec i at adversary point w, added as
// row with expression e.
func (p *pool) record(i, row int, e *lp.Expr, w []float64) cutRec {
	c := cutRec{row: row, expr: e}
	if terms := p.terms[i]; len(terms) > 0 {
		c.hw = make([]float64, len(terms))
		for t, pt := range terms {
			c.hw[t] = w[pt.h]
		}
	}
	return c
}

// buildPool builds the pool pairs' adversaries and seed points, and
// indexes every spec's pool terms by column. The first priced solve
// builds it, before its cut loop, and reports the time as build time.
func (ms *master) buildPool() error {
	start := time.Now()
	p := &ms.pool
	specs := make([]*advSpec, len(ms.poolPairs))
	seeds := make([][][]float64, len(ms.poolPairs))
	for k, pair := range ms.poolPairs {
		specs[k] = buildPCFAdversary(ms.in, pair, ms.mv)
		pts, err := specs[k].seedPoints()
		if err != nil {
			return err
		}
		seeds[k] = pts
	}
	for _, spec := range specs {
		p.terms = append(p.terms, p.termsOf(ms.mv, spec))
	}
	ms.specs, p.seeds = append(ms.specs, specs...), seeds
	for i, terms := range p.terms {
		for t, pt := range terms {
			c := &p.cols[pt.col]
			c.in = append(c.in, specTerm{spec: i, term: t})
		}
	}
	p.built = true
	ms.pending += time.Since(start)
	return nil
}

// iterate is one solve's state on a master: the clone of the seeded
// master it extends, the live specs (whose pairs have rows in it) and,
// when the master keeps its cuts, every cut row. With a built pool it
// also holds the LP column each entered pool variable got, which
// columns have entered and each arc's capacity row. The master keeps
// only its clone, for the next solve's to be written over.
type iterate struct {
	ms      *master
	cm      *lp.Compiled
	live    []int
	numCuts int
	cuts    [][]cutRec
	// ls is the LS iterate: the first master no cut separates.
	ls *lp.Solution

	lpOf    []lp.Var // per pool template variable, its LP variable or -1
	isLive  []bool
	entered []bool
	capRow  []int
	rc      []float64
	fresh   []int // specs activated this pricing round, due their seed cuts
}

// newIterate starts a solve on a fresh clone of the seeded master,
// written over the last solve's clone, which nothing reads any more.
func (ms *master) newIterate() *iterate {
	ms.clone = ms.seeded.CloneIn(ms.ws, ms.clone)
	it := &iterate{ms: ms, cm: ms.clone, live: ms.live0, numCuts: ms.seeds}
	if ms.seedCuts != nil {
		it.cuts = make([][]cutRec, len(ms.specs))
		for i, c := range ms.seedCuts {
			it.cuts[i] = c[:len(c):len(c)]
		}
	}
	if p := &ms.pool; p.built && len(p.cols) > 0 {
		it.live = append(make([]int, 0, len(ms.specs)), ms.live0...)
		it.lpOf = make([]lp.Var, p.nVars)
		for i := range it.lpOf {
			it.lpOf[i] = -1
		}
		it.isLive = make([]bool, len(ms.specs))
		for _, i := range ms.live0 {
			it.isLive[i] = true
		}
		it.entered = make([]bool, len(p.cols))
		it.rc = make([]float64, len(p.cols))
		it.capRow = append([]int(nil), ms.capRow...)
	}
	return it
}

// lpTerms rewrites e, over template variables, to the LP's columns in
// place: a model variable is its own column, an entered pool variable
// the column lpOf gives it, and a pool variable that has not entered,
// at 0, is dropped.
func lpTerms(e *lp.Expr, nModel int, lpOf []lp.Var) *lp.Expr {
	out := e.Terms[:0]
	for _, t := range e.Terms {
		if i := int(t.Var) - nModel; i >= 0 {
			if i >= len(lpOf) || lpOf[i] < 0 {
				continue
			}
			t.Var = lpOf[i]
		}
		out = append(out, t)
	}
	e.Terms = out
	return e
}

// value is template variable v's value in sol: 0 for a pool variable
// that has not entered.
func (it *iterate) value(sol *lp.Solution, v lp.Var) float64 {
	if i := int(v) - it.ms.nModel; i >= 0 {
		if i < len(it.lpOf) && it.lpOf[i] >= 0 {
			return sol.Value(it.lpOf[i])
		}
		return 0
	}
	return sol.Value(v)
}

// eval is sol.Eval over template variables.
func (it *iterate) eval(sol *lp.Solution, e *lp.Expr) float64 {
	total := e.Offset
	for _, t := range e.Terms {
		total += t.Coeff * it.value(sol, t.Var)
	}
	return total
}

// addCut appends the cut of spec i at adversary point w.
func (it *iterate) addCut(i int, w []float64) {
	it.addRow(i, lpTerms(it.ms.specs[i].cutExpr(w), it.ms.nModel, it.lpOf), w)
}

// addRow appends e ≥ 0, spec i's cut at w over the LP's columns.
func (it *iterate) addRow(i int, e *lp.Expr, w []float64) {
	row := it.cm.AddRow(e, lp.GE, 0)
	if it.cuts != nil {
		it.cuts[i] = append(it.cuts[i], it.ms.pool.record(i, row, e, w))
	}
	it.numCuts++
}

// cutDual is cut row's dual as pricing reads it, y ≥ 0 at an optimum:
// lp reports a binding ≥ row of a Maximize model at a dual ≤ 0.
func cutDual(sol *lp.Solution, row int) float64 { return -sol.Dual(row) }

// price computes every pool column's reduced cost at sol, a master no
// cut separates, and enters each whose reduced cost exceeds tol.Price,
// in column order, then the bypasses of their segments
// (enterSegmentBypasses), each with what it brings. It returns how many
// entered.
func (it *iterate) price(sol *lp.Solution) int {
	p := &it.ms.pool
	if len(p.cols) == 0 {
		return 0
	}
	clear(it.rc)
	for _, i := range it.live {
		terms := p.terms[i]
		if len(terms) == 0 {
			continue
		}
		for _, c := range it.cuts[i] {
			y := cutDual(sol, c.row)
			if y == 0 {
				continue
			}
			for t, pt := range terms {
				it.rc[pt.col] += y * pt.sign * c.hw[t]
			}
		}
	}
	var entered []int
	for c, rc := range it.rc {
		if !it.entered[c] && rc > tol.Price {
			it.enter(c)
			entered = append(entered, c)
		}
	}
	entered = it.enterSegmentBypasses(entered)
	for _, i := range it.fresh {
		for _, w := range p.seeds[i-len(it.ms.live0)] {
			it.addCut(i, w)
		}
	}
	it.fresh = it.fresh[:0]
	if len(entered) > 0 {
		it.entryCuts(sol, entered)
	}
	return len(entered)
}

// segmentDepth is how many levels of segment bypasses enter with a
// priced column (enterSegmentBypasses). The LS iterate's cut duals are
// degenerate: an entered bypass's segments bind and price the next
// bypass along the chain positive one pass later, with z unchanged.
// On btna-cls-f2, entering the chain ahead of time took the priced
// solve from 38 rounds and 35 pricing passes (52 columns) to 6 rounds
// and 3 passes (37 columns) at two levels; one level gave 8 rounds and
// 0.13 MB more allocation per solve, three entered 50 columns and
// allocated 0.25 MB more. Where no chain forms it costs rows and
// allocation, not passes: on the 1 000-node served instance 175
// bypasses enter instead of 15, over the same 2 passes, for 12 250
// rows instead of 10 328 and 2.24 MB per re-plan instead of 1.42, with
// re-plan times within noise of each other; on BTNorthAmerica's served
// instance 22 instead of 7 over 2 passes instead of 6, 0.40 MB instead
// of 0.26. Entering segments only for a priced column whose pair is a
// segment of an entered one (a chain seen) keeps those rows out but
// gives btna-cls-f2 20 to 23 rounds and 84 to 96 columns.
const segmentDepth = 2

// enterSegmentBypasses enters, segmentDepth levels deep, every pool
// column not yet entered whose pair is a segment of a column the level
// above entered (the first level's are entered, priced), in the order
// those columns and their segments list them, and returns entered with
// them appended. They enter at 0 whatever their reduced cost, many of
// them columns pricing would never enter. The master stays a
// restriction of the full pool, and optimality rests on pricing's stop
// rule over the columns not yet entered, which is unchanged.
func (it *iterate) enterSegmentBypasses(entered []int) []int {
	p := &it.ms.pool
	from := 0
	for range segmentDepth {
		to := len(entered)
		for _, c := range entered[from:to] {
			for _, seg := range it.ms.in.LSs[p.cols[c].q].Segments() {
				for _, q := range it.ms.mv.lss[seg].local {
					if d := p.colOf[q]; d >= 0 && !it.entered[d] {
						it.enter(d)
						entered = append(entered, d)
					}
				}
			}
		}
		from = to
	}
	return entered
}

// enter adds pool column c: first the pairs it brings, then its own
// column, with its coefficient in every cut row of its pairs.
func (it *iterate) enter(c int) {
	col := &it.ms.pool.cols[c]
	var terms []lp.ColTerm
	for _, st := range col.in {
		if !it.isLive[st.spec] {
			it.activate(st.spec)
			continue // no cuts yet
		}
		sign := it.ms.pool.terms[st.spec][st.term].sign
		for _, cut := range it.cuts[st.spec] {
			terms = append(terms, lp.ColTerm{Row: cut.row, Coeff: sign * cut.hw[st.term]})
		}
	}
	it.lpOf[int(col.v)-it.ms.nModel] = it.cm.AddColumn(0, terms)
	it.entered[c] = true
}

// activate makes spec i's pair live: its tunnels enter as columns in
// their arcs' capacity rows, an arc without one getting its row, and
// the pair's seed cuts are due once the round's columns are in.
func (it *iterate) activate(i int) {
	ms := it.ms
	for _, tid := range ms.mv.tunnelsOf(ms.in, ms.specs[i].pair) {
		arcs := ms.in.Tunnels.Tunnel(tid).Path.Arcs
		terms := make([]lp.ColTerm, len(arcs))
		for k, arc := range arcs {
			if it.capRow[arc] < 0 {
				it.capRow[arc] = it.cm.AddRow(lp.NewExpr(), lp.LE, arcCapacity(ms.in, arc))
			}
			terms[k] = lp.ColTerm{Row: it.capRow[arc], Coeff: 1}
		}
		it.lpOf[int(ms.mv.a[tid])-it.ms.nModel] = it.cm.AddColumn(0, terms)
	}
	it.isLive[i] = true
	it.live = append(it.live, i)
	it.fresh = append(it.fresh, i)
}

// entryCuts gives the segments of the bypasses that entered at sol
// their entry cuts. A bypass q conditioned on link l dead carries
// traffic only in scenarios that kill l, and there each segment's
// robust row must pass it: each segment gets a cut at l's failure
// joined with each other failure unit the segment's polytope sees,
// within the budget. Without them the re-solve would carry q on segment
// rows that have not seen those scenarios, and separation would take it
// back a round or more later. Every cut is a point of its polytope and
// holds at sol with the new columns at 0, so the basis stays primal
// feasible. Other conditions get no entry cuts.
func (it *iterate) entryCuts(sol *lp.Solution, entered []int) {
	p := &it.ms.pool
	fs := it.ms.in.Failures
	if fs.Budget < 2 {
		return
	}
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{}}
	for _, c := range entered {
		cond := it.ms.in.LSs[p.cols[c].q].Cond
		if len(cond.AliveLinks) != 0 || len(cond.DeadLinks) != 1 {
			continue
		}
		for _, st := range p.cols[c].in {
			spec := it.ms.specs[st.spec]
			us := spec.unitsOf[cond.DeadLinks[0]]
			if p.terms[st.spec][st.term].sign > 0 || len(us) == 0 {
				continue // q's own pair, or a link no unit kills
			}
			for _, u := range sortedUnits(spec) {
				if u == us[0] {
					continue
				}
				clear(sc.Dead)
				for _, units := range [2]int{us[0], u} {
					for _, l := range fs.Units[units].Links {
						sc.Dead[l] = true
					}
				}
				w := spec.scenarioPoint(sc)
				if !spec.poly.Contains(w, tol.Feas) {
					continue
				}
				if e := lpTerms(spec.cutExpr(w), it.ms.nModel, it.lpOf); sol.Eval(e) >= 0 {
					it.addRow(st.spec, e, w)
				}
			}
		}
	}
}

// sortedUnits lists the failure units spec's polytope has variables
// for, ascending.
func sortedUnits(spec *advSpec) []int {
	units := make([]int, 0, len(spec.unitVars))
	for u := range spec.unitVars {
		units = append(units, u)
	}
	slices.Sort(units)
	return units
}
