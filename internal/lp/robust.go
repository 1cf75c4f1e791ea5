package lp

import (
	"fmt"
	"math"
)

// This file implements the dualization technique from PCF's appendix
// (and FFC/R3 before it) in a generic, reusable form. A robust
// constraint has the shape
//
//	constPart(m) + min_{w in P} sum_j costs_j(m) * w_j  >=  rhs(m)
//
// where m are master (first-stage) variables, w are adversary variables
// (failure indicators), and P is a bounded polytope over w >= 0. By LP
// duality the inner minimum equals max_{u dual-feasible} b'u, so the
// robust constraint is equivalent to the existence of dual multipliers
// u with
//
//	constPart(m) + b'u >= rhs(m)      (guarantee row)
//	A'u <= costs(m)                   (one row per adversary variable)
//
// with sign conventions per row sense. Compiling this way keeps the
// master LP polynomial in the network size even though P contains
// combinatorially many failure scenarios.

// AdvVar identifies an adversary variable in a Polytope.
type AdvVar int

// AdvTerm is a coefficient on an adversary variable.
type AdvTerm struct {
	Var   AdvVar
	Coeff float64
}

type polyRow struct {
	name  string
	terms []AdvTerm
	sense Sense
	rhs   float64
}

// Polytope describes the adversary's feasible region: variables are
// implicitly nonnegative; all other structure (upper bounds, budgets,
// coupling rows) is expressed as rows.
type Polytope struct {
	names []string
	rows  []polyRow
	// cm is the rows lowered to standard form for Minimize: compiled on
	// its first call, re-costed on every later one, dropped by AddVar and
	// AddRow. It makes Minimize unsafe for concurrent use on one
	// Polytope.
	cm *Compiled
}

// NewPolytope returns an empty adversary polytope.
func NewPolytope() *Polytope { return &Polytope{} }

// AddVar adds an adversary variable w >= 0.
func (p *Polytope) AddVar(name string) AdvVar {
	p.cm = nil
	p.names = append(p.names, name)
	return AdvVar(len(p.names) - 1)
}

// NumVars reports the number of adversary variables.
func (p *Polytope) NumVars() int { return len(p.names) }

// NumRows reports the number of polytope rows.
func (p *Polytope) NumRows() int { return len(p.rows) }

// AddRow adds a linear row over adversary variables.
func (p *Polytope) AddRow(name string, terms []AdvTerm, sense Sense, rhs float64) {
	p.cm = nil
	p.rows = append(p.rows, polyRow{name: name, terms: terms, sense: sense, rhs: rhs})
}

// AddUpperBound adds w <= ub as a row.
func (p *Polytope) AddUpperBound(v AdvVar, ub float64) {
	p.AddRow(p.names[v]+"<=ub", []AdvTerm{{v, 1}}, LE, ub)
}

// RobustGE compiles the robust constraint
//
//	constPart + min_{w in p} sum_j costs[j]*w_j >= rhs
//
// into the master model. costs[j] may be nil, meaning zero cost for
// that adversary variable. All introduced dual variables are prefixed
// with name for debuggability.
func RobustGE(m *Model, name string, p *Polytope, costs []*Expr, constPart, rhs *Expr) {
	if len(costs) != p.NumVars() {
		//lint:ignore pcflint/nopanic documented dualization precondition; an arity mismatch is a bug in the adversary builder, not a data condition
		panic(fmt.Sprintf("lp: RobustGE %s: %d cost expressions for %d adversary vars",
			name, len(costs), p.NumVars()))
	}
	// One dual variable per polytope row.
	duals := make([]Var, len(p.rows))
	for r, row := range p.rows {
		var lo, hi float64
		switch row.sense {
		case GE:
			lo, hi = 0, math.Inf(1)
		case LE:
			lo, hi = math.Inf(-1), 0
		case EQ:
			lo, hi = math.Inf(-1), math.Inf(1)
		}
		duals[r] = m.AddVar(fmt.Sprintf("%s.u[%s]", name, row.name), lo, hi)
	}
	// Guarantee row: constPart + sum_r rhs_r * u_r - rhs >= 0.
	g := NewExpr()
	if constPart != nil {
		g.AddExpr(1, constPart)
	}
	for r, row := range p.rows {
		g.Add(row.rhs, duals[r])
	}
	if rhs != nil {
		g.AddExpr(-1, rhs)
	}
	m.AddConstraint(name+".guarantee", g, GE, 0)

	// Dual feasibility: for each adversary var j, sum_r A_rj u_r <= costs_j.
	colTerms := make([][]Term, p.NumVars())
	for r, row := range p.rows {
		for _, t := range row.terms {
			colTerms[t.Var] = append(colTerms[t.Var], Term{Var: duals[r], Coeff: t.Coeff})
		}
	}
	for j := 0; j < p.NumVars(); j++ {
		e := &Expr{Terms: append([]Term(nil), colTerms[j]...)}
		if costs[j] != nil {
			e.AddExpr(-1, costs[j])
		}
		m.AddConstraint(fmt.Sprintf("%s.dual[%s]", name, p.names[j]), e, LE, 0)
	}
}

// Minimize solves min sum_j costs[j]*w_j over the polytope for numeric
// costs. It returns the optimal value and an optimal adversary point.
// This is the separation oracle used by the cutting-plane engine; it
// computes the same inner optimum that RobustGE dualizes. Only the cost
// row differs between calls, so the rows are compiled once; every call
// still solves cold, which makes its answer a function of the polytope
// and the costs alone, not of the calls before it. Minimize is not safe
// for concurrent use on one Polytope: every call writes its costs into
// the rows the Polytope keeps compiled.
func (p *Polytope) Minimize(costs []float64) (float64, []float64, error) {
	if len(costs) != p.NumVars() {
		return 0, nil, fmt.Errorf("lp: Minimize: %d costs for %d vars", len(costs), p.NumVars())
	}
	if p.cm == nil {
		m := NewModel()
		for _, name := range p.names {
			m.AddNonNeg(name) // model variable j is adversary variable j
		}
		for _, row := range p.rows {
			e := NewExpr()
			for _, t := range row.terms {
				e.Add(t.Coeff, Var(t.Var))
			}
			m.AddConstraint(row.name, e, row.sense, row.rhs)
		}
		m.SetObjective(NewExpr(), Minimize)
		p.cm = Compile(m)
	}
	p.cm.setMinimize(costs)
	sol, err := p.cm.Solve(Options{})
	if err != nil {
		return 0, nil, err
	}
	switch sol.Status {
	case StatusOptimal:
	case StatusInfeasible:
		return 0, nil, fmt.Errorf("lp: adversary polytope is empty")
	default:
		return 0, nil, fmt.Errorf("lp: adversary subproblem %v", sol.Status)
	}
	w := make([]float64, p.NumVars())
	for j := range w {
		w[j] = sol.Value(Var(j))
	}
	return sol.Objective, w, nil
}

// Contains reports whether the numeric point w satisfies every polytope
// row within tolerance. Used by tests and the scenario validators.
func (p *Polytope) Contains(w []float64, tolerance float64) bool {
	if len(w) != p.NumVars() {
		return false
	}
	for _, v := range w {
		if v < -tolerance {
			return false
		}
	}
	for _, row := range p.rows {
		s := 0.0
		for _, t := range row.terms {
			s += t.Coeff * w[t.Var]
		}
		switch row.sense {
		case LE:
			if s > row.rhs+tolerance {
				return false
			}
		case GE:
			if s < row.rhs-tolerance {
				return false
			}
		case EQ:
			if math.Abs(s-row.rhs) > tolerance {
				return false
			}
		}
	}
	return true
}
