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
	terms []AdvTerm
	sense Sense
	rhs   float64
}

// Polytope describes the adversary's feasible region: variables are
// implicitly nonnegative; all other structure (upper bounds, budgets,
// coupling rows) is expressed as rows.
type Polytope struct {
	nVars int
	rows  []polyRow
	// cm is the rows lowered to standard form for Minimize: lowered on
	// its first call, re-costed on every solving one, dropped by AddVar
	// and AddRow with the saved answer below. It makes Minimize unsafe
	// for concurrent use on one Polytope.
	cm *Compiled
	// ws, when set, is the workspace cm solves in, shared with the
	// other Polytopes of ws.NewPolytope; nil gives cm its own.
	ws *Workspace
	// The last answer, allocated with cm at nVars each: the costs it
	// answers, its value and point, whether it is valid (a failed solve
	// leaves none), and out, the copy of the point Minimize returns.
	costs, w, out []float64
	value         float64
	saved         bool
	// solves counts the Minimize calls the simplex answered.
	solves int
}

// NewPolytope returns an empty adversary polytope.
func NewPolytope() *Polytope { return &Polytope{} }

// Workspace is the memory a solve runs in: the basis factorization,
// the simplex's state and its vectors. A Compiled grows its own on its
// first solve; Polytopes made by one Workspace's NewPolytope share
// that one instead, grown to the largest of them once rather than to
// each of them, so they must be minimized one at a time.
type Workspace struct{ fac sparseFactor }

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// NewPolytope returns an empty adversary polytope whose Minimize solves
// in ws.
func (ws *Workspace) NewPolytope() *Polytope { return &Polytope{ws: ws} }

// AddVar adds an adversary variable w >= 0.
func (p *Polytope) AddVar() AdvVar {
	p.cm = nil
	p.nVars++
	return AdvVar(p.nVars - 1)
}

// NumVars reports the number of adversary variables.
func (p *Polytope) NumVars() int { return p.nVars }

// NumRows reports the number of polytope rows.
func (p *Polytope) NumRows() int { return len(p.rows) }

// AddRow adds a linear row over adversary variables.
func (p *Polytope) AddRow(terms []AdvTerm, sense Sense, rhs float64) {
	p.cm = nil
	p.rows = append(p.rows, polyRow{terms: terms, sense: sense, rhs: rhs})
}

// AddUpperBound adds w <= ub as a row.
func (p *Polytope) AddUpperBound(v AdvVar, ub float64) {
	p.AddRow([]AdvTerm{{v, 1}}, LE, ub)
}

// RobustGE compiles the robust constraint
//
//	constPart + min_{w in p} sum_j costs[j]*w_j >= rhs
//
// into the master model. costs[j] may be nil, meaning zero cost for
// that adversary variable.
func RobustGE(m *Model, p *Polytope, costs []*Expr, constPart, rhs *Expr) {
	if len(costs) != p.NumVars() {
		//lint:ignore pcflint/nopanic documented dualization precondition; an arity mismatch is a bug in the adversary builder, not a data condition
		panic(fmt.Sprintf("lp: RobustGE: %d cost expressions for %d adversary vars",
			len(costs), p.NumVars()))
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
		duals[r] = m.AddVar(lo, hi)
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
	m.AddConstraint(g, GE, 0)

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
		m.AddConstraint(e, LE, 0)
	}
}

// Minimize solves min sum_j costs[j]*w_j over the polytope for numeric
// costs. It returns the optimal value and an optimal adversary point.
// This is the separation oracle used by the cutting-plane engine; it
// computes the same inner optimum that RobustGE dualizes.
//
// Only the cost row differs between calls, so the rows are lowered to
// standard form once; every solve starts cold, which makes its answer
// a function of the polytope and the costs alone, not of the calls
// before it. That is why a call whose costs equal the previous call's
// bit for bit (math.Float64bits) returns the previous answer without
// solving, and allocating nothing: a solve would reach the same value
// and point. AddVar and AddRow forget it. The costs are copied, so the
// caller may reuse its buffer.
//
// The returned point belongs to the Polytope and stays valid until the
// next Minimize, AddVar or AddRow on it; the caller may write to it
// meanwhile without changing a later answer. Minimize is not safe for
// concurrent use on one Polytope, nor on Polytopes sharing a
// Workspace: every call writes its costs into the rows the Polytope
// keeps lowered and solves in the workspace.
func (p *Polytope) Minimize(costs []float64) (float64, []float64, error) {
	if len(costs) != p.NumVars() {
		return 0, nil, fmt.Errorf("lp: Minimize: %d costs for %d vars", len(costs), p.NumVars())
	}
	if p.cm == nil {
		p.lower()
	} else if p.saved && sameBits(costs, p.costs) {
		copy(p.out, p.w)
		return p.value, p.out, nil
	}
	p.saved = false
	copy(p.costs, costs)
	p.cm.setMinimize(costs)
	p.solves++
	defer p.cm.release()
	st, status, _, err := p.cm.run(Options{})
	if err != nil {
		return 0, nil, err
	}
	switch status {
	case StatusOptimal:
	case StatusInfeasible:
		return 0, nil, fmt.Errorf("lp: adversary polytope is empty")
	default:
		return 0, nil, fmt.Errorf("lp: adversary subproblem %v", status)
	}
	st.values(p.w)
	p.value, p.saved = p.cm.objective(p.w), true
	copy(p.out, p.w)
	return p.value, p.out, nil
}

// Forget drops the saved answer, so the next Minimize solves whatever
// its costs. The answer it then returns is the one it would have
// reused: only Solves tells the two apart.
func (p *Polytope) Forget() { p.saved = false }

// Solves reports how many Minimize calls the simplex answered; the
// others returned the saved answer.
func (p *Polytope) Solves() int { return p.solves }

// lower lays the rows out in standard form, in the Polytope's
// workspace when it has one, and allocates the saved answer.
func (p *Polytope) lower() {
	cm := &Compiled{
		nModel:     p.nVars,
		nModelCons: len(p.rows),
		nLogical:   len(p.rows),
		obj:        &Expr{Terms: make([]Term, 0, p.nVars)},
		dir:        Minimize,
	}
	longest := 0
	for _, row := range p.rows {
		longest = max(longest, len(row.terms))
	}
	buf := make([]Term, 0, longest)
	cm.lower(nil, nil, func(i int) ([]Term, Sense, float64) {
		row := p.rows[i]
		buf = buf[:0]
		for _, t := range row.terms {
			buf = append(buf, Term{Var: Var(t.Var), Coeff: t.Coeff})
		}
		return buf, row.sense, row.rhs
	})
	if p.ws != nil {
		cm.fac = &p.ws.fac
	}
	p.cm = cm
	n := p.nVars
	answer := make([]float64, 3*n)
	p.costs, p.w, p.out = answer[:n:n], answer[n:2*n:2*n], answer[2*n:]
	p.saved = false
}

// sameBits reports whether a and b, of equal length, hold the same
// float64 bit patterns.
func sameBits(a, b []float64) bool {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
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
