// Package lp provides a self-contained linear programming toolkit: a
// model builder over numbered variables and linear constraints, a two-phase
// primal simplex solver, and a robust-constraint compiler that dualizes
// inner adversarial minimizations (the technique PCF's appendix uses to
// keep its failure-resilient models polynomial size).
//
// The package depends only on the standard library. It is designed for
// the moderately sized, highly structured LPs that arise in
// congestion-free traffic engineering: tens of thousands of nonzeros,
// thousands of rows. It is an exact simplex method (no interior point),
// so optimal bases and dual values are available.
package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Sense is the direction of a constraint row.
type Sense int8

const (
	// LE is a less-than-or-equal constraint.
	LE Sense = iota
	// GE is a greater-than-or-equal constraint.
	GE
	// EQ is an equality constraint.
	EQ
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Var identifies a decision variable in a Model.
type Var int

// Term is a coefficient applied to a variable.
type Term struct {
	Var   Var
	Coeff float64
}

// Expr is a linear expression: a sum of terms plus a constant offset.
type Expr struct {
	Terms  []Term
	Offset float64
}

// NewExpr builds an expression from alternating coefficient, variable
// pairs. It is a convenience for short hand-written expressions.
func NewExpr() *Expr { return &Expr{} }

// Add appends coeff*v to the expression and returns the expression to
// allow chaining.
func (e *Expr) Add(coeff float64, v Var) *Expr {
	if coeff != 0 {
		e.Terms = append(e.Terms, Term{Var: v, Coeff: coeff})
	}
	return e
}

// AddConst adds a constant to the expression.
func (e *Expr) AddConst(c float64) *Expr {
	e.Offset += c
	return e
}

// AddExpr appends all terms of other (scaled by coeff) to e.
func (e *Expr) AddExpr(coeff float64, other *Expr) *Expr {
	for _, t := range other.Terms {
		e.Add(coeff*t.Coeff, t.Var)
	}
	e.Offset += coeff * other.Offset
	return e
}

// Clone returns a deep copy of the expression.
func (e *Expr) Clone() *Expr {
	c := &Expr{Offset: e.Offset, Terms: make([]Term, len(e.Terms))}
	copy(c.Terms, e.Terms)
	return c
}

// compact merges duplicate variables and drops zero coefficients.
func (e *Expr) compact() {
	if len(e.Terms) < 2 {
		return
	}
	slices.SortFunc(e.Terms, func(a, b Term) int { return cmp.Compare(a.Var, b.Var) })
	out := e.Terms[:0]
	for _, t := range e.Terms {
		if n := len(out); n > 0 && out[n-1].Var == t.Var {
			out[n-1].Coeff += t.Coeff
		} else {
			out = append(out, t)
		}
	}
	trimmed := out[:0]
	for _, t := range out {
		if t.Coeff != 0 {
			trimmed = append(trimmed, t)
		}
	}
	e.Terms = trimmed
}

// Constraint is a single linear constraint LHS sense RHS.
type Constraint struct {
	Expr  *Expr
	Sense Sense
	RHS   float64
}

// Objective direction.
type Direction int8

const (
	// Minimize the objective.
	Minimize Direction = iota
	// Maximize the objective.
	Maximize
)

// Model is a linear program under construction. The zero value is not
// usable; create models with NewModel.
type Model struct {
	lower []float64
	upper []float64
	cons  []Constraint
	obj   *Expr
	dir   Direction
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{obj: &Expr{}} }

// NumVars reports the number of variables added so far.
func (m *Model) NumVars() int { return len(m.lower) }

// NumConstraints reports the number of constraint rows added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddVar adds a variable with the given bounds. Use math.Inf(1) for an
// unbounded-above variable.
func (m *Model) AddVar(lower, upper float64) Var {
	if lower > upper {
		//lint:ignore pcflint/nopanic documented model-builder precondition; bounds are authored in code, and a silently clamped model would solve the wrong LP
		panic(fmt.Sprintf("lp: variable %d has lower bound %g > upper bound %g", len(m.lower), lower, upper))
	}
	m.lower = append(m.lower, lower)
	m.upper = append(m.upper, upper)
	return Var(len(m.lower) - 1)
}

// AddNonNeg adds a variable bounded to [0, +inf).
func (m *Model) AddNonNeg() Var { return m.AddVar(0, math.Inf(1)) }

// Bounds returns the lower and upper bound of v.
func (m *Model) Bounds(v Var) (lo, hi float64) { return m.lower[v], m.upper[v] }

// AddConstraint adds expr sense rhs as a row and returns its index.
func (m *Model) AddConstraint(expr *Expr, sense Sense, rhs float64) int {
	e := expr.Clone()
	e.compact()
	// Fold the expression offset into the right-hand side.
	rhs -= e.Offset
	e.Offset = 0
	m.cons = append(m.cons, Constraint{Expr: e, Sense: sense, RHS: rhs})
	return len(m.cons) - 1
}

// Constraint returns row i as stored: duplicate variables merged and
// the expression's offset folded into RHS.
func (m *Model) Constraint(i int) Constraint { return m.cons[i] }

// SetObjective installs the objective expression and direction.
func (m *Model) SetObjective(expr *Expr, dir Direction) {
	e := expr.Clone()
	e.compact()
	m.obj = e
	m.dir = dir
}

// Objective returns the current objective expression and direction.
func (m *Model) Objective() (*Expr, Direction) { return m.obj, m.dir }

// Status of a solve.
type Status int8

const (
	// StatusOptimal means an optimal solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded in the
	// optimization direction.
	StatusUnbounded
	// StatusIterLimit means the iteration limit was exhausted.
	StatusIterLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution is the result of solving a Model.
type Solution struct {
	Status    Status
	Objective float64
	// Basis is the optimal simplex basis, set on StatusOptimal. Feed
	// it back through Options.WarmStart to seed a re-solve of the same
	// Compiled after RHS edits or appended rows.
	Basis *Basis
	// Stats reports solve statistics (iterations, timings, warm-start
	// outcome).
	Stats  SolveStats
	values []float64
	duals  []float64
}

// Value returns the optimal value of v.
func (s *Solution) Value(v Var) float64 {
	if int(v) >= len(s.values) {
		return 0
	}
	return s.values[v]
}

// Dual returns the dual value (shadow price) of constraint row i, in
// the sign convention of the original model: for a Maximize model, the
// dual of a binding <= row is >= 0.
func (s *Solution) Dual(i int) float64 {
	if i >= len(s.duals) {
		return 0
	}
	return s.duals[i]
}

// Eval evaluates an expression at the solution point.
func (s *Solution) Eval(e *Expr) float64 {
	total := e.Offset
	for _, t := range e.Terms {
		total += t.Coeff * s.Value(t.Var)
	}
	return total
}
