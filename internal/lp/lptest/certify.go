// Package lptest is test support for LP answers: an optimality
// certificate that uses nothing the solver computed except the answer
// itself.
package lptest

import (
	"fmt"
	"math"

	"pcf/internal/lp"
)

const tol = 1e-7

// Certify proves from first principles that sol is an optimal solution
// of m: the primal values satisfy every row and bound, the row duals
// have the signs their senses demand and leave no reduced cost pushing
// against an infinite bound, and the Lagrangian bound those duals give
// (bᵀy plus each reduced cost at the bound it favours) meets the primal
// objective. Only Solution.Value/Dual/Objective and the model are read —
// no basis, no factorization — so a wrong start basis, a stale factor
// or a mis-signed dual all fail here whatever path produced them.
//
// rhs, when non-nil, gives the rows' current right-hand sides (a
// Compiled's RowRHS after SetRowRHS edits). Rows appended to a Compiled
// are not part of m and cannot be certified.
func Certify(m *lp.Model, rhs func(row int) float64, sol *lp.Solution) error {
	if sol.Status != lp.StatusOptimal {
		return fmt.Errorf("status %v, not optimal", sol.Status)
	}
	obj, dir := m.Objective()
	// Duals are d(objective)/d(rhs) in the model's own direction; sgn
	// turns the sign rules into the minimization form.
	sgn := 1.0
	if dir == lp.Maximize {
		sgn = -1
	}
	d := make([]float64, m.NumVars()) // reduced costs c − Aᵀy
	for _, t := range obj.Terms {
		d[t.Var] += t.Coeff
	}
	bound := obj.Offset
	for i := 0; i < m.NumConstraints(); i++ {
		c := m.Constraint(i)
		b := c.RHS
		if rhs != nil {
			b = rhs(i)
		}
		lhs, y := sol.Eval(c.Expr), sol.Dual(i)
		if slack := tol * (1 + math.Abs(b)); (c.Sense != lp.GE && lhs > b+slack) || (c.Sense != lp.LE && lhs < b-slack) {
			return fmt.Errorf("primal infeasible: row %d has %g %v %g", i, lhs, c.Sense, b)
		}
		if (c.Sense == lp.GE && sgn*y < -tol) || (c.Sense == lp.LE && sgn*y > tol) {
			return fmt.Errorf("dual infeasible: %v row %d of a %v model has dual %g", c.Sense, i, dir, y)
		}
		bound += y * b
		for _, t := range c.Expr.Terms {
			d[t.Var] -= y * t.Coeff
		}
	}
	for j, dj := range d {
		lo, hi := m.Bounds(lp.Var(j))
		x := sol.Value(lp.Var(j))
		if x < lo-tol*(1+math.Abs(lo)) || x > hi+tol*(1+math.Abs(hi)) {
			return fmt.Errorf("primal infeasible: var %d = %g outside [%g, %g]", j, x, lo, hi)
		}
		// The Lagrangian takes each variable to the bound its reduced
		// cost favours; that bound must exist.
		at := lo
		if sgn*dj < 0 {
			at = hi
		}
		if math.IsInf(at, 0) {
			if math.Abs(dj) > tol {
				return fmt.Errorf("dual infeasible: var %d has reduced cost %g against an infinite bound", j, dj)
			}
			continue
		}
		bound += dj * at
	}
	if gap := math.Abs(sol.Objective - bound); gap > tol*(1+math.Abs(bound)) {
		return fmt.Errorf("duality gap %g: primal objective %.12g, dual bound %.12g", gap, sol.Objective, bound)
	}
	return nil
}
