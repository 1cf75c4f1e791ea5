package lp

import (
	"math"
	"time"
)

// This file implements the compiled form of a model: the sparse
// standard-form layout min c'x, Ax=b, x>=0 that the simplex actually
// runs on. Compiling once and re-solving many times is the core of
// the warm-start pipeline (DESIGN.md §11): the cut-generation loop
// appends rows to one Compiled across rounds, and the mcf scenario
// sweep re-solves one Compiled per scenario by toggling row RHS
// values — in both cases reusing the previous optimal basis instead
// of rebuilding everything from scratch.

type entry struct {
	row int
	val float64
}

// varMap records how a standard-form column maps back to a model var.
type varMap struct {
	v     Var     // model variable, or -1 for slack/surplus/artificial
	scale float64 // +1 or -1 (negative part of a free variable)
	shift float64 // added to recover the model value
}

// colRef records where a model variable landed in the standard form,
// retained so rows can be appended after compilation.
type colRef struct {
	pos   int     // column index of the positive part
	neg   int     // column of the negative part for free vars, else -1
	shift float64 // substitution shift (lower bound, or upper for x<=hi)
	inv   bool    // substituted x = shift - x' (upper bound only)
}

// Compiled is a model lowered to sparse standard form. It is produced
// by Compile, solved (repeatedly) with Solve, and extended in place
// with AddRow and SetRowRHS without recompiling. A Compiled
// is not safe for concurrent mutation or solving; use Clone to give
// each worker its own view (clones share the immutable column data
// copy-on-write).
type Compiled struct {
	nRows int // standard-form rows
	nCols int // standard-form columns (structural + slack/surplus)

	cols   [][]entry // CSC: nonzeros of each column
	ownCol []bool    // whether cols[j]'s backing is exclusive to this clone
	b      []float64 // standard-form RHS (>= 0 at compile; RHS edits may break that)
	c      []float64 // standard-form objective
	maps   []varMap
	refs   []colRef

	rowOf   []int     // logical row per std row, or -1 for bound rows
	rowNeg  []bool    // whether the row was negated to make b >= 0
	rowSign []float64 // dual sign conversion per std row
	rhsOff  []float64 // substitution shift folded out of the logical RHS, pre-negation
	slack   []int     // slack/surplus column per std row, or -1 for EQ rows
	stdRow  []int     // std row per logical row
	lrhs    []float64 // current model-space RHS per logical row

	nLogical   int // model constraint rows plus appended rows
	nModelCons int // constraint rows present at compile time

	negObj   bool
	objConst float64
	nModel   int // model variable count
	obj      *Expr
	dir      Direction

	// fac is the basis-factorization workspace every Solve of this
	// Compiled runs in (see workspace); nil until the first solve.
	fac *sparseFactor

	// CompileTime is how long Compile took; surfaced via SolveStats.
	CompileTime time.Duration
}

// rowTerm is a coefficient on a standard-form column while a row is
// being assembled.
type rowTerm struct {
	col int
	v   float64
}

// Compile lowers the model to standard form. The model may keep being
// used (and solved cold) afterwards; the Compiled form does not alias
// its expressions. Constraints added to the model after Compile are
// not seen — extend the Compiled with AddRow instead.
func Compile(mod *Model) *Compiled {
	start := time.Now()
	cm := &Compiled{
		nModel:     mod.NumVars(),
		nModelCons: mod.NumConstraints(),
		nLogical:   mod.NumConstraints(),
		obj:        mod.obj.Clone(),
		dir:        mod.dir,
	}
	cm.refs = make([]colRef, mod.NumVars())

	for i := 0; i < mod.NumVars(); i++ {
		lo, hi := mod.lower[i], mod.upper[i]
		r := colRef{neg: -1}
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			r.pos = cm.addCol(Var(i), 1, 0)
			r.neg = cm.addCol(Var(i), -1, 0)
		case math.IsInf(lo, -1):
			// x <= hi: substitute x = hi - x', x' >= 0.
			r.pos = cm.addCol(Var(i), -1, hi)
			r.shift = hi
			r.inv = true
		default:
			// x >= lo: substitute x = lo + x'.
			r.pos = cm.addCol(Var(i), 1, lo)
			r.shift = lo
		}
		cm.refs[i] = r
	}
	// Upper bounds of range variables become explicit x' <= hi-lo rows
	// after the model rows; remember which variables need one.
	type ubRow struct {
		col int
		rhs float64
	}
	var ubs []ubRow
	for i := 0; i < mod.NumVars(); i++ {
		lo, hi := mod.lower[i], mod.upper[i]
		if !math.IsInf(lo, -1) && !math.IsInf(hi, 1) {
			ubs = append(ubs, ubRow{col: cm.refs[i].pos, rhs: hi - lo})
		}
	}

	rows := make([][]rowTerm, 0, cm.nModelCons+len(ubs))
	senses := make([]Sense, 0, cm.nModelCons+len(ubs))
	for ri, con := range mod.cons {
		terms, off := cm.stdTerms(con.Expr)
		cm.b = append(cm.b, con.RHS-off)
		cm.rowOf = append(cm.rowOf, ri)
		cm.rhsOff = append(cm.rhsOff, off)
		cm.stdRow = append(cm.stdRow, ri)
		cm.lrhs = append(cm.lrhs, con.RHS)
		rows = append(rows, terms)
		senses = append(senses, con.Sense)
	}
	for _, ub := range ubs {
		cm.b = append(cm.b, ub.rhs)
		cm.rowOf = append(cm.rowOf, -1)
		cm.rhsOff = append(cm.rhsOff, 0)
		rows = append(rows, []rowTerm{{ub.col, 1}})
		senses = append(senses, LE)
	}

	// Slack / surplus columns; then normalize b >= 0.
	cm.slack = make([]int, len(rows))
	for ri := range rows {
		cm.slack[ri] = -1
		switch senses[ri] {
		case LE:
			sc := cm.addCol(-1, 0, 0)
			rows[ri] = append(rows[ri], rowTerm{sc, 1})
			cm.slack[ri] = sc
		case GE:
			sc := cm.addCol(-1, 0, 0)
			rows[ri] = append(rows[ri], rowTerm{sc, -1})
			cm.slack[ri] = sc
		}
	}
	cm.nRows = len(rows)
	cm.nCols = len(cm.cols)
	cm.rowNeg = make([]bool, cm.nRows)
	cm.rowSign = make([]float64, cm.nRows)
	for ri := range rows {
		sign := 1.0
		if cm.b[ri] < 0 {
			cm.b[ri] = -cm.b[ri]
			cm.rowNeg[ri] = true
			sign = -1.0
			for k := range rows[ri] {
				rows[ri][k].v = -rows[ri][k].v
			}
		}
		cm.rowSign[ri] = sign
		for _, t := range rows[ri] {
			if t.v != 0 {
				cm.cols[t.col] = append(cm.cols[t.col], entry{row: ri, val: t.v})
			}
		}
	}

	// Objective.
	cm.c = make([]float64, cm.nCols)
	objConst := mod.obj.Offset
	neg := mod.dir == Maximize
	cm.negObj = neg
	for _, t := range mod.obj.Terms {
		coeff := t.Coeff
		if neg {
			coeff = -coeff
		}
		r := cm.refs[t.Var]
		if r.inv {
			objConst += sign(neg) * t.Coeff * r.shift
			cm.c[r.pos] += -coeff
		} else {
			objConst += sign(neg) * t.Coeff * r.shift
			cm.c[r.pos] += coeff
		}
		if r.neg >= 0 {
			cm.c[r.neg] += -coeff
		}
	}
	cm.objConst = objConst
	cm.CompileTime = time.Since(start)
	return cm
}

func (cm *Compiled) addCol(v Var, scale, shift float64) int {
	cm.cols = append(cm.cols, nil)
	cm.ownCol = append(cm.ownCol, true)
	cm.maps = append(cm.maps, varMap{v: v, scale: scale, shift: shift})
	if cm.c != nil { // post-compile (AddRow): keep the cost vector in step
		cm.c = append(cm.c, 0)
	}
	return len(cm.cols) - 1
}

// stdTerms maps a model expression (offset already folded into the
// RHS by the caller) onto standard-form columns and returns the RHS
// adjustment from the bound substitutions.
func (cm *Compiled) stdTerms(e *Expr) ([]rowTerm, float64) {
	terms := make([]rowTerm, 0, len(e.Terms)+1)
	off := 0.0
	for _, t := range e.Terms {
		r := cm.refs[t.Var]
		if r.inv { // substituted x = hi - x'
			off += t.Coeff * r.shift
			terms = append(terms, rowTerm{r.pos, -t.Coeff})
		} else {
			off += t.Coeff * r.shift
			terms = append(terms, rowTerm{r.pos, t.Coeff})
		}
		if r.neg >= 0 {
			terms = append(terms, rowTerm{r.neg, -t.Coeff})
		}
	}
	return terms, off
}

// ensureOwn makes column j's backing exclusive to this clone before
// it is appended to (copy-on-write for Cloned views).
func (cm *Compiled) ensureOwn(j int) {
	if cm.ownCol[j] {
		return
	}
	cm.cols[j] = append([]entry(nil), cm.cols[j]...)
	cm.ownCol[j] = true
}

// AddRow appends a constraint row to the compiled form without
// recompiling and returns its logical row index (continuing the
// model's constraint numbering, e.g. for Solution.Dual). The next
// Solve with a WarmStart basis captured before the append starts the
// new rows on their slack, so only the incremental work is re-done; an
// EQ row starts on a signed artificial, and one the basis leaves
// carrying value sends the solve cold.
func (cm *Compiled) AddRow(expr *Expr, sense Sense, rhs float64) int {
	e := expr.Clone()
	e.compact()
	rhs -= e.Offset
	terms, off := cm.stdTerms(e)
	r := cm.nRows
	slackCol := -1
	switch sense {
	case LE:
		slackCol = cm.addCol(-1, 0, 0)
		terms = append(terms, rowTerm{slackCol, 1})
	case GE:
		slackCol = cm.addCol(-1, 0, 0)
		terms = append(terms, rowTerm{slackCol, -1})
	}
	bval := rhs - off
	neg := bval < 0
	rsign := 1.0
	if neg {
		bval = -bval
		rsign = -1
		for k := range terms {
			terms[k].v = -terms[k].v
		}
	}
	logical := cm.nLogical
	cm.b = append(cm.b, bval)
	cm.rowOf = append(cm.rowOf, logical)
	cm.rowNeg = append(cm.rowNeg, neg)
	cm.rowSign = append(cm.rowSign, rsign)
	cm.rhsOff = append(cm.rhsOff, off)
	cm.slack = append(cm.slack, slackCol)
	cm.stdRow = append(cm.stdRow, r)
	cm.lrhs = append(cm.lrhs, rhs)
	for _, t := range terms {
		if t.v != 0 {
			cm.ensureOwn(t.col)
			cm.cols[t.col] = append(cm.cols[t.col], entry{row: r, val: t.v})
		}
	}
	cm.nRows++
	cm.nCols = len(cm.cols)
	cm.nLogical++
	return logical
}

// SetRowRHS changes the right-hand side of logical row i in place.
// The standard-form RHS may go negative; cold starts pick each row's
// slack or a signed artificial by the sign they find, and warm starts
// restore feasibility with the dual simplex, so no recompilation or
// row renegation happens here.
func (cm *Compiled) SetRowRHS(i int, rhs float64) {
	r := cm.stdRow[i]
	v := rhs - cm.rhsOff[r]
	if cm.rowNeg[r] {
		v = -v
	}
	cm.b[r] = v
	cm.lrhs[i] = rhs
}

// setMinimize replaces the objective by min Σ_v costs[v]·x_v over the
// model variables, in place: the standard-form cost row and the
// expression solutions are valued by, laid out as Compile would from a
// model carrying that objective (zero coefficients dropped, bound
// shifts left to the expression). The expression is a new one: clones
// share the old.
func (cm *Compiled) setMinimize(costs []float64) {
	cm.dir, cm.negObj = Minimize, false
	cm.obj = &Expr{Terms: make([]Term, 0, len(costs))}
	clear(cm.c)
	for v, coeff := range costs {
		if coeff == 0 {
			continue
		}
		cm.obj.Terms = append(cm.obj.Terms, Term{Var: Var(v), Coeff: coeff})
		r := cm.refs[v]
		if r.inv {
			coeff = -coeff
		}
		cm.c[r.pos] += coeff
		if r.neg >= 0 {
			cm.c[r.neg] -= coeff
		}
	}
}

// multiEntryNNZ counts the nonzeros of the std columns with two or more
// entries: the most a basis's kernel columns can hold between them.
func (cm *Compiled) multiEntryNNZ() int {
	n := 0
	for _, col := range cm.cols {
		if len(col) > 1 {
			n += len(col)
		}
	}
	return n
}

// RowRHS reports the current model-space RHS of logical row i.
func (cm *Compiled) RowRHS(i int) float64 { return cm.lrhs[i] }

// NumRows reports the number of logical rows (model constraints plus
// appended rows).
func (cm *Compiled) NumRows() int { return cm.nLogical }

// Clone returns an independently mutable view sharing the immutable
// column data (copied lazily if the clone appends rows). Cloning is
// how the parallel scenario sweep gives each worker its own RHS
// vector and basis without duplicating the matrix. The source must
// not be mutated while clones are in use.
func (cm *Compiled) Clone() *Compiled {
	d := *cm
	d.cols = append([][]entry(nil), cm.cols...)
	d.ownCol = make([]bool, len(cm.cols))
	d.b = append([]float64(nil), cm.b...)
	d.c = append([]float64(nil), cm.c...)
	d.maps = append([]varMap(nil), cm.maps...)
	d.rowOf = append([]int(nil), cm.rowOf...)
	d.rowNeg = append([]bool(nil), cm.rowNeg...)
	d.rowSign = append([]float64(nil), cm.rowSign...)
	d.rhsOff = append([]float64(nil), cm.rhsOff...)
	d.slack = append([]int(nil), cm.slack...)
	d.stdRow = append([]int(nil), cm.stdRow...)
	d.lrhs = append([]float64(nil), cm.lrhs...)
	d.fac = nil // the clone may solve concurrently with cm: it grows its own workspace
	return &d
}

// Basis identifies the basic column of every standard-form row of a
// solved Compiled. It is captured on optimal solutions (Solution.
// Basis) and fed back through Options.WarmStart; a basis stays valid
// across SetRowRHS edits and AddRow appends on the same Compiled (rows
// appended after capture start on their slack or an artificial).
type Basis struct {
	cols  []int // basic std column per row; -(r+1) encodes row r's artificial
	nRows int
}
