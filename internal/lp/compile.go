package lp

import (
	"math"
	"slices"
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
// with AddRow, AddColumn and SetRowRHS without recompiling. A Compiled
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
	cm.lower(mod.lower, mod.upper, func(i int) ([]Term, Sense, float64) {
		con := mod.cons[i]
		return con.Expr.Terms, con.Sense, con.RHS
	})

	// Objective.
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

// rowFunc returns model row i of a lowering: its terms over model
// variables, its sense and its right-hand side (the expression's offset
// already folded in). The terms are read before the next call.
type rowFunc func(i int) ([]Term, Sense, float64)

// lower lays cm out in standard form: the columns of the model
// variables bounded by lo and hi (nil for both: every variable x ≥ 0),
// cm.nModelCons rows read from row, a bound row x' ≤ hi−lo per
// variable bounded on both sides, and one slack or surplus column per
// inequality row. It reads the rows twice, counting and then filling,
// so every array — each column's entries carved from one arena — is
// allocated once at its final length. Zero coefficients are dropped
// and a variable repeated in a row is merged into one entry in term
// order; Model rows arrive merged already (Expr.compact). The cost row
// is left zero.
func (cm *Compiled) lower(lo, hi []float64, row rowFunc) {
	bounds := func(v int) (float64, float64) {
		if lo == nil {
			return 0, math.Inf(1)
		}
		return lo[v], hi[v]
	}
	// Structural columns: a free variable takes two, x = x⁺ − x⁻; one
	// bounded only above is substituted x = hi − x'; any other one
	// x = lo + x', with a bound row when it is bounded above too.
	cm.refs = make([]colRef, cm.nModel)
	nStruct, nBound := 0, 0
	for v := range cm.refs {
		l, h := bounds(v)
		r := colRef{pos: nStruct, neg: -1}
		switch {
		case math.IsInf(l, -1) && math.IsInf(h, 1):
			r.neg = nStruct + 1
		case math.IsInf(l, -1):
			r.shift, r.inv = h, true
		default:
			r.shift = l
			if !math.IsInf(h, 1) {
				nBound++
			}
		}
		nStruct++
		if r.neg >= 0 {
			nStruct++
		}
		cm.refs[v] = r
	}

	// Counting pass: the entries of every structural column and the
	// slack columns, one entry each.
	nCons := cm.nModelCons
	count := make([]int, nStruct)
	nSlack, nnz := nBound, 2*nBound
	for i := 0; i < nCons; i++ {
		terms, sense, _ := row(i)
		for _, t := range terms {
			if t.Coeff == 0 {
				continue
			}
			r := cm.refs[t.Var]
			count[r.pos]++
			nnz++
			if r.neg >= 0 {
				count[r.neg]++
				nnz++
			}
		}
		if sense != EQ {
			nSlack++
			nnz++
		}
	}
	for v, r := range cm.refs {
		if l, h := bounds(v); !math.IsInf(l, -1) && !math.IsInf(h, 1) {
			count[r.pos]++
		}
	}

	nRows, nCols := nCons+nBound, nStruct+nSlack
	cm.nRows, cm.nCols = nRows, nCols
	cm.cols = make([][]entry, nCols)
	cm.ownCol = make([]bool, nCols)
	cm.maps = make([]varMap, nCols)
	cm.c = make([]float64, nCols)
	arena := make([]entry, nnz)
	for j := range cm.cols {
		n := 1 // a slack column's one entry
		if j < nStruct {
			n = count[j]
		}
		cm.cols[j], arena = arena[:0:n], arena[n:]
		cm.ownCol[j] = true
		cm.maps[j] = varMap{v: -1}
	}
	for v, r := range cm.refs {
		switch {
		case r.neg >= 0:
			cm.maps[r.pos] = varMap{v: Var(v), scale: 1}
			cm.maps[r.neg] = varMap{v: Var(v), scale: -1}
		case r.inv:
			cm.maps[r.pos] = varMap{v: Var(v), scale: -1, shift: r.shift}
		default:
			cm.maps[r.pos] = varMap{v: Var(v), scale: 1, shift: r.shift}
		}
	}
	cm.b = make([]float64, nRows)
	cm.rowOf = make([]int, nRows)
	cm.rowNeg = make([]bool, nRows)
	cm.rowSign = make([]float64, nRows)
	cm.rhsOff = make([]float64, nRows)
	cm.slack = make([]int, nRows)
	cm.stdRow = make([]int, nCons)
	cm.lrhs = make([]float64, nCons)

	// Filling pass, row by row, so every column lists its entries by
	// ascending row. b is normalized to b ≥ 0 by negating the row.
	slackCol := nStruct
	fill := func(ri int, terms []Term, sense Sense, rhs float64) {
		off := 0.0
		for _, t := range terms {
			off += t.Coeff * cm.refs[t.Var].shift
		}
		b, sgn := rhs-off, 1.0
		if b < 0 {
			b, sgn = -b, -1
			cm.rowNeg[ri] = true
		}
		cm.b[ri], cm.rowSign[ri], cm.rhsOff[ri] = b, sgn, off
		for _, t := range terms {
			if t.Coeff == 0 {
				continue
			}
			r := cm.refs[t.Var]
			v := sgn * t.Coeff
			if r.inv {
				v = -v
			}
			cm.place(r.pos, ri, v)
			if r.neg >= 0 {
				cm.place(r.neg, ri, -v)
			}
		}
		cm.slack[ri] = -1
		if sense != EQ {
			v := sgn
			if sense == GE {
				v = -v
			}
			cm.place(slackCol, ri, v)
			cm.slack[ri] = slackCol
			slackCol++
		}
	}
	for i := 0; i < nCons; i++ {
		terms, sense, rhs := row(i)
		fill(i, terms, sense, rhs)
		cm.rowOf[i], cm.stdRow[i], cm.lrhs[i] = i, i, rhs
	}
	ri := nCons
	for v, r := range cm.refs {
		if l, h := bounds(v); !math.IsInf(l, -1) && !math.IsInf(h, 1) {
			fill(ri, nil, LE, h-l)
			cm.place(r.pos, ri, cm.rowSign[ri])
			cm.rowOf[ri] = -1
			ri++
		}
	}
}

// place adds v at row r of std column j during lowering: to the entry
// already there when the row repeats a variable, dropping the entry if
// the sum is zero.
func (cm *Compiled) place(j, r int, v float64) {
	col := cm.cols[j]
	n := len(col)
	if n == 0 || col[n-1].row != r {
		cm.cols[j] = append(col, entry{row: r, val: v})
		return
	}
	if col[n-1].val += v; col[n-1].val == 0 {
		cm.cols[j] = col[:n-1]
	}
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

// ColTerm is a column's coefficient in one logical row (a model
// constraint or an appended row, numbered as AddRow returns them): the
// column-wise counterpart of a Term.
type ColTerm struct {
	Row   int
	Coeff float64
}

// AddColumn appends a variable x ≥ 0 to the compiled form without
// recompiling: objective coefficient obj and coefficient t.Coeff in each
// row t.Row, in the rows' model-space sense (as the row's expression
// would carry it). It returns the variable, numbered after every
// existing one, so Solution.Value reads it and later AddRow expressions
// may use it. The column enters nonbasic at zero, so a WarmStart basis
// captured before it stays a basis and stays primal feasible; the next
// warm Solve prices the column in with the primal simplex. A repeated
// row sums its coefficients. It is the compiled form's one column
// edit: a later edit of an existing column takes the same ColTerm list.
func (cm *Compiled) AddColumn(obj float64, terms []ColTerm) Var {
	v := Var(cm.nModel)
	j := cm.addCol(v, 1, 0)
	cm.nModel++
	cm.refs = append(cm.refs, colRef{pos: j, neg: -1})
	col := make([]entry, 0, len(terms))
	for _, t := range terms {
		if t.Coeff != 0 {
			r := cm.stdRow[t.Row]
			col = append(col, entry{row: r, val: cm.rowSign[r] * t.Coeff})
		}
	}
	slices.SortStableFunc(col, func(a, b entry) int { return a.row - b.row })
	merged := col[:0]
	for _, e := range col {
		if n := len(merged); n > 0 && merged[n-1].row == e.row {
			merged[n-1].val += e.val
			continue
		}
		merged = append(merged, e)
	}
	col = slices.DeleteFunc(merged, func(e entry) bool { return e.val == 0 })
	cm.cols[j] = col
	cm.nCols = len(cm.cols)
	if obj != 0 {
		// The objective expression is shared with clones: extend a copy.
		cm.obj = cm.obj.Clone().Add(obj, v)
		if cm.negObj {
			obj = -obj
		}
		cm.c[j] = obj
	}
	return v
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
// shifts left to the expression). The expression's terms are rewritten
// in their own backing, so a Compiled that is re-costed must not have
// been cloned: only a Polytope's rows are.
func (cm *Compiled) setMinimize(costs []float64) {
	cm.dir, cm.negObj = Minimize, false
	cm.obj.Terms = cm.obj.Terms[:0]
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
	d.refs = cm.refs[:len(cm.refs):len(cm.refs)] // AddColumn on the clone appends to a copy
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

// CloneIn is Clone with the clone's solves run in ws instead of a
// workspace of its own, so a caller that solves fresh clones of one
// Compiled, one at a time, reuses ws's capacity rather than growing a
// workspace per clone. A workspace carries nothing from one solve to
// the next but capacity, so the clone solves as Clone's would, pivot
// for pivot. Like the Polytopes of ws, the clone must not solve while
// another user of ws does.
func (cm *Compiled) CloneIn(ws *Workspace) *Compiled {
	d := cm.Clone()
	d.fac = &ws.fac
	return d
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
