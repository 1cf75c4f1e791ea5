package lp

import (
	"slices"

	"pcf/internal/linsolve"
)

// The simplex keeps B⁻¹ as a Markowitz LU of the basis plus a
// product-form eta chain. B_k = B_0 · E_1 ⋯ E_k, so B_k⁻¹ v =
// E_k(⋯E_1(B_0⁻¹ v)) (FTRAN applies the LU solve then the etas in
// order) and cᵀB_k⁻¹ applies the transposed etas in reverse before the
// LU transpose solve (BTRAN). DESIGN.md §17.

// etaUpdate is one pivot's update: at row r with pivot dr; its
// off-pivot direction entries (Col = row index i≠r, Val = d[i]) are
// etaEnt[previous eta's end:end].
type etaUpdate struct {
	r   int
	dr  float64
	end int
}

// sparseFactor is a Compiled's factorization workspace: the linsolve
// workspace, the row-major copy of the basis it is fed, the eta arena
// and the solve scratch. Every operation refills them in place, so
// once the buffers have grown — during the first solve of the Compiled —
// refactor, update and the solves allocate nothing, in that solve or
// any later one. It holds no reference to the simplex state it serves:
// the operations that read the basis take the state as an argument.
type sparseFactor struct {
	fz linsolve.SparseFactorizer
	lu *linsolve.SparseLU // fz's factors of the last refactored basis

	// The basis by rows for fz.Factor: row i is rowEnt[rowPtr[i]:rowPtr[i+1]]
	// with Col the basis position. rowPtr has one spare slot for the
	// counting pass.
	rowPtr []int
	rowEnt []linsolve.SparseEntry

	etas   []etaUpdate
	etaEnt []linsolve.SparseEntry // truncated at refactor

	luNNZ int

	// m-sized scratch reused across operations (one solve at a time per
	// Compiled).
	rhs []float64
	w   []float64
}

// workspace returns the Compiled's factorization workspace sized to
// its current row count, creating it on the first solve. AddRow may
// have raised the count since the last solve, so the m-sized buffers
// are re-sliced here; no operation reads them before writing, and the
// factors and eta chain are rebuilt by reset or refactor before
// anything solves against them, so nothing carries over from one solve
// to the next but capacity. A Compiled solves one model at a time, and
// Clone hands the clone no workspace.
func (cm *Compiled) workspace() *sparseFactor {
	if cm.fac == nil {
		cm.fac = &sparseFactor{}
	}
	f, m := cm.fac, cm.nRows
	f.rowPtr = slices.Grow(f.rowPtr[:0], m+2)[:m+2]
	f.rhs = slices.Grow(f.rhs[:0], m)[:m]
	f.w = slices.Grow(f.w[:0], m)[:m]
	return f
}

// reset installs the factorization of st's cold-start basis, in which
// row i's column (its slack or its artificial) is ±e_i.
func (f *sparseFactor) reset(st *simplexState) {
	f.rowPtr[0] = 0
	f.rowEnt = f.rowEnt[:0]
	for i, j := range st.basis {
		f.rowPtr[i+1] = i + 1
		f.rowEnt = append(f.rowEnt, linsolve.SparseEntry{Col: i, Val: st.col(j)[0].val})
	}
	f.factorRows() // a diagonal of ±1 cannot fail to factor
}

// factorRows factors the basis rows in rowPtr/rowEnt and drops the
// eta chain.
func (f *sparseFactor) factorRows() bool {
	m := len(f.rhs)
	lu, err := f.fz.Factor(m, f.rowPtr[:m+1], f.rowEnt)
	if err != nil {
		return false
	}
	f.lu = lu
	f.luNNZ = lu.FactorNNZ()
	f.etas, f.etaEnt = f.etas[:0], f.etaEnt[:0]
	return true
}

// refactor rebuilds the factorization from st's current basis,
// returning false when the basis matrix is singular.
func (f *sparseFactor) refactor(st *simplexState) bool {
	m := st.m
	// Transpose the basis columns into rows by counting sort: count
	// row r into ptr[r+2], prefix-sum so ptr[r+1] is row r's start, then
	// place entries advancing ptr[r+1] to row r's end — row r+1's start.
	// Basis positions ascend within each row.
	ptr := f.rowPtr
	clear(ptr)
	for _, j := range st.basis {
		for _, e := range st.col(j) {
			ptr[e.row+2]++
		}
	}
	for r := 0; r < m; r++ {
		ptr[r+2] += ptr[r+1]
	}
	f.rowEnt = slices.Grow(f.rowEnt[:0], ptr[m+1])[:ptr[m+1]]
	for k, j := range st.basis {
		for _, e := range st.col(j) {
			f.rowEnt[ptr[e.row+1]] = linsolve.SparseEntry{Col: k, Val: e.val}
			ptr[e.row+1]++
		}
	}
	return f.factorRows()
}

// applyEtas folds the eta chain into a freshly LU-solved vector:
// v ← E_k(⋯E_1(v)).
func (f *sparseFactor) applyEtas(v []float64) {
	start := 0
	for _, e := range f.etas {
		nz := f.etaEnt[start:e.end]
		start = e.end
		p := v[e.r]
		if p == 0 {
			continue
		}
		p /= e.dr
		v[e.r] = p
		for _, z := range nz {
			v[z.Col] -= z.Val * p
		}
	}
}

// applyEtasT folds the transposed eta chain into a row vector, newest
// eta first — the BTRAN half: per eta,
// c_r ← (c_r − Σ_{i≠r} d_i·c_i) / d_r.
func (f *sparseFactor) applyEtasT(c []float64) {
	for t := len(f.etas) - 1; t >= 0; t-- {
		e, start := f.etas[t], 0
		if t > 0 {
			start = f.etas[t-1].end
		}
		s := c[e.r]
		for _, z := range f.etaEnt[start:e.end] {
			s -= z.Val * c[z.Col]
		}
		c[e.r] = s / e.dr
	}
}

// ftran computes d = B⁻¹·A_j for st's std column j (artificials
// included), dense output.
func (f *sparseFactor) ftran(st *simplexState, j int, d []float64) {
	st.colVec(j, f.rhs)
	// d = B₀⁻¹ rhs, then the eta chain.
	if err := f.lu.SolveIntoScratch(d, f.rhs, f.w); err != nil {
		// Cannot happen on a successfully factored basis with matching
		// lengths; zero output keeps downstream checks failing safely.
		for i := range d {
			d[i] = 0
		}
		return
	}
	f.applyEtas(d)
}

// btran computes y = costBᵀ·B⁻¹.
func (f *sparseFactor) btran(costB, y []float64) {
	copy(f.rhs, costB)
	f.applyEtasT(f.rhs)
	if err := f.lu.SolveTransposeIntoScratch(y, f.rhs, f.w); err != nil {
		for i := range y {
			y[i] = 0
		}
	}
}

// invRow copies row r of B⁻¹ into rho.
func (f *sparseFactor) invRow(r int, rho []float64) {
	for i := range f.rhs {
		f.rhs[i] = 0
	}
	f.rhs[r] = 1
	f.applyEtasT(f.rhs)
	if err := f.lu.SolveTransposeIntoScratch(rho, f.rhs, f.w); err != nil {
		for i := range rho {
			rho[i] = 0
		}
	}
}

// applyInv computes x = B⁻¹·rhs for a dense right-hand side.
func (f *sparseFactor) applyInv(rhs, x []float64) {
	if err := f.lu.SolveIntoScratch(x, rhs, f.w); err != nil {
		for i := range x {
			x[i] = 0
		}
		return
	}
	f.applyEtas(x)
}

// update folds the pivot with direction d = B⁻¹·A_enter at leaveRow
// into the eta chain.
func (f *sparseFactor) update(leaveRow int, d []float64) {
	for i, v := range d {
		if v != 0 && i != leaveRow {
			f.etaEnt = append(f.etaEnt, linsolve.SparseEntry{Col: i, Val: v})
		}
	}
	f.etas = append(f.etas, etaUpdate{r: leaveRow, dr: d[leaveRow], end: len(f.etaEnt)})
}

// shouldRefactor triggers a rebuild when the eta chain outgrows the
// LU factors it decorates. Both the chain length (apply overhead is
// per-eta) and its nonzero mass (apply cost is per-entry) gate. With a
// refactorization costing F and each eta adding a to every later
// iteration's FTRAN+BTRAN, a period of k pivots costs F/k + a·k/2 per
// iteration, least at k = √(2F/a). Measured on the 1000-node master
// (m = 5424: F ≈ 1.5 ms, a ≈ 3.8 µs, entering columns ~60 % dense)
// that is k ≈ 28; the nonzero gate fires at k ≈ 11, within 1.4× of the
// least cost and on the side that keeps the factors accurate
// (DESIGN.md §17).
func (f *sparseFactor) shouldRefactor() bool {
	m := len(f.rhs)
	if len(f.etas) >= 24+m/8 {
		return true
	}
	return len(f.etaEnt)+len(f.etas) > 2*f.luNNZ+m
}
