package lp

import (
	"math"
	"slices"

	"pcf/internal/linsolve"
)

// Factorization selects the basis-factorization backend of the revised
// simplex.
type Factorization int

const (
	// FactorAuto picks dense for small bases and sparse above
	// sparseFactorMin rows — paper-scale instances keep the dense
	// trajectory exactly, synthetic 1k+-node instances get the sparse
	// core.
	FactorAuto Factorization = iota
	// FactorDense forces the dense m×m basis inverse with product-form
	// updates.
	FactorDense
	// FactorSparse forces the sparse Markowitz LU with an eta update
	// chain.
	FactorSparse
)

// sparseFactorMin is the basis-row count at which FactorAuto switches
// to the sparse factorization. A package variable so the equivalence
// tests can force the crossover onto small instances.
var sparseFactorMin = 512

// factorizer abstracts how the simplex represents B⁻¹. The dense
// implementation is the original explicit inverse with product-form
// row updates; the sparse one stores Markowitz LU factors plus an eta
// chain. All methods are in terms of the owning state's current basis.
type factorizer interface {
	// reset installs the factorization of the cold-start basis, in
	// which row i's column (its slack or its artificial) is ±e_i,
	// without touching fault hooks.
	reset()
	// refactor rebuilds the factorization from the current basis,
	// returning false when the basis matrix is singular.
	refactor() bool
	// ftran computes d = B⁻¹·A_j for std column j (artificials
	// included), dense output.
	ftran(j int, d []float64)
	// btran computes y = costBᵀ·B⁻¹.
	btran(costB, y []float64)
	// invRow copies row r of B⁻¹ into rho.
	invRow(r int, rho []float64)
	// applyInv computes x = B⁻¹·rhs for a dense right-hand side.
	applyInv(rhs, x []float64)
	// update folds the pivot with direction d = B⁻¹·A_enter at leaveRow
	// into the factorization.
	update(leaveRow int, d []float64)
	// negateRow flips row i of B⁻¹ in place, reporting false when the
	// representation cannot (the caller refactorizes instead).
	negateRow(i int) bool
	// shouldRefactor reports that accumulated updates grew past the
	// representation's cheap-apply regime (eta-chain length or fill),
	// asking the driving loop for a rebuild ahead of RefactorEvery.
	shouldRefactor() bool
	// stats reports basis nonzeros, factor nonzeros, and the current
	// update-chain length for SolveStats telemetry. Zeros for dense.
	stats() (basisNNZ, factorNNZ, etaLen int)
}

// ---------------------------------------------------------------------
// Dense: explicit m×m inverse, product-form updates. This is the
// original simplex core, kept operation-for-operation identical so the
// dense path stays bit-compatible.

type denseFactor struct {
	st   *simplexState
	binv []float64 // m x m row-major dense basis inverse
}

func newDenseFactor(st *simplexState) *denseFactor {
	return &denseFactor{st: st, binv: make([]float64, st.m*st.m)}
}

func (f *denseFactor) reset() {
	m := f.st.m
	for i := range f.binv {
		f.binv[i] = 0
	}
	for i, j := range f.st.basis {
		f.binv[i*m+i] = f.st.col(j)[0].val // ±1 is its own inverse
	}
}

func (f *denseFactor) refactor() bool {
	st := f.st
	m := st.m
	// Build dense basis matrix a (m x m) augmented with identity.
	a := make([]float64, m*m)
	col := make([]float64, m)
	for k, j := range st.basis {
		st.colVec(j, col)
		for i := 0; i < m; i++ {
			a[i*m+k] = col[i]
		}
	}
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	for c := 0; c < m; c++ {
		// Partial pivot.
		p, best := -1, 0.0
		for r := c; r < m; r++ {
			if v := math.Abs(a[r*m+c]); v > best {
				best, p = v, r
			}
		}
		if p < 0 || best < 1e-12 {
			return false
		}
		if p != c {
			for j := 0; j < m; j++ {
				a[p*m+j], a[c*m+j] = a[c*m+j], a[p*m+j]
				inv[p*m+j], inv[c*m+j] = inv[c*m+j], inv[p*m+j]
			}
		}
		pv := a[c*m+c]
		ipv := 1 / pv
		for j := 0; j < m; j++ {
			a[c*m+j] *= ipv
			inv[c*m+j] *= ipv
		}
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			f := a[r*m+c]
			if f == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				a[r*m+j] -= f * a[c*m+j]
				inv[r*m+j] -= f * inv[c*m+j]
			}
		}
	}
	copy(f.binv, inv)
	return true
}

func (f *denseFactor) ftran(j int, d []float64) {
	st := f.st
	m := st.m
	for i := range d {
		d[i] = 0
	}
	if j >= st.cm.nCols {
		r := j - st.cm.nCols
		s := st.artSign[r]
		for i := 0; i < m; i++ {
			d[i] = f.binv[i*m+r] * s
		}
		return
	}
	for _, e := range st.cm.cols[j] {
		if e.val == 0 {
			continue
		}
		col := e.row
		v := e.val
		for i := 0; i < m; i++ {
			d[i] += f.binv[i*m+col] * v
		}
	}
}

func (f *denseFactor) btran(costB, y []float64) {
	m := f.st.m
	for j := 0; j < m; j++ {
		y[j] = 0
	}
	for i := 0; i < m; i++ {
		cb := costB[i]
		if cb == 0 {
			continue
		}
		row := f.binv[i*m : i*m+m]
		for j := 0; j < m; j++ {
			y[j] += cb * row[j]
		}
	}
}

func (f *denseFactor) invRow(r int, rho []float64) {
	m := f.st.m
	copy(rho, f.binv[r*m:r*m+m])
}

func (f *denseFactor) applyInv(rhs, x []float64) {
	m := f.st.m
	for i := 0; i < m; i++ {
		s := 0.0
		row := f.binv[i*m : i*m+m]
		for j := 0; j < m; j++ {
			s += row[j] * rhs[j]
		}
		x[i] = s
	}
}

func (f *denseFactor) update(leaveRow int, d []float64) {
	m := f.st.m
	// Row ops making column d into e_leaveRow: multiply binv by the
	// pivot's eta matrix.
	ip := 1 / d[leaveRow]
	lrow := f.binv[leaveRow*m : leaveRow*m+m]
	for j := 0; j < m; j++ {
		lrow[j] *= ip
	}
	for i := 0; i < m; i++ {
		if i == leaveRow {
			continue
		}
		fc := d[i]
		if fc == 0 {
			continue
		}
		row := f.binv[i*m : i*m+m]
		for j := 0; j < m; j++ {
			row[j] -= fc * lrow[j]
		}
	}
}

func (f *denseFactor) negateRow(i int) bool {
	m := f.st.m
	row := f.binv[i*m : i*m+m]
	for k := range row {
		row[k] = -row[k]
	}
	return true
}

func (f *denseFactor) shouldRefactor() bool { return false }

func (f *denseFactor) stats() (int, int, int) { return 0, 0, 0 }

// ---------------------------------------------------------------------
// Sparse: Markowitz LU of the basis plus a product-form eta chain.
// B_k = B_0 · E_1 ⋯ E_k, so B_k⁻¹ v = E_k(⋯E_1(B_0⁻¹ v)) (FTRAN
// applies the LU solve then the etas in order) and cᵀB_k⁻¹ applies the
// transposed etas in reverse before the LU transpose solve (BTRAN).

// etaUpdate is one pivot's update: at row r with pivot dr; its
// off-pivot direction entries (Col = row index i≠r, Val = d[i]) are
// etaEnt[previous eta's end:end].
type etaUpdate struct {
	r   int
	dr  float64
	end int
}

// sparseFactor owns everything a solve's factorizations need — the
// linsolve workspace, the row-major copy of the basis it is fed, and
// the eta arena — and refills them in place, so refactor, update and
// the solves allocate nothing once the buffers have grown.
type sparseFactor struct {
	st *simplexState
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

	// Scratch reused across operations (the simplex is single-threaded
	// per state).
	rhs []float64
	w   []float64
}

func newSparseFactor(st *simplexState) *sparseFactor {
	return &sparseFactor{
		st:     st,
		rowPtr: make([]int, st.m+2),
		rhs:    make([]float64, st.m),
		w:      make([]float64, st.m),
	}
}

func (f *sparseFactor) reset() {
	f.rowEnt = f.rowEnt[:0]
	for i, j := range f.st.basis {
		f.rowPtr[i+1] = i + 1
		f.rowEnt = append(f.rowEnt, linsolve.SparseEntry{Col: i, Val: f.st.col(j)[0].val})
	}
	f.factorRows() // a diagonal of ±1 cannot fail to factor
}

// factorRows factors the basis rows in rowPtr/rowEnt and drops the
// eta chain.
func (f *sparseFactor) factorRows() bool {
	lu, err := f.fz.Factor(f.st.m, f.rowPtr[:f.st.m+1], f.rowEnt)
	if err != nil {
		return false
	}
	f.lu = lu
	f.luNNZ = lu.FactorNNZ()
	f.etas, f.etaEnt = f.etas[:0], f.etaEnt[:0]
	return true
}

func (f *sparseFactor) refactor() bool {
	st := f.st
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

func (f *sparseFactor) ftran(j int, d []float64) {
	st := f.st
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

func (f *sparseFactor) btran(costB, y []float64) {
	copy(f.rhs, costB)
	f.applyEtasT(f.rhs)
	if err := f.lu.SolveTransposeIntoScratch(y, f.rhs, f.w); err != nil {
		for i := range y {
			y[i] = 0
		}
	}
}

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

func (f *sparseFactor) applyInv(rhs, x []float64) {
	if err := f.lu.SolveIntoScratch(x, rhs, f.w); err != nil {
		for i := range x {
			x[i] = 0
		}
		return
	}
	f.applyEtas(x)
}

func (f *sparseFactor) update(leaveRow int, d []float64) {
	for i, v := range d {
		if v != 0 && i != leaveRow {
			f.etaEnt = append(f.etaEnt, linsolve.SparseEntry{Col: i, Val: v})
		}
	}
	f.etas = append(f.etas, etaUpdate{r: leaveRow, dr: d[leaveRow], end: len(f.etaEnt)})
}

func (f *sparseFactor) negateRow(i int) bool { return false }

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
	m := f.st.m
	if len(f.etas) >= 24+m/8 {
		return true
	}
	return len(f.etaEnt)+len(f.etas) > 2*f.luNNZ+m
}

func (f *sparseFactor) stats() (int, int, int) {
	return len(f.rowEnt), f.luNNZ, len(f.etas)
}
