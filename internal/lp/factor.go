package lp

import (
	"slices"

	"pcf/internal/linsolve"
)

// The simplex keeps B⁻¹ as a factorization of a refactored basis B₀
// plus a product-form eta chain. B_k = B_0 · E_1 ⋯ E_k, so B_k⁻¹ v =
// E_k(⋯E_1(B_0⁻¹ v)) (FTRAN applies the B₀ solve then the etas in
// order) and cᵀB_k⁻¹ applies the transposed etas in reverse before the
// B₀ transpose solve (BTRAN).
//
// B₀ is not factored whole. A basic column with a single entry — a
// slack, an artificial, a one-row structural — covers that entry's row
// unless an earlier basis position already does; the k columns left
// over and the k rows nobody covers are the kernel K. Ordered covered
// rows first, B₀ is block upper triangular,
//
//	[ D  N ]   D: the covering entries, diagonal
//	[ 0  K ]   N: the kernel columns' entries in covered rows
//
// so only K goes through the Markowitz LU and a solve is the kernel
// solve, one pass over N read in place from the compiled columns, and
// a divide by D. DESIGN.md §17.

// etaUpdate is one pivot's update: at row r with pivot dr; its
// off-pivot direction entries (Col = row index i≠r, Val = d[i]) are
// etaEnt[previous eta's end:end].
type etaUpdate struct {
	r   int
	dr  float64
	end int
}

// sparseFactor is a Compiled's factorization workspace: the partition
// of the last refactored basis, the linsolve workspace and the
// row-major copy of the kernel it is fed, the eta arena and the solve
// scratch. Every operation refills them in place, so once the buffers
// have grown — during the first solve of the Compiled — refactor,
// update and the solves allocate nothing, in that solve or any later
// one. It holds no reference to the simplex state it serves: refactor
// and ftran, which read the basis and the entering column, take the
// state as an argument.
type sparseFactor struct {
	fz linsolve.SparseFactorizer
	lu *linsolve.SparseLU // fz's factors of the kernel; stale while the kernel is empty

	// The partition. cover[r] is the basis position whose single entry,
	// unit[r], covers row r, or -1 for a kernel row, whose kernel index
	// is then kIdx[r]. kPos and kRows list the kernel's basis positions
	// and rows, both ascending; kCols[c] is kernel column c's nonzeros,
	// aliasing the compiled model's column storage (the basis moves on
	// between refactorizations, B₀ does not).
	cover, kIdx []int
	unit        []float64
	kPos, kRows []int
	kCols       [][]entry

	// The kernel by rows for fz.Factor: kernel row i is
	// rowEnt[rowPtr[i]:rowPtr[i+1]] with Col the kernel column index.
	// rowPtr has one spare slot for the counting pass.
	rowPtr []int
	rowEnt []linsolve.SparseEntry

	etas   []etaUpdate
	etaEnt []linsolve.SparseEntry // truncated at refactor

	// basisNNZ counts the nonzeros of the whole basis; luNNZ what a B₀
	// solve reads: the kernel's factor nonzeros, one pivot per covered
	// row and the entries of N.
	basisNNZ, luNNZ int

	// Scratch reused across operations (one solve at a time per
	// Compiled): rhs is m-sized, kb/kx/kw are m-capacity and hold the
	// kernel solve's right-hand side, result and workspace.
	rhs        []float64
	kb, kx, kw []float64
}

// workspace returns the Compiled's factorization workspace sized to
// its current row count, creating it on the first solve. AddRow may
// have raised the count since the last solve, so the m-sized buffers
// are re-sliced here; no operation reads them before writing, and the
// partition, the factors and the eta chain are rebuilt by refactor
// before anything solves against them, so nothing carries over from
// one solve to the next but capacity. A Compiled solves one model at a
// time, and Clone hands the clone no workspace.
func (cm *Compiled) workspace() *sparseFactor {
	if cm.fac == nil {
		cm.fac = &sparseFactor{}
	}
	f, m := cm.fac, cm.nRows
	f.cover = slices.Grow(f.cover[:0], m)[:m]
	f.kIdx = slices.Grow(f.kIdx[:0], m)[:m]
	f.unit = slices.Grow(f.unit[:0], m)[:m]
	f.kPos = slices.Grow(f.kPos[:0], m)
	f.kRows = slices.Grow(f.kRows[:0], m)
	f.kCols = slices.Grow(f.kCols[:0], m)
	f.rowPtr = slices.Grow(f.rowPtr[:0], m+2)
	f.rhs = slices.Grow(f.rhs[:0], m)[:m]
	f.kb = slices.Grow(f.kb[:0], m)
	f.kx = slices.Grow(f.kx[:0], m)
	f.kw = slices.Grow(f.kw[:0], m)
	return f
}

// refactor rebuilds the factorization from st's current basis,
// returning false when the basis matrix is singular. On the cold-start
// basis, every column ±e_i, the kernel is empty and nothing is
// factored.
func (f *sparseFactor) refactor(st *simplexState) bool {
	// Partition. A second single-entry column on a covered row is a
	// multiple of the first, and an empty column of nothing: singular.
	for r := range f.cover {
		f.cover[r] = -1
	}
	f.kPos, f.kRows, f.kCols, f.basisNNZ = f.kPos[:0], f.kRows[:0], f.kCols[:0], 0
	for p, j := range st.basis {
		col := st.col(j)
		f.basisNNZ += len(col)
		switch {
		case len(col) > 1:
			f.kPos, f.kCols = append(f.kPos, p), append(f.kCols, col)
		case len(col) == 1 && f.cover[col[0].row] < 0:
			f.cover[col[0].row], f.unit[col[0].row] = p, col[0].val
		default:
			return false
		}
	}
	for r, p := range f.cover {
		if p < 0 {
			f.kIdx[r] = len(f.kRows)
			f.kRows = append(f.kRows, r)
		}
	}
	k := len(f.kPos)
	f.kb, f.kx, f.kw = f.kb[:k], f.kx[:k], f.kw[:k]
	f.etas, f.etaEnt = f.etas[:0], f.etaEnt[:0]
	f.luNNZ = st.m - k
	if k == 0 {
		return true
	}
	// Transpose the kernel columns' kernel entries into rows by counting
	// sort: count kernel row i into ptr[i+2], prefix-sum so ptr[i+1] is
	// row i's start, then place entries advancing ptr[i+1] to row i's
	// end — row i+1's start. Kernel columns ascend within each row. The
	// entries in covered rows are N.
	ptr := f.rowPtr[:k+2]
	clear(ptr)
	for _, col := range f.kCols {
		for _, e := range col {
			if f.cover[e.row] < 0 {
				ptr[f.kIdx[e.row]+2]++
			} else {
				f.luNNZ++
			}
		}
	}
	for i := 0; i < k; i++ {
		ptr[i+2] += ptr[i+1]
	}
	f.rowEnt = slices.Grow(f.rowEnt[:0], ptr[k+1])[:ptr[k+1]]
	for c, col := range f.kCols {
		for _, e := range col {
			if f.cover[e.row] < 0 {
				i := f.kIdx[e.row]
				f.rowEnt[ptr[i+1]] = linsolve.SparseEntry{Col: c, Val: e.val}
				ptr[i+1]++
			}
		}
	}
	lu, err := f.fz.Factor(k, ptr[:k+1], f.rowEnt)
	if err != nil {
		return false
	}
	f.lu = lu
	f.luNNZ += lu.FactorNNZ()
	return true
}

// solve computes x = B₀⁻¹·v, x by basis position and v by row: the
// kernel solve gives the kernel columns' values, their N entries are
// moved to the right-hand side — v is clobbered — and each covered row
// is left with its one unknown.
func (f *sparseFactor) solve(v, x []float64) {
	if len(f.kPos) > 0 {
		for i, r := range f.kRows {
			f.kb[i] = v[r]
		}
		if err := f.lu.SolveIntoScratch(f.kx, f.kb, f.kw); err != nil {
			// Cannot happen on a successfully factored kernel with matching
			// lengths; zero output keeps downstream checks failing safely.
			clear(x)
			return
		}
		for c, p := range f.kPos {
			t := f.kx[c]
			x[p] = t
			if t == 0 {
				continue
			}
			for _, e := range f.kCols[c] {
				if f.cover[e.row] >= 0 {
					v[e.row] -= e.val * t
				}
			}
		}
	}
	for r, p := range f.cover {
		if p >= 0 {
			x[p] = v[r] / f.unit[r]
		}
	}
}

// solveT computes y = B₀⁻ᵀ·c, y by row and c by basis position — the
// same blocks transposed: the covered rows' prices come from D alone,
// and the kernel's from Kᵀ after N has carried them over.
func (f *sparseFactor) solveT(c, y []float64) {
	for r, p := range f.cover {
		if p >= 0 {
			y[r] = c[p] / f.unit[r]
		}
	}
	if len(f.kPos) == 0 {
		return
	}
	for i, p := range f.kPos {
		s := c[p]
		for _, e := range f.kCols[i] {
			if f.cover[e.row] >= 0 {
				s -= e.val * y[e.row]
			}
		}
		f.kb[i] = s
	}
	if err := f.lu.SolveTransposeIntoScratch(f.kx, f.kb, f.kw); err != nil {
		clear(y)
		return
	}
	for i, r := range f.kRows {
		y[r] = f.kx[i]
	}
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
	f.solve(f.rhs, d)
	f.applyEtas(d)
}

// btran computes y = costBᵀ·B⁻¹.
func (f *sparseFactor) btran(costB, y []float64) {
	copy(f.rhs, costB)
	f.applyEtasT(f.rhs)
	f.solveT(f.rhs, y)
}

// invRow copies row r of B⁻¹ into rho.
func (f *sparseFactor) invRow(r int, rho []float64) {
	clear(f.rhs)
	f.rhs[r] = 1
	f.applyEtasT(f.rhs)
	f.solveT(f.rhs, rho)
}

// applyInv computes x = B⁻¹·rhs for a dense right-hand side.
func (f *sparseFactor) applyInv(rhs, x []float64) {
	copy(f.rhs, rhs)
	f.solve(f.rhs, x)
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
// factors it decorates. Both the chain length (apply overhead is
// per-eta) and its nonzero mass (apply cost is per-entry) gate. With a
// refactorization costing F and each eta adding a to every later
// iteration's FTRAN+BTRAN, a period of k pivots costs F/k + a·k/2 per
// iteration, least at k = √(2F/a). Measured on the 1000-node master
// (m = 5424, kernel ≤ 740: F ≈ 0.19 ms — the partition pass plus the
// LU of the kernel — and a ≈ 3.6 µs, entering columns ~60 % dense)
// that is k ≈ 10, and the nonzero gate fires every 10.5 pivots (107
// refactorizations in 1 124): at the least cost, which also keeps the
// factors accurate. luNNZ counts what a B₀ solve reads, covered rows
// included, so the gate means the same whatever share of the basis the
// kernel is (DESIGN.md §17).
func (f *sparseFactor) shouldRefactor() bool {
	m := len(f.rhs)
	if len(f.etas) >= 24+m/8 {
		return true
	}
	return len(f.etaEnt)+len(f.etas) > 2*f.luNNZ+m
}
