package lp

import (
	"math/bits"
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
// solve, one pass over N (copied at refactor, by columns for FTRAN and
// by rows for BTRAN) and a divide by D. DESIGN.md §17.

// etaUpdate is one pivot's update: at row r with pivot dr; its
// off-pivot direction entries (Col = row index i≠r, Val = d[i]) are
// etaEnt[previous eta's end:end], Col ascending.
type etaUpdate struct {
	r   int
	dr  float64
	end int
}

// sparseFactor is a Compiled's solve workspace: the partition of the
// last refactored basis, the linsolve workspace and the by-rows copy of
// the kernel columns it is fed, the eta arena, the solve scratch and
// the simplex state with all its vectors. Every operation refills them
// in place, so once the buffers have grown — during the first solve in
// the workspace — the start, refactor, update, the solves and a whole
// simplex iteration allocate nothing, in that solve or any later one.
// The state it holds is its own storage, not a reference it reads:
// refactor and ftran, which read the basis and the entering column,
// take the state as an argument.
type sparseFactor struct {
	fz linsolve.SparseFactorizer
	lu *linsolve.SparseLU // fz's factors of the kernel; stale while the kernel is empty

	// The partition. cover[r] is the basis position whose single entry,
	// unit[r], covers row r, or -1 for a kernel row; covRow[p] is the
	// row basis position p covers, or -1 for a kernel position. kPos and
	// kRows list the kernel's basis positions and rows, both ascending.
	cover, covRow []int
	unit          []float64
	kPos, kRows   []int

	// B₀'s kernel columns by rows, one CSR over every row (the basis
	// moves on between refactorizations, B₀ does not): slot[r] is row
	// r's place, kernel rows first in kernel order (0..k-1), then the
	// covered rows ascending (k..m-1), and the row in slot s is
	// rowEnt[rowPtr[s]:rowPtr[s+1]] with Col the kernel column index,
	// ascending. The first k rows are K, what fz.Factor reads; the rest
	// are N by rows, what both solves carry the kernel's coupling
	// through. rowPtr has one spare slot for the counting pass. N is
	// kept by columns as well, for FTRAN: kernel column c's entries in
	// covered rows are nEnt[nPtr[c]:nPtr[c+1]], rows ascending.
	slot   []int
	rowPtr []int
	rowEnt []linsolve.SparseEntry
	nPtr   []int
	nEnt   []entry

	etas   []etaUpdate
	etaEnt []linsolve.SparseEntry // truncated at refactor

	// basisNNZ counts the nonzeros of the whole basis; luNNZ what a B₀
	// solve reads: the kernel's factor nonzeros, one pivot per covered
	// row and the entries of N.
	basisNNZ, luNNZ int

	// Scratch reused across operations (one solve at a time per
	// Compiled). rhs is m-sized and all zero between operations, each
	// clearing what it wrote: FTRAN's right-hand side and BTRAN's work
	// vector, whose non-zero positions BTRAN keeps in nz (m-capacity; the
	// ratio test lists its candidate rows there between BTRANs). kb/kx/kw
	// are m-capacity and hold the kernel solve's right-hand side, result
	// and workspace.
	rhs        []float64
	nz         []int
	kb, kx, kw []float64

	// The simplex loop's vectors, m-sized (simplexState aliases them):
	// c_B and its non-zero positions (basicCosts), prices, the entering
	// direction and a row of B⁻¹.
	cB, y, d, rho []float64
	cNZ           []int

	// The simplex state and the rest of its vectors: the basis, the
	// basic values and the artificials' signs, m-sized; inB and the
	// phase cost over the columns and artificials; xs, the columns'
	// values when a solution is read off the basis.
	st          simplexState
	basis       []int
	xB, artSign []float64
	inB         []bool
	cost, xs    []float64

	hooks *testHooks
}

// testHooks lets a test route every BTRAN through its dense oracle and
// watch every pivot (btran_oracle_test.go); nil outside tests.
type testHooks struct {
	btran func(c []float64, nz []int, y []float64)
	pivot func(st *simplexState, enter, leaveRow int)
}

// sized returns s with length n, reusing its backing array when it is
// large enough.
func sized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// workspace returns the Compiled's workspace sized to its current row
// and column counts, creating it on the first solve. AddRow may have
// raised them since the last solve, and Compileds sharing a workspace
// (Workspace.NewPolytope) differ in them, so the buffers are re-sliced
// here; rhs and inB are cleared, no other buffer is read before it is
// written, and the partition, the factors and the eta chain are rebuilt
// by refactor before anything solves against them, so nothing carries
// over from one solve to the next but capacity. A workspace serves one
// solve at a time, and Clone hands the clone none.
func (cm *Compiled) workspace() *sparseFactor {
	if cm.fac == nil {
		cm.fac = &sparseFactor{}
	}
	f, m := cm.fac, cm.nRows
	f.cover, f.covRow, f.slot = sized(f.cover, m), sized(f.covRow, m), sized(f.slot, m)
	f.unit = sized(f.unit, m)
	f.kPos = slices.Grow(f.kPos[:0], m)
	f.kRows = slices.Grow(f.kRows[:0], m)
	f.rowPtr = sized(f.rowPtr, m+2)
	f.nPtr = slices.Grow(f.nPtr[:0], m+1)
	f.rhs = sized(f.rhs, m)
	clear(f.rhs)
	f.nz = slices.Grow(f.nz[:0], m)
	f.kb = slices.Grow(f.kb[:0], m)
	f.kx = slices.Grow(f.kx[:0], m)
	f.kw = slices.Grow(f.kw[:0], m)
	f.cB, f.y, f.d, f.rho = sized(f.cB, m), sized(f.y, m), sized(f.d, m), sized(f.rho, m)
	f.cNZ = slices.Grow(f.cNZ[:0], m)
	n := cm.nCols
	f.basis, f.xB, f.artSign = sized(f.basis, m), sized(f.xB, m), sized(f.artSign, m)
	f.inB = sized(f.inB, n+m)
	clear(f.inB)
	f.cost, f.xs = sized(f.cost, n+m), sized(f.xs, n)
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
	f.kPos, f.kRows, f.basisNNZ = f.kPos[:0], f.kRows[:0], 0
	for p, j := range st.basis {
		col := st.col(j)
		f.basisNNZ += len(col)
		f.covRow[p] = -1
		switch {
		case len(col) > 1:
			f.kPos = append(f.kPos, p)
		case len(col) == 1 && f.cover[col[0].row] < 0:
			f.cover[col[0].row], f.unit[col[0].row] = p, col[0].val
			f.covRow[p] = col[0].row
		default:
			return false
		}
	}
	// Every other position covers one row, so k rows are left over.
	k, m := len(f.kPos), st.m
	covered := k
	for r, p := range f.cover {
		if p < 0 {
			f.slot[r] = len(f.kRows)
			f.kRows = append(f.kRows, r)
		} else {
			f.slot[r] = covered
			covered++
		}
	}
	f.kb, f.kx, f.kw = f.kb[:k], f.kx[:k], f.kw[:k]
	f.etas, f.etaEnt = f.etas[:0], f.etaEnt[:0]
	// Transpose the kernel columns into rows by counting sort: count slot
	// s into ptr[s+2], prefix-sum so ptr[s+1] is slot s's start, then
	// place entries advancing ptr[s+1] to slot s's end — slot s+1's
	// start. Kernel columns ascend within each row. The same pass copies
	// each column's N entries.
	ptr := f.rowPtr
	clear(ptr)
	n := 0
	for _, p := range f.kPos {
		col := st.col(st.basis[p])
		n += len(col)
		for _, e := range col {
			ptr[f.slot[e.row]+2]++
		}
	}
	for s := 0; s < m; s++ {
		ptr[s+2] += ptr[s+1]
	}
	if n > cap(f.rowEnt) {
		// Sized once: no kernel holds more than the columns with two or
		// more entries do between them.
		bound := st.cm.multiEntryNNZ()
		f.rowEnt, f.nEnt = make([]linsolve.SparseEntry, n, bound), make([]entry, 0, bound)
	}
	f.rowEnt, f.nEnt, f.nPtr = f.rowEnt[:n], f.nEnt[:0], f.nPtr[:k+1]
	for c, p := range f.kPos {
		f.nPtr[c] = len(f.nEnt)
		for _, e := range st.col(st.basis[p]) {
			s := f.slot[e.row]
			f.rowEnt[ptr[s+1]] = linsolve.SparseEntry{Col: c, Val: e.val}
			ptr[s+1]++
			if s >= k {
				f.nEnt = append(f.nEnt, e)
			}
		}
	}
	f.nPtr[k] = len(f.nEnt)
	f.luNNZ = m - k + len(f.nEnt) // the covered rows' pivots and N
	if k == 0 {
		return true
	}
	lu, err := f.fz.Factor(k, ptr[:k+1], f.rowEnt)
	if err != nil {
		return false
	}
	f.lu = lu
	f.luNNZ += lu.FactorNNZ()
	return true
}

// solve computes x = B₀⁻¹·v, x by basis position and v by row, and
// leaves v all zero: the kernel solve gives the kernel columns' values,
// their N entries are moved to the right-hand side and each covered row
// is left with its one unknown.
func (f *sparseFactor) solve(v, x []float64) {
	if len(f.kPos) > 0 {
		for i, r := range f.kRows {
			f.kb[i], v[r] = v[r], 0
		}
		if err := f.lu.SolveIntoScratch(f.kx, f.kb, f.kw); err != nil {
			// Cannot happen on a successfully factored kernel with matching
			// lengths; zero output keeps downstream checks failing safely.
			clear(x)
			clear(v)
			return
		}
		for c, p := range f.kPos {
			t := f.kx[c]
			x[p] = t
			if t == 0 {
				continue
			}
			for _, e := range f.nEnt[f.nPtr[c]:f.nPtr[c+1]] {
				v[e.row] -= e.val * t
			}
		}
	}
	for r, p := range f.cover {
		if p >= 0 {
			x[p], v[r] = v[r]/f.unit[r], 0
		}
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

// ftran computes d = B⁻¹·A_j for st's std column j (artificials
// included), dense output.
func (f *sparseFactor) ftran(st *simplexState, j int, d []float64) {
	for _, e := range st.col(j) {
		f.rhs[e.row] = e.val
	}
	f.solve(f.rhs, d)
	f.applyEtas(d)
}

// btran computes y = cᵀ·B⁻¹ for c given by basis position and zero
// outside nz, its ascending non-zero positions. c and nz are read
// before anything is written, so c may share storage with y or rhs,
// and nz with the scratch list.
//
// The work follows the non-zeros. A transposed eta,
// c_r ← (c_r − Σ_{i≠r} d_i·c_i)/d_r, writes only c_r, so after the
// chain c is non-zero at most at nz and the etas' rows: a phase-2 c_B
// with one non-zero (the objective's z) stays within 1 + #etas
// positions. Each eta's sum therefore takes only the entries at those
// positions, found by search in its ascending column list and
// subtracted in that same order — or, when the positions outnumber what
// a search per position saves, the whole list, as a dense walk would.
// The covered rows the positions reach get their prices from D, and
// only their rows of N carry those into the kernel's right-hand side,
// in ascending row order, as a dense pass over each kernel column's
// entries would. Every term left out is the product of an exact zero,
// which can change a sum only in the sign of a zero result, so pricing,
// ratios, pivots and solution values are those of the dense BTRAN —
// kept as the test oracle (btran_oracle_test.go).
func (f *sparseFactor) btran(c []float64, nz []int, y []float64) {
	if f.hooks != nil && f.hooks.btran != nil {
		f.hooks.btran(c, nz, y)
		return
	}
	ct, w := f.rhs, append(f.nz[:0], nz...)
	for _, p := range nz {
		ct[p] = c[p]
	}
	for t := len(f.etas) - 1; t >= 0; t-- {
		e, start := f.etas[t], 0
		if t > 0 {
			start = f.etas[t-1].end
		}
		ent := f.etaEnt[start:e.end]
		s := ct[e.r]
		if len(w)*bits.Len(uint(len(ent))) < len(ent) {
			lo := 0
			for _, p := range w {
				lo += searchCol(ent[lo:], p)
				if lo == len(ent) {
					break
				}
				if ent[lo].Col == p {
					s -= ent[lo].Val * ct[p]
					lo++
				}
			}
		} else {
			for _, z := range ent {
				s -= z.Val * ct[z.Col]
			}
		}
		if s == 0 {
			ct[e.r] = 0
			continue
		}
		ct[e.r] = s / e.dr
		if i, in := slices.BinarySearch(w, e.r); !in {
			w = slices.Insert(w, i, e.r)
		}
	}

	// B₀ᵀy = c: the covered rows' prices from D alone, then
	// Kᵀ y_K = c_K − Nᵀ y_C. The pass over w clears ct behind it and
	// keeps the covered rows it reaches in w's own prefix.
	clear(y)
	for i, p := range f.kPos {
		f.kb[i] = ct[p]
	}
	reached := w[:0]
	for _, p := range w {
		if r := f.covRow[p]; r >= 0 {
			y[r] = ct[p] / f.unit[r]
			reached = append(reached, r)
		}
		ct[p] = 0
	}
	if len(f.kPos) == 0 {
		return
	}
	slices.Sort(reached)
	for _, r := range reached {
		s, yr := f.slot[r], y[r]
		for _, e := range f.rowEnt[f.rowPtr[s]:f.rowPtr[s+1]] {
			f.kb[e.Col] -= e.Val * yr
		}
	}
	if err := f.lu.SolveTransposeIntoScratch(f.kx, f.kb, f.kw); err != nil {
		clear(y)
		return
	}
	for i, r := range f.kRows {
		y[r] = f.kx[i]
	}
}

// searchCol returns the first index of ent, ascending by Col, whose
// Col is at least col.
func searchCol(ent []linsolve.SparseEntry, col int) int {
	lo, hi := 0, len(ent)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if ent[h].Col < col {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// invRow copies row r of B⁻¹ into rho: BTRAN of the unit vector at
// basis position r, listed in BTRAN's own scratch.
func (f *sparseFactor) invRow(r int, rho []float64) {
	f.rhs[r] = 1
	f.btran(f.rhs, append(f.nz[:0], r), rho)
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
// (m = 2394, kernel ≤ 746): F ≈ 0.27 ms — the partition pass, both
// copies of N and the LU of the kernel — and a ≈ 1.5 µs, most of it
// FTRAN's pass over an eta's entries, since BTRAN searches an eta only
// at its input's few non-zeros. That puts k at ≈ 19, and the nonzero
// gate fires every 8.5 pivots (133 refactorizations in 1 129): ≈ 38 µs
// per iteration against ≈ 28 µs at the least cost. The gate stays where it
// is, because a longer period also changes round-off and with it the
// optimal vertex a degenerate master may end on. luNNZ counts what a
// B₀ solve reads, covered rows included, so the gate means the same
// whatever share of the basis the kernel is (DESIGN.md §17).
func (f *sparseFactor) shouldRefactor() bool {
	m := len(f.rhs)
	if len(f.etas) >= 24+m/8 {
		return true
	}
	return len(f.etaEnt)+len(f.etas) > 2*f.luNNZ+m
}
