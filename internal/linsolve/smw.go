package linsolve

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"pcf/internal/tol"
)

// ErrIllConditioned is returned when a low-rank update's capacitance
// matrix is too ill-conditioned for the Sherman–Morrison–Woodbury
// correction to be trusted: its crude condition estimate (max-entry
// over smallest pivot) exceeds tol.SMWCondition, beyond which the
// correction can amplify round-off past its agreement with a fresh
// factorization. Callers should refactorize cold. Matched with
// errors.Is.
var ErrIllConditioned = errors.New("linsolve: update capacitance ill-conditioned")

// RowUpdate is a sparse additive modification of one matrix row:
// row Row gains Vals[i] in column Cols[i]. A set of RowUpdates with
// distinct rows describes M = A + Σ e_r·dᵀ, a rank-k perturbation.
type RowUpdate struct {
	Row  int
	Cols []int
	Vals []float64
}

// Updated turns solutions of A into solutions of the row-updated
// matrix M = A + U·Vᵀ through the Sherman–Morrison–Woodbury identity
//
//	M⁻¹ b = y − W · C⁻¹ · (Vᵀ y),   y = A⁻¹ b,
//
// where W = A⁻¹U (one inverse column per updated row) and
// C = I_k + Vᵀ·W is the k×k capacitance matrix, factored once at
// construction. That is the regime PCF's failure scenarios live in: a
// scenario touches only the few reservation-matrix rows whose tunnels
// or logical sequences the failed links affect.
//
// An Updated keeps only nonzeros, in two flat arenas — one of int32
// indices and offsets, one of float64 values — that every slice below
// but the CorrectInto scratch is carved from: the update rows V, the
// capacitance factors by row and the nonzeros of each inverse column.
// A correction costs those nonzeros given y, not the O(nk + k²) of the
// dense form, nor the O(n³) of refactorizing M.
type Updated struct {
	n int

	rows       []int32 // rows[j]: the matrix row update j changes
	vOff, vCol []int32 // update j's entries: vCol, vVal[vOff[j]:vOff[j+1]]
	vVal       []float64

	// P·C = L·U by partial pivoting: step i eliminates C's row perm[i];
	// row i of L below its unit diagonal and of U above its diagonal are
	// lCol, lVal[lOff[i]:lOff[i+1]] and uCol, uVal[uOff[i]:uOff[i+1]],
	// ascending column; diag holds U's diagonal, the pivots.
	perm       []int32
	lOff, lCol []int32
	uOff, uCol []int32
	lVal, uVal []float64
	diag       []float64

	wOff, wRow []int32 // inverse column j's nonzeros: wRow, wVal[wOff[j]:wOff[j+1]]
	wVal       []float64

	z, y []float64 // k-sized scratch, allocated on first CorrectInto
}

// SparseColumn is a length-n vector by its nonzeros: Val[t] in row
// Row[t], rows strictly ascending. The routing sweep keeps each base
// inverse column it has needed in this form.
type SparseColumn struct {
	Row []int32
	Val []float64
}

// UpdateFactorizer is the workspace correctors are built in. A build
// touches only nonzeros: it indexes the columns the updates read,
// gathers the inverse columns' nonzeros in those rows, assembles the
// k×k capacitance's rows from the products and eliminates them in
// sparse rows, then copies out what a correction reads. Its buffers
// grow to the largest build and are reused, so a caller that builds
// many correctors (the routing sweep) allocates only each corrector.
// Not safe for concurrent use. The zero value is ready.
type UpdateFactorizer struct {
	// slot[c] is, while a build runs, 1 + the index of column c among
	// the columns the updates read, and 0 for every other column; it
	// is all zeros between builds. Column slot s's products are
	// bEnt[bOff[s-1]:bOff[s]]: each inverse column j's nonzero in that
	// row as (j, value), ascending j.
	slot []int32
	bOff []int32
	bEnt []capEntry

	// The capacitance by rows, each ascending column, eliminated in
	// place: row i's first act[i] entries are its multipliers, the rest
	// its active part. colRows[c] lists the rows with an entry in
	// column c; at[p] is the row at position p and pos its inverse.
	rows         [][]capEntry
	colRows      [][]int32
	at, pos, act []int32
	mark         []int32    // column → 1 + its entry in the row being assembled
	merge        []capEntry // a row's active part, re-merged

	// Factor's dense columns, by their nonzeros.
	gRow  []int32
	gVal  []float64
	gEnd  []int
	gCols []SparseColumn
}

// capEntry is one capacitance entry (col, val), or one inverse-column
// nonzero (update, val) in a product bucket.
type capEntry struct {
	col int32
	val float64
}

// RankUpdate prepares an SMW corrector for A + updates, computing the
// needed inverse columns with k solves against the base factorization.
// It returns ErrSingular (wrapped) if the capacitance matrix is
// singular — i.e. the updated matrix is — and ErrIllConditioned when
// the correction would be numerically untrustworthy.
func (f *LU) RankUpdate(ups []RowUpdate) (*Updated, error) {
	cols := make([][]float64, len(ups))
	e := make([]float64, f.n)
	for j, up := range ups {
		if up.Row < 0 || up.Row >= f.n {
			return nil, fmt.Errorf("linsolve: update row %d out of range [0,%d)", up.Row, f.n)
		}
		e[up.Row] = 1
		cols[j] = make([]float64, f.n)
		err := f.SolveInto(cols[j], e)
		e[up.Row] = 0
		if err != nil {
			return nil, err
		}
	}
	return NewUpdated(f.n, ups, cols)
}

// NewUpdated builds the SMW corrector from update rows and their base
// inverse columns. It is the one-shot form of UpdateFactorizer.Factor.
func NewUpdated(n int, ups []RowUpdate, cols [][]float64) (*Updated, error) {
	var w UpdateFactorizer
	return w.Factor(n, ups, cols)
}

// Factor builds the SMW corrector from update rows and their base
// inverse columns given densely: cols[j] = A⁻¹ e_{ups[j].Row} however A
// is factored (dense LU or SparseLU). It gathers each column's nonzeros
// and builds as FactorSparse does; the updates and the columns are
// copied, so the caller may reuse both once Factor returns.
func (w *UpdateFactorizer) Factor(n int, ups []RowUpdate, cols [][]float64) (*Updated, error) {
	for j, col := range cols {
		if len(col) != n {
			return nil, fmt.Errorf("linsolve: inverse column %d has length %d != %d", j, len(col), n)
		}
	}
	w.gRow, w.gVal, w.gEnd = w.gRow[:0], w.gVal[:0], w.gEnd[:0]
	for _, col := range cols {
		for i, v := range col {
			if v != 0 {
				w.gRow, w.gVal = append(w.gRow, int32(i)), append(w.gVal, v)
			}
		}
		w.gEnd = append(w.gEnd, len(w.gRow))
	}
	w.gCols = w.gCols[:0]
	lo := 0
	for _, hi := range w.gEnd {
		w.gCols = append(w.gCols, SparseColumn{Row: w.gRow[lo:hi:hi], Val: w.gVal[lo:hi:hi]})
		lo = hi
	}
	return w.FactorSparse(n, ups, w.gCols)
}

// FactorSparse builds the SMW corrector from update rows and the
// nonzeros of their base inverse columns, cols[j] = A⁻¹ e_{ups[j].Row}.
// Callers sweeping many scenarios against one base factorization solve
// each inverse column they need once and pass views here; the updates
// and the columns are copied, so the caller may reuse both once it
// returns. A build costs the nonzeros of V, W and the capacitance's
// factors, not k·n or k².
//
// The corrector is the one the dense build — C = I + VᵀW formed entry
// by entry, factored by partial-pivot Gaussian elimination, nonzeros
// copied out — would make, bit for bit: C[i][j] sums update i's
// products with column j in update i's column order and adds the
// identity last, as the dense loop does; the elimination takes, in
// each column, the first row in current order at the strictly largest
// magnitude, swaps as it would and forms the same multipliers and fill.
// Every term skipped is a product with an exact zero, which can change
// only the sign of a zero, and the factors keep no zero. Inputs are
// assumed finite.
func (w *UpdateFactorizer) FactorSparse(n int, ups []RowUpdate, cols []SparseColumn) (*Updated, error) {
	k := len(ups)
	if len(cols) != k {
		return nil, fmt.Errorf("linsolve: %d inverse columns for %d updates", len(cols), k)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("linsolve: %d rows exceed int32", n)
	}
	for j, up := range ups {
		if up.Row < 0 || up.Row >= n {
			return nil, fmt.Errorf("linsolve: update row %d out of range [0,%d)", up.Row, n)
		}
		if len(up.Cols) != len(up.Vals) {
			return nil, fmt.Errorf("linsolve: update row %d has %d cols, %d vals", up.Row, len(up.Cols), len(up.Vals))
		}
		for _, c := range up.Cols {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("linsolve: update row %d references column %d out of range [0,%d)", up.Row, c, n)
			}
		}
		col := cols[j]
		if len(col.Row) != len(col.Val) {
			return nil, fmt.Errorf("linsolve: inverse column %d has %d rows, %d values", j, len(col.Row), len(col.Val))
		}
		for t, r := range col.Row {
			if r < 0 || int(r) >= n || (t > 0 && r <= col.Row[t-1]) || col.Val[t] == 0 {
				return nil, fmt.Errorf("linsolve: inverse column %d: entry %d (row %d) is not a nonzero in ascending rows of [0,%d)", j, t, r, n)
			}
		}
	}
	maxEntry := w.capacitance(n, ups, cols)
	if err := w.eliminate(k); err != nil {
		return nil, err
	}
	minPivot := math.Inf(1)
	for _, i := range w.at { // act[i] ends one past row i's pivot
		if v := math.Abs(w.rows[i][w.act[i]-1].val); v < minPivot {
			minPivot = v
		}
	}
	if k > 0 && maxEntry > tol.SMWCondition*minPivot {
		return nil, fmt.Errorf("%w: max entry %g, min pivot %g", ErrIllConditioned, maxEntry, minPivot)
	}
	return w.detach(n, ups, cols)
}

// capacitance assembles C = I + VᵀW into w.rows, one row per update,
// ascending column and no entry where every product is an exact zero,
// and returns C's largest magnitude. Only the rows of W that V reads
// are gathered, so it costs nnz(V) + nnz(W) + the nonzero products.
func (w *UpdateFactorizer) capacitance(n int, ups []RowUpdate, cols []SparseColumn) float64 {
	k := len(ups)
	if len(w.slot) < n {
		w.slot = make([]int32, n)
	}
	m := int32(0)
	for _, up := range ups {
		for _, c := range up.Cols {
			if w.slot[c] == 0 {
				m++
				w.slot[c] = m
			}
		}
	}
	// Bucket W's nonzeros by slot: count into bOff[s+1], sum, then fill
	// forward, which leaves bOff[s] at bucket s's end.
	w.bOff = grow(w.bOff, int(m)+2)
	for _, col := range cols {
		for _, r := range col.Row {
			if s := w.slot[r]; s != 0 {
				w.bOff[s+1]++
			}
		}
	}
	for s := 1; s < len(w.bOff); s++ {
		w.bOff[s] += w.bOff[s-1]
	}
	w.bEnt = grow(w.bEnt, int(w.bOff[m+1]))
	for j, col := range cols {
		for t, r := range col.Row {
			if s := w.slot[r]; s != 0 {
				w.bEnt[w.bOff[s]] = capEntry{col: int32(j), val: col.Val[t]}
				w.bOff[s]++
			}
		}
	}

	w.rows = lists(w.rows, k)
	w.mark = grow(w.mark, k)
	maxEntry := 0.0
	for i, up := range ups {
		row := w.rows[i][:0]
		for t, c := range up.Cols {
			v, s := up.Vals[t], w.slot[c]
			for _, e := range w.bEnt[w.bOff[s-1]:w.bOff[s]] {
				if w.mark[e.col] == 0 {
					row = append(row, capEntry{col: e.col})
					w.mark[e.col] = int32(len(row))
				}
				row[w.mark[e.col]-1].val += v * e.val
			}
		}
		if at := w.mark[i]; at != 0 {
			row[at-1].val += 1
		} else {
			row = append(row, capEntry{col: int32(i), val: 1})
		}
		for _, e := range row {
			w.mark[e.col] = 0
			if v := math.Abs(e.val); v > maxEntry {
				maxEntry = v
			}
		}
		slices.SortFunc(row, func(a, b capEntry) int { return int(a.col - b.col) })
		w.rows[i] = row
	}
	for _, up := range ups {
		for _, c := range up.Cols {
			w.slot[c] = 0
		}
	}
	return maxEntry
}

// eliminate factors the capacitance in w.rows by Gaussian elimination
// with partial pivoting, as factorDense does on its dense form: in
// column c it takes the first row in current order at the strictly
// largest magnitude (ErrSingular below tol.Singular), swaps it to
// position c, turns each lower row's entry into its multiplier and,
// unless that is zero, subtracts the multiple of the pivot row's
// nonzeros. Each row ends as its multipliers, pivot and U entries,
// ascending column, under the position at records.
func (w *UpdateFactorizer) eliminate(k int) error {
	w.at, w.pos, w.act = grow(w.at, k), grow(w.pos, k), grow(w.act, k)
	w.colRows = lists(w.colRows, k)
	for c := range w.colRows {
		w.colRows[c] = w.colRows[c][:0]
	}
	for i, row := range w.rows {
		w.at[i], w.pos[i] = int32(i), int32(i)
		for _, e := range row {
			w.colRows[e.col] = append(w.colRows[e.col], int32(i))
		}
	}
	for c := int32(0); c < int32(k); c++ {
		// Row i's entry in column c, when it has one, is its first
		// active one: every column before c has been eliminated.
		p, best := int32(-1), 0.0
		for _, i := range w.colRows[c] {
			if w.pos[i] < c {
				continue
			}
			v := math.Abs(w.rows[i][w.act[i]].val)
			//lint:ignore pcflint/floatcmp a tie is exact: the dense scan keeps the first row in current order at the largest magnitude
			if v > best || (v == best && p >= 0 && w.pos[i] < w.pos[p]) {
				p, best = i, v
			}
		}
		if p < 0 || best < tol.Singular {
			return ErrSingular
		}
		if q := w.at[c]; q != p {
			w.at[c], w.at[w.pos[p]] = p, q
			w.pos[q], w.pos[p] = w.pos[p], c
		}
		pv := w.rows[p][w.act[p]].val
		w.act[p]++
		piv := w.rows[p][w.act[p]:]
		for _, i := range w.colRows[c] {
			if w.pos[i] <= c {
				continue
			}
			row := w.rows[i]
			m := row[w.act[i]].val / pv
			row[w.act[i]].val = m
			w.act[i]++
			if m == 0 {
				continue
			}
			// Merge the active part with the pivot row's: a shared column
			// takes the update, a pivot-row-only one fills.
			a, out := row[w.act[i]:], w.merge[:0]
			ai := 0
			for _, u := range piv {
				for ; ai < len(a) && a[ai].col < u.col; ai++ {
					out = append(out, a[ai])
				}
				switch {
				case ai < len(a) && a[ai].col == u.col:
					out = append(out, capEntry{col: u.col, val: a[ai].val - m*u.val})
					ai++
				case u.val != 0:
					if f := m * u.val; f != 0 {
						out = append(out, capEntry{col: u.col, val: -f})
						w.colRows[u.col] = append(w.colRows[u.col], i)
					}
				}
			}
			out = append(out, a[ai:]...)
			w.rows[i], w.merge = append(row[:w.act[i]], out...), out
		}
	}
	return nil
}

// detach copies what a correction reads into a corrector of its own,
// whose two arenas are allocated once, at their final size: the
// updates, the factors' nonzeros by position and the inverse columns.
func (w *UpdateFactorizer) detach(n int, ups []RowUpdate, cols []SparseColumn) (*Updated, error) {
	k := len(ups)
	nv, nl, nu, nw := 0, 0, 0, 0
	for j, up := range ups {
		nv += len(up.Cols)
		nw += len(cols[j].Row)
	}
	for p, i := range w.at {
		for _, e := range w.rows[i] {
			switch {
			case e.val == 0:
			case e.col < int32(p):
				nl++
			case e.col > int32(p):
				nu++
			}
		}
	}
	nInts := 6*k + 4 + nv + nl + nu + nw // rows, perm and four offset lists
	if nInts > math.MaxInt32 {
		return nil, fmt.Errorf("linsolve: corrector of %d indices over %d rows exceeds int32", nInts, n)
	}
	ints, vals := make([]int32, nInts), make([]float64, nv+nl+nu+k+nw)

	u := &Updated{n: n}
	u.rows, u.vOff, u.vCol, u.vVal = carve(&ints, k), carve(&ints, k+1), carve(&ints, nv), carve(&vals, nv)
	u.vOff = append(u.vOff, 0)
	for _, up := range ups {
		u.rows = append(u.rows, int32(up.Row))
		for _, cc := range up.Cols {
			u.vCol = append(u.vCol, int32(cc))
		}
		u.vVal = append(u.vVal, up.Vals...)
		u.vOff = append(u.vOff, int32(len(u.vCol)))
	}

	u.perm, u.lOff, u.lCol, u.uOff, u.uCol = carve(&ints, k), carve(&ints, k+1), carve(&ints, nl), carve(&ints, k+1), carve(&ints, nu)
	u.lVal, u.uVal, u.diag = carve(&vals, nl), carve(&vals, nu), carve(&vals, k)
	u.lOff, u.uOff = append(u.lOff, 0), append(u.uOff, 0)
	for p, i := range w.at {
		u.perm = append(u.perm, i)
		for _, e := range w.rows[i] {
			switch {
			case e.col == int32(p):
				u.diag = append(u.diag, e.val)
			case e.val == 0:
			case e.col < int32(p):
				u.lCol, u.lVal = append(u.lCol, e.col), append(u.lVal, e.val)
			default:
				u.uCol, u.uVal = append(u.uCol, e.col), append(u.uVal, e.val)
			}
		}
		u.lOff, u.uOff = append(u.lOff, int32(len(u.lCol))), append(u.uOff, int32(len(u.uCol)))
	}

	u.wOff, u.wRow, u.wVal = carve(&ints, k+1), carve(&ints, nw), carve(&vals, nw)
	u.wOff = append(u.wOff, 0)
	for _, col := range cols {
		u.wRow, u.wVal = append(u.wRow, col.Row...), append(u.wVal, col.Val...)
		u.wOff = append(u.wOff, int32(len(u.wRow)))
	}
	return u, nil
}

// grow is resize for the workspace: a buffer it must grow gets room
// for twice its old size and for minRank at least, so a worker's rising
// ranks reallocate it a few times, not once per new maximum.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, 0, max(n, 2*cap(s), minRank))
	}
	s = s[:n]
	clear(s)
	return s
}

// lists returns s resized to k lists, keeping every list s has held —
// beyond its length too — so their storage is reused. It grows as grow
// does, and a new list starts as a listCap window of one shared slab
// (C is diagonal or nearly so, DESIGN.md §12): two allocations per
// growth, not one per list.
func lists[T any](s [][]T, k int) [][]T {
	if c := cap(s); k > c {
		n := max(k, 2*c, minRank)
		out, slab := make([][]T, n), make([]T, (n-c)*listCap)
		copy(out, s[:c])
		for j := c; j < n; j++ {
			out[j], slab = slab[:0:listCap], slab[listCap:]
		}
		s = out
	}
	return s[:k]
}

const minRank, listCap = 64, 4 // a sweep's ranks are a few dozen

// carve returns an empty slice over the next m elements of *arena, with
// capacity m, and advances the arena past them: appending up to m
// elements fills the slice in place and never reaches a neighbour.
func carve[T any](arena *[]T, m int) []T {
	s := (*arena)[:0:m]
	*arena = (*arena)[m:]
	return s
}

// Rank returns the rank k of the correction.
func (u *Updated) Rank() int { return len(u.rows) }

// NNZ returns the number of values the corrector stores — the update
// entries, the capacitance factors' off-diagonal nonzeros and pivots,
// and the inverse columns' nonzeros — which its size and the cost of a
// correction grow with.
func (u *Updated) NNZ() int {
	return len(u.vVal) + len(u.lVal) + len(u.uVal) + len(u.diag) + len(u.wVal)
}

// CorrectInto applies the SMW correction to a base solution: given
// y = A⁻¹ b it stores M⁻¹ b into dst. dst and y may be the same slice;
// y is not otherwise modified, so one precomputed base solution can be
// corrected against many scenarios. Not safe for concurrent use on one
// Updated (it reuses internal k-sized scratch); concurrent callers use
// CorrectIntoScratch.
func (u *Updated) CorrectInto(dst, y []float64) error {
	if k := u.Rank(); u.z == nil && k > 0 {
		u.z = make([]float64, k)
		u.y = make([]float64, k)
	}
	return u.CorrectIntoScratch(dst, y, u.z, u.y)
}

// CorrectIntoScratch is CorrectInto with caller-owned k-sized scratch
// (z and yk, each at least Rank() long), making one Updated safe to
// share read-only across goroutines — the sweep shares a capacitance
// factorization across all scenarios with the same update signature.
//
// It visits only stored nonzeros: z = Vᵀy over V's entries, dst = y
// when z is all zero, the substitutions over L's and U's off-diagonal
// nonzeros and dst −= W·yk over W's. Every term it skips is a product
// with an exact zero, and it adds the others in the dense loop's order,
// so dst equals the dense correction's under ==; only the sign of an
// exact zero can differ. With n = 0 or k = 0 it leaves dst = y.
func (u *Updated) CorrectIntoScratch(dst, y, z, yk []float64) error {
	if len(dst) != u.n || len(y) != u.n {
		return fmt.Errorf("linsolve: correction length %d/%d != %d", len(dst), len(y), u.n)
	}
	k := u.Rank()
	if len(z) < k || len(yk) < k {
		return fmt.Errorf("linsolve: correction scratch %d/%d < rank %d", len(z), len(yk), k)
	}
	z, yk = z[:k], yk[:k]
	// z = Vᵀ y.
	touched := false
	for i := range z {
		s := 0.0
		for t := u.vOff[i]; t < u.vOff[i+1]; t++ {
			s += u.vVal[t] * y[u.vCol[t]]
		}
		z[i] = s
		touched = touched || s != 0
	}
	if u.n > 0 && &dst[0] != &y[0] {
		copy(dst, y)
	}
	if !touched {
		return nil
	}
	// yk = C⁻¹ z: permute, then forward through the unit lower factor
	// and back through the upper one, row by row as the dense solve goes.
	for i := range yk {
		s := z[u.perm[i]]
		for t := u.lOff[i]; t < u.lOff[i+1]; t++ {
			s -= u.lVal[t] * yk[u.lCol[t]]
		}
		yk[i] = s
	}
	for i := k - 1; i >= 0; i-- {
		s := yk[i]
		for t := u.uOff[i]; t < u.uOff[i+1]; t++ {
			s -= u.uVal[t] * yk[u.uCol[t]]
		}
		yk[i] = s / u.diag[i]
	}
	// dst -= W yk.
	for j, f := range yk {
		if f == 0 {
			continue
		}
		rows, vals := u.wRow[u.wOff[j]:u.wOff[j+1]], u.wVal[u.wOff[j]:u.wOff[j+1]]
		for t, r := range rows {
			dst[r] -= f * vals[t]
		}
	}
	return nil
}
