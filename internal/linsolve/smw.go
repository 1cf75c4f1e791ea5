package linsolve

import (
	"errors"
	"fmt"
	"math"

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

// UpdateFactorizer is the workspace correctors are built in: the k×k
// capacitance is formed and factored in a buffer later builds reuse,
// and only the nonzeros of its factors are copied out, so a caller that
// builds many correctors (the routing sweep) allocates no k×k matrix
// per corrector. Not safe for concurrent use. The zero value is ready.
type UpdateFactorizer struct {
	c    []float64 // the capacitance, row-major, factored in place
	perm []int
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
// inverse columns without holding the base factorization itself: the
// caller supplies cols[j] = A⁻¹ e_{ups[j].Row} however A is factored
// (dense LU or SparseLU). Callers sweeping many scenarios against one
// base factorization compute the inverse columns they need once and
// pass views here. The updates and the columns' nonzeros are copied, so
// the caller may reuse both once Factor returns. The capacitance is
// factored in the workspace by the partial-pivot elimination Factor
// runs, so the pivots, and the verdicts below, are that routine's.
func (w *UpdateFactorizer) Factor(n int, ups []RowUpdate, cols [][]float64) (*Updated, error) {
	k := len(ups)
	if len(cols) != k {
		return nil, fmt.Errorf("linsolve: %d inverse columns for %d updates", len(cols), k)
	}
	for j, up := range ups {
		if up.Row < 0 || up.Row >= n {
			return nil, fmt.Errorf("linsolve: update row %d out of range [0,%d)", up.Row, n)
		}
		if len(up.Cols) != len(up.Vals) {
			return nil, fmt.Errorf("linsolve: update row %d has %d cols, %d vals", up.Row, len(up.Cols), len(up.Vals))
		}
		if len(cols[j]) != n {
			return nil, fmt.Errorf("linsolve: inverse column %d has length %d != %d", j, len(cols[j]), n)
		}
		for _, c := range up.Cols {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("linsolve: update row %d references column %d out of range [0,%d)", up.Row, c, n)
			}
		}
	}
	// Capacitance C = I_k + Vᵀ W: C[i][j] = δ_ij + d_iᵀ · cols[j].
	w.c, w.perm = resize(w.c, k*k), resize(w.perm, k)
	c := w.c
	maxEntry := 0.0
	for i, up := range ups {
		for j := 0; j < k; j++ {
			s := 0.0
			col := cols[j]
			for t, cc := range up.Cols {
				s += up.Vals[t] * col[cc]
			}
			if i == j {
				s += 1
			}
			c[i*k+j] = s
			if v := math.Abs(s); v > maxEntry {
				maxEntry = v
			}
		}
	}
	if err := factorDense(c, w.perm, k); err != nil {
		return nil, err
	}
	minPivot := math.Inf(1)
	for i := 0; i < k; i++ {
		if v := math.Abs(c[i*k+i]); v < minPivot {
			minPivot = v
		}
	}
	if k > 0 && maxEntry > tol.SMWCondition*minPivot {
		return nil, fmt.Errorf("%w: max entry %g, min pivot %g", ErrIllConditioned, maxEntry, minPivot)
	}
	return w.detach(n, ups, cols)
}

// detach copies what a correction reads out of the factored workspace
// into a corrector of its own, whose two arenas are allocated once, at
// their final size.
func (w *UpdateFactorizer) detach(n int, ups []RowUpdate, cols [][]float64) (*Updated, error) {
	k, c := len(ups), w.c
	nv, nl, nu, nw := 0, 0, 0, 0
	for _, up := range ups {
		nv += len(up.Cols)
	}
	for i := 0; i < k; i++ {
		for j, v := range c[i*k : i*k+k] {
			switch {
			case v == 0:
			case j < i:
				nl++
			case j > i:
				nu++
			}
		}
	}
	for _, col := range cols {
		for _, v := range col {
			if v != 0 {
				nw++
			}
		}
	}
	nInts := 6*k + 4 + nv + nl + nu + nw // rows, perm and four offset lists
	if n > math.MaxInt32 || nInts > math.MaxInt32 {
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
	for i := 0; i < k; i++ {
		u.perm = append(u.perm, int32(w.perm[i]))
		for j, v := range c[i*k : i*k+k] {
			switch {
			case v == 0:
			case j < i:
				u.lCol, u.lVal = append(u.lCol, int32(j)), append(u.lVal, v)
			case j > i:
				u.uCol, u.uVal = append(u.uCol, int32(j)), append(u.uVal, v)
			}
		}
		u.diag = append(u.diag, c[i*k+i])
		u.lOff, u.uOff = append(u.lOff, int32(len(u.lCol))), append(u.uOff, int32(len(u.uCol)))
	}

	u.wOff, u.wRow, u.wVal = carve(&ints, k+1), carve(&ints, nw), carve(&vals, nw)
	u.wOff = append(u.wOff, 0)
	for _, col := range cols {
		for i, v := range col {
			if v != 0 {
				u.wRow, u.wVal = append(u.wRow, int32(i)), append(u.wVal, v)
			}
		}
		u.wOff = append(u.wOff, int32(len(u.wRow)))
	}
	return u, nil
}

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
