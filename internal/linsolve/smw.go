package linsolve

import (
	"errors"
	"fmt"
	"math"
)

// ErrIllConditioned is returned when a low-rank update's capacitance
// matrix is too ill-conditioned for the Sherman–Morrison–Woodbury
// correction to be trusted. Callers should refactorize cold. Matched
// with errors.Is.
var ErrIllConditioned = errors.New("linsolve: update capacitance ill-conditioned")

// capCondLimit bounds the crude capacitance condition estimate
// (max-entry over smallest pivot). Beyond it the SMW correction can
// amplify round-off past the 1e-9 agreement contract, so RankUpdate
// refuses and the caller falls back to a fresh factorization.
const capCondLimit = 1e12

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
// construction. Each solve costs O(nk + k²) given y, instead of the
// O(n³) of refactorizing M — the regime PCF's failure scenarios live
// in, where a scenario touches only the few reservation-matrix rows
// whose tunnels or logical sequences the failed links affect.
type Updated struct {
	n    int
	ups  []RowUpdate
	w    [][]float64 // w[j] = A⁻¹ e_{ups[j].Row} (column of the inverse)
	cf   *LU         // capacitance factorization
	z, y []float64   // k-sized scratch, allocated on first CorrectInto
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
// inverse columns without holding the base factorization itself: the
// caller supplies cols[j] = A⁻¹ e_{ups[j].Row} however A is factored
// (dense LU or SparseLU). Callers sweeping many scenarios against one
// base factorization compute the inverse columns they need once and
// pass views here; the columns are retained (not copied) and must not
// be modified while the Updated is in use.
func NewUpdated(n int, ups []RowUpdate, cols [][]float64) (*Updated, error) {
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
	c := make([]float64, k*k)
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
	cf, err := Factor(c, k)
	if err != nil {
		return nil, err
	}
	minPivot := math.Inf(1)
	for i := 0; i < k; i++ {
		if v := math.Abs(cf.lu[i*k+i]); v < minPivot {
			minPivot = v
		}
	}
	if k > 0 && maxEntry > capCondLimit*minPivot {
		return nil, fmt.Errorf("%w: max entry %g, min pivot %g", ErrIllConditioned, maxEntry, minPivot)
	}
	return &Updated{n: n, ups: ups, w: cols, cf: cf}, nil
}

// Rank returns the rank k of the correction.
func (u *Updated) Rank() int { return len(u.ups) }

// CorrectInto applies the SMW correction to a base solution: given
// y = A⁻¹ b it stores M⁻¹ b into dst. dst and y may be the same slice;
// y is not otherwise modified, so one precomputed base solution can be
// corrected against many scenarios. Not safe for concurrent use on one
// Updated (it reuses internal k-sized scratch); concurrent callers use
// CorrectIntoScratch.
func (u *Updated) CorrectInto(dst, y []float64) error {
	if u.z == nil && len(u.ups) > 0 {
		u.z = make([]float64, len(u.ups))
		u.y = make([]float64, len(u.ups))
	}
	return u.CorrectIntoScratch(dst, y, u.z, u.y)
}

// CorrectIntoScratch is CorrectInto with caller-owned k-sized scratch
// (z and yk, each at least Rank() long), making one Updated safe to
// share read-only across goroutines — the sweep shares a capacitance
// factorization across all scenarios with the same update signature.
func (u *Updated) CorrectIntoScratch(dst, y, z, yk []float64) error {
	if len(dst) != u.n || len(y) != u.n {
		return fmt.Errorf("linsolve: correction length %d/%d != %d", len(dst), len(y), u.n)
	}
	k := len(u.ups)
	if len(z) < k || len(yk) < k {
		return fmt.Errorf("linsolve: correction scratch %d/%d < rank %d", len(z), len(yk), k)
	}
	z, yk = z[:k], yk[:k]
	// z = Vᵀ y.
	for i, up := range u.ups {
		s := 0.0
		for t, c := range up.Cols {
			s += up.Vals[t] * y[c]
		}
		z[i] = s
	}
	// yk = C⁻¹ z.
	if err := u.cf.SolveInto(yk, z); err != nil {
		return err
	}
	if &dst[0] != &y[0] {
		copy(dst, y)
	}
	// dst -= W yk.
	for j, col := range u.w {
		f := yk[j]
		if f == 0 {
			continue
		}
		for i := range dst {
			dst[i] -= f * col[i]
		}
	}
	return nil
}
