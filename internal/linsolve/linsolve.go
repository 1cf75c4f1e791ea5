// Package linsolve solves the linear systems that arise when PCF
// realizes logical-sequence reservations as a concrete routing (paper
// §4.1): M·U = D where M is the reservation matrix, an invertible
// M-matrix (Proposition 5), given as sparse rows. It provides a sparse
// LU with Markowitz pivoting for exactness, and Sherman–Morrison–Woodbury
// corrections of a factored matrix under a few changed rows (built
// from nonzeros only in a reused workspace, their k×k capacitance
// eliminated as sparse rows by the dense partial-pivot rule, each
// corrector keeping only the nonzeros of its rows, factors and inverse
// columns). The paper's §4.3 Jacobi iteration is not provided: it
// converges only on matrices the LU solves (DESIGN.md §9).
package linsolve

import (
	"errors"
	"fmt"
	"math"

	"pcf/internal/tol"
)

// ErrSingular is returned when the coefficient matrix is numerically
// singular.
var ErrSingular = errors.New("linsolve: singular matrix")

// LU is an LU factorization with partial pivoting of a small dense
// n x n matrix.
type LU struct {
	n    int
	lu   []float64 // combined L (unit lower) and U factors, row-major
	perm []int     // row permutation
}

// Factor computes the LU factorization of the row-major n x n matrix a.
// The input is not modified.
func Factor(a []float64, n int) (*LU, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("linsolve: matrix length %d != %d", len(a), n*n)
	}
	f := &LU{n: n, lu: make([]float64, n*n), perm: make([]int, n)}
	copy(f.lu, a)
	if err := factorDense(f.lu, f.perm, n); err != nil {
		return nil, err
	}
	return f, nil
}

// factorDense factors the row-major n×n matrix lu in place by Gaussian
// elimination with partial pivoting, leaving the multipliers of the
// unit lower factor below the diagonal, U on and above it, and the row
// permutation in perm. Factor and the SMW capacitance share it, so both
// pivot alike on the same numbers.
func factorDense(lu []float64, perm []int, n int) error {
	for i := range perm {
		perm[i] = i
	}
	for c := 0; c < n; c++ {
		// Partial pivot.
		p, best := -1, 0.0
		for r := c; r < n; r++ {
			if v := math.Abs(lu[r*n+c]); v > best {
				best, p = v, r
			}
		}
		if p < 0 || best < tol.Singular {
			return ErrSingular
		}
		if p != c {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[c*n+j] = lu[c*n+j], lu[p*n+j]
			}
			perm[p], perm[c] = perm[c], perm[p]
		}
		pv := lu[c*n+c]
		for r := c + 1; r < n; r++ {
			m := lu[r*n+c] / pv
			lu[r*n+c] = m
			if m == 0 {
				continue
			}
			for j := c + 1; j < n; j++ {
				lu[r*n+j] -= m * lu[c*n+j]
			}
		}
	}
	return nil
}

// SolveInto solves A x = b into a caller-owned buffer, for hot paths
// that reuse scratch across many solves. x must not overlap b.
func (f *LU) SolveInto(x, b []float64) error {
	n := f.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("linsolve: rhs length %d (dst %d) != %d", len(b), len(x), n)
	}
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution (unit lower).
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return nil
}
