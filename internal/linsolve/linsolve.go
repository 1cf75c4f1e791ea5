// Package linsolve solves the linear systems that arise when PCF
// realizes logical-sequence reservations as a concrete routing (paper
// §4.1): M·U = D where M is the reservation matrix, an invertible
// M-matrix (Proposition 5), given as sparse rows. It provides a sparse
// LU with Markowitz pivoting for exactness, Sherman–Morrison–Woodbury
// corrections of a factored matrix under a few changed rows (their k×k
// capacitance factored by a small dense LU with partial pivoting), and
// the Jacobi iteration that exploits the M-matrix structure — the
// "simple and memory-efficient iterative algorithms" the paper points
// to for distributed implementations.
package linsolve

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the coefficient matrix is numerically
// singular.
var ErrSingular = errors.New("linsolve: singular matrix")

// ErrNoConvergence is returned (wrapped, alongside a partial
// IterResult) when an iterative solve exhausts its sweep budget before
// reaching the residual target. Matched with errors.Is.
var ErrNoConvergence = errors.New("linsolve: iteration did not converge")

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
	for i := range f.perm {
		f.perm[i] = i
	}
	for c := 0; c < n; c++ {
		// Partial pivot.
		p, best := -1, 0.0
		for r := c; r < n; r++ {
			if v := math.Abs(f.lu[r*n+c]); v > best {
				best, p = v, r
			}
		}
		if p < 0 || best < 1e-13 {
			return nil, ErrSingular
		}
		if p != c {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[c*n+j] = f.lu[c*n+j], f.lu[p*n+j]
			}
			f.perm[p], f.perm[c] = f.perm[c], f.perm[p]
		}
		pv := f.lu[c*n+c]
		for r := c + 1; r < n; r++ {
			m := f.lu[r*n+c] / pv
			f.lu[r*n+c] = m
			if m == 0 {
				continue
			}
			for j := c + 1; j < n; j++ {
				f.lu[r*n+j] -= m * f.lu[c*n+j]
			}
		}
	}
	return f, nil
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

// IterResult reports the outcome of an iterative solve.
type IterResult struct {
	X          []float64
	Iterations int
	Residual   float64
}

// Jacobi solves A x = b by Jacobi iteration, the fully parallel /
// distributed iteration of the paper's §4.3, with A given as sparse
// rows (duplicate columns within a row are summed, as FactorSparseRows
// sums them). It converges for the weakly chained diagonally dominant
// M-matrices produced by PCF's reservation construction. maxIter
// bounds sweeps; tol is the max-norm residual target.
func Jacobi(rows [][]SparseEntry, b []float64, maxIter int, tol float64) (*IterResult, error) {
	n := len(rows)
	if len(b) != n {
		return nil, fmt.Errorf("linsolve: %d sparse rows, rhs length %d", n, len(b))
	}
	diag := make([]float64, n)
	for i, row := range rows {
		for _, e := range row {
			if e.Col < 0 || e.Col >= n {
				return nil, fmt.Errorf("linsolve: row %d references column %d out of range [0,%d)", i, e.Col, n)
			}
			if e.Col == i {
				diag[i] += e.Val
			}
		}
		if math.Abs(diag[i]) < 1e-13 {
			return nil, ErrSingular
		}
	}
	// A diverged iterate makes the residual NaN, which is not converged:
	// hence !(res <= tol) rather than res > tol.
	x, next := make([]float64, n), make([]float64, n)
	res := math.Inf(1)
	it := 0
	for ; it < maxIter && !(res <= tol); it++ {
		for i, row := range rows {
			s := b[i]
			for _, e := range row {
				if e.Col != i {
					s -= e.Val * x[e.Col]
				}
			}
			next[i] = s / diag[i]
		}
		x, next = next, x
		res = residual(rows, x, b)
	}
	out := &IterResult{X: x, Iterations: it, Residual: res}
	if !(res <= tol) {
		return out, fmt.Errorf("%w in %d iterations (residual %g)", ErrNoConvergence, maxIter, res)
	}
	return out, nil
}

// residual returns the max-norm of A x − b over sparse rows (NaN if any
// row's is).
func residual(rows [][]SparseEntry, x, b []float64) float64 {
	worst := 0.0
	for i, row := range rows {
		s := -b[i]
		for _, e := range row {
			s += e.Val * x[e.Col]
		}
		worst = max(worst, math.Abs(s))
	}
	return worst
}
