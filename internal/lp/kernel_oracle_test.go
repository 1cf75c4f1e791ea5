package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"pcf/internal/linsolve"
)

// This file is the oracle half of TestKernelSolveMatchesFullLU
// (kernel_test.go, package lp_test, where the corpus, gadget and Sprint
// models can be imported): it reaches into a part-way simplex state and
// compares the kernel block solve with a Markowitz LU of the whole m×m
// basis, which shares none of the partition code.

// KernelShape reports what the oracle saw in the basis it checked, so
// the test can assert that the corner cases were really exercised.
type KernelShape struct {
	K, M int
	// NegArtificial: a basic artificial with sign −1. SingleStructural:
	// a structural (model-variable) column covering a row.
	// ForeignSlack: a slack or artificial of row r basic at a position
	// other than r.
	NegArtificial, SingleStructural, ForeignSlack bool
}

// ErrKernelSingular is KernelOracleAt's verdict when refactor rejects
// the basis.
var ErrKernelSingular = errors.New("lp: refactor reports a singular basis")

// KernelOracle cold-starts cm, runs at most pivots simplex iterations
// (phase 1 first when the start needs it), and compares ftran, btran,
// invRow and applyInv with the full LU twice: with the eta chain the
// pivots left behind, and again after a refactorization.
func KernelOracle(cm *Compiled, pivots int) (KernelShape, error) {
	opts := Options{MaxIter: pivots}.withDefaults(cm.nRows, cm.nCols)
	st := newSimplexState(cm, opts)
	if pivots > 0 {
		feasible := true
		if st.slackRows < st.m {
			status, err := st.phase1()
			if err != nil {
				return KernelShape{}, err
			}
			feasible = status == StatusOptimal
		}
		if feasible {
			if _, err := st.runPhase(st.phase2Cost(), false); err != nil {
				return KernelShape{}, err
			}
		}
	}
	if err := st.compareWithFullLU(); err != nil {
		return KernelShape{}, fmt.Errorf("with %d etas: %w", len(st.fac.etas), err)
	}
	if !st.refactor() {
		return KernelShape{}, ErrKernelSingular
	}
	return st.kernelShape(), st.compareWithFullLU()
}

// KernelOracleAt installs the given basis (std column per position;
// −(r+1) for row r's artificial, signed sign) and refactors; a basis
// the partition accepts is compared with the full LU.
func KernelOracleAt(cm *Compiled, cols []int, sign float64) (KernelShape, error) {
	st := newSimplexState(cm, Options{}.withDefaults(cm.nRows, cm.nCols))
	clear(st.inB)
	for p, j := range cols {
		if j < 0 {
			st.artSign[-j-1] = sign
			j = cm.nCols - j - 1
		}
		st.basis[p] = j
		st.inB[j] = true
	}
	if !st.refactor() {
		return KernelShape{}, ErrKernelSingular
	}
	return st.kernelShape(), st.compareWithFullLU()
}

// SlackColumn and VarColumn give the std columns KernelOracleAt takes.
func (cm *Compiled) SlackColumn(row int) int { return cm.slack[cm.stdRow[row]] }
func (cm *Compiled) VarColumn(v Var) int     { return cm.refs[v].pos }

func (st *simplexState) kernelShape() KernelShape {
	sh := KernelShape{K: len(st.fac.kPos), M: st.m}
	for p, j := range st.basis {
		col := st.col(j)
		if len(col) != 1 {
			continue
		}
		switch {
		case j >= st.cm.nCols:
			sh.NegArtificial = sh.NegArtificial || col[0].val < 0
		case st.cm.maps[j].v >= 0:
			sh.SingleStructural = true
		}
		if col[0].row != p && (j >= st.cm.nCols || st.cm.maps[j].v < 0) {
			sh.ForeignSlack = true
		}
	}
	return sh
}

// compareWithFullLU checks the four solve entry points of st.fac — in
// whatever state it is, eta chain included — against a one-shot LU of
// the current basis matrix, to 1e-12 of each result's largest entry.
func (st *simplexState) compareWithFullLU() error {
	m := st.m
	rows := make([][]linsolve.SparseEntry, m)
	for p, j := range st.basis {
		for _, e := range st.col(j) {
			rows[e.row] = append(rows[e.row], linsolve.SparseEntry{Col: p, Val: e.val})
		}
	}
	lu, err := linsolve.FactorSparseRows(rows, m)
	if err != nil {
		return fmt.Errorf("full LU oracle: %w", err)
	}
	agree := func(what string, got, want []float64) error {
		scale := 1.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*scale {
				return fmt.Errorf("%s[%d] = %.17g, full LU %.17g (k=%d of m=%d)", what, i, got[i], want[i], len(st.fac.kPos), m)
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(int64(m)))
	got, want, rhs := make([]float64, m), make([]float64, m), make([]float64, m)

	for j := 0; j < st.cm.nCols+m; j += 1 + (st.cm.nCols+m)/40 {
		st.colVec(j, rhs)
		if err := lu.SolveInto(want, rhs); err != nil {
			return err
		}
		st.ftran(j, got)
		if err := agree(fmt.Sprintf("ftran(col %d)", j), got, want); err != nil {
			return err
		}
	}
	for trial := 0; trial < 3; trial++ {
		for i := range rhs {
			rhs[i] = 0
			if rng.Intn(3) > 0 {
				rhs[i] = rng.NormFloat64()
			}
		}
		if err := lu.SolveTransposeIntoScratch(want, rhs, make([]float64, len(rhs))); err != nil {
			return err
		}
		st.fac.btran(rhs, nonZeros(rhs), got)
		if err := agree("btran", got, want); err != nil {
			return err
		}
		if err := lu.SolveInto(want, rhs); err != nil {
			return err
		}
		st.fac.applyInv(rhs, got)
		if err := agree("applyInv", got, want); err != nil {
			return err
		}
	}
	for r := 0; r < m; r += 1 + m/25 {
		clear(rhs)
		rhs[r] = 1
		if err := lu.SolveTransposeIntoScratch(want, rhs, make([]float64, len(rhs))); err != nil {
			return err
		}
		st.fac.invRow(r, got)
		if err := agree(fmt.Sprintf("invRow(%d)", r), got, want); err != nil {
			return err
		}
	}
	return nil
}

// colVec materializes std column j (including artificials) densely into
// dst.
func (st *simplexState) colVec(j int, dst []float64) {
	clear(dst)
	for _, e := range st.col(j) {
		dst[e.row] = e.val
	}
}

// nonZeros lists the positions where v is non-zero, ascending: what
// btran takes beside its input.
func nonZeros(v []float64) []int {
	var nz []int
	for p, x := range v {
		if x != 0 {
			nz = append(nz, p)
		}
	}
	return nz
}
