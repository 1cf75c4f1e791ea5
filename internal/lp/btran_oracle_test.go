package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file is the oracle half of TestBTRANMatchesDenseOracle
// (btran_test.go, package lp_test, where the corpus, gadget and Sprint
// models can be imported), and holds the dense BTRAN the non-zero walk
// in factor.go replaced.

// denseBTRAN is the BTRAN this package ran before it followed the
// non-zeros of its input, kept as the oracle: every entry of c, zero or
// not, goes through every transposed eta, every covered row is priced,
// and every entry of N is subtracted from the kernel's right-hand side.
func denseBTRAN(f *sparseFactor, c []float64) ([]float64, error) {
	v := append([]float64(nil), c...)
	for t := len(f.etas) - 1; t >= 0; t-- {
		e, start := f.etas[t], 0
		if t > 0 {
			start = f.etas[t-1].end
		}
		s := v[e.r]
		for _, z := range f.etaEnt[start:e.end] {
			s -= z.Val * v[z.Col]
		}
		v[e.r] = s / e.dr
	}
	y := make([]float64, len(f.cover))
	for r, p := range f.cover {
		if p >= 0 {
			y[r] = v[p] / f.unit[r]
		}
	}
	k := len(f.kPos)
	if k == 0 {
		return y, nil
	}
	kb, kx, kw := make([]float64, k), make([]float64, k), make([]float64, k)
	for i, p := range f.kPos {
		s := v[p]
		for _, e := range f.nEnt[f.nPtr[i]:f.nPtr[i+1]] {
			s -= e.val * y[e.row]
		}
		kb[i] = s
	}
	if err := f.lu.SolveTransposeIntoScratch(kx, kb, kw); err != nil {
		return nil, err
	}
	for i, r := range f.kRows {
		y[r] = kx[i]
	}
	return y, nil
}

// equalEntries reports the first index where got and want differ under
// ==, which takes +0 and −0 as equal: the only difference the skipped
// zero products can make.
func equalEntries(got, want []float64) error {
	for i := range want {
		//lint:ignore pcflint/floatcmp the walk must reproduce the oracle exactly: every term it skips is an exact zero
		if got[i] != want[i] {
			return fmt.Errorf("y[%d] = %.17g, dense %.17g", i, got[i], want[i])
		}
	}
	return nil
}

// checkListed reports whether nz lists, strictly ascending, every
// position where c is non-zero.
func checkListed(c []float64, nz []int) error {
	for i := 1; i < len(nz); i++ {
		if nz[i] <= nz[i-1] {
			return fmt.Errorf("non-zero list not ascending at %d: %v", i, nz)
		}
	}
	listed := 0
	for p, v := range c {
		if listed < len(nz) && nz[listed] == p {
			listed++
			continue
		}
		if v != 0 {
			return fmt.Errorf("c[%d] = %g is missing from the non-zero list", p, v)
		}
	}
	return nil
}

// checkBasicCosts holds the state's kept c_B and its list to a fresh
// gather over the basis.
func checkBasicCosts(st *simplexState) error {
	bc := &st.costs
	var want []int
	for p, j := range st.basis {
		//lint:ignore pcflint/floatcmp c_B holds copies of the cost entries, so a stale one differs exactly
		if bc.cB[p] != bc.cost[j] {
			return fmt.Errorf("c_B[%d] = %g, the cost of basic column %d is %g", p, bc.cB[p], j, bc.cost[j])
		}
		if bc.cost[j] != 0 {
			want = append(want, p)
		}
	}
	if fmt.Sprint(bc.nz) != fmt.Sprint(want) {
		return fmt.Errorf("c_B's non-zero list %v, gathered %v", bc.nz, want)
	}
	return nil
}

// BTRANTrace is what SolveWithBTRANOracle saw: every pivot as
// (entering column, leaving row), in order, and how many BTRANs it
// compared with the dense oracle.
type BTRANTrace struct {
	Pivots  [][2]int
	Checked int
}

// SolveWithBTRANOracle solves cm with opts, recording every pivot and
// holding c_B and its non-zero list to a fresh gather after each. With
// dense set, every BTRAN — pricing, the dual ratio row, dual
// feasibility, the duals, driving artificials out — also runs the dense
// oracle on the same input, must agree with it entry for entry, and the
// solve continues on the oracle's prices. The first disagreement is
// returned as the error.
func SolveWithBTRANOracle(cm *Compiled, opts Options, dense bool) (*Solution, BTRANTrace, error) {
	f := cm.workspace()
	var tr BTRANTrace
	var bad error
	fail := func(err error) {
		if bad == nil {
			bad = err
		}
	}
	f.hooks = &testHooks{pivot: func(st *simplexState, enter, leave int) {
		tr.Pivots = append(tr.Pivots, [2]int{enter, leave})
		if err := checkBasicCosts(st); err != nil {
			fail(fmt.Errorf("after pivot %d: %w", len(tr.Pivots), err))
		}
	}}
	if dense {
		f.hooks.btran = func(c []float64, nz []int, y []float64) {
			want, err := denseBTRAN(f, c)
			if err == nil {
				err = checkListed(c, nz)
			}
			hooks := f.hooks
			f.hooks = nil
			f.btran(c, nz, y)
			f.hooks = hooks
			if err == nil {
				err = equalEntries(y, want)
			}
			if err != nil {
				fail(fmt.Errorf("BTRAN %d (%d etas, %d listed): %w", tr.Checked, len(f.etas), len(nz), err))
				return
			}
			copy(y, want)
			tr.Checked++
		}
	}
	defer func() { f.hooks = nil }()
	sol, err := cm.Solve(opts)
	if err == nil {
		err = bad
	}
	return sol, tr, err
}

// TestBTRANWalksMatchDenseOracle pins both eta walks on crafted inputs
// over a part-way basis of an LP whose columns fill a third of their
// rows, so its etas are long: a single listed position takes the search
// walk, every position listed the whole-list walk on every eta. Each
// BTRAN, with the pivots' etas live and after a refactorization, must
// equal the dense oracle entry for entry and leave the work vector all
// zero for the next FTRAN.
func TestBTRANWalksMatchDenseOracle(t *testing.T) {
	const rows, cols = 60, 90
	rng := rand.New(rand.NewSource(1))
	m := NewModel()
	x := make([]Var, cols)
	obj := NewExpr()
	for j := range x {
		x[j] = m.AddNonNeg()
		obj.Add(1+rng.Float64(), x[j])
	}
	for i := 0; i < rows; i++ {
		e := NewExpr()
		for j := range x {
			if rng.Intn(3) == 0 {
				e.Add(1+rng.Float64(), x[j])
			}
		}
		m.AddConstraint(e, LE, 10)
	}
	m.SetObjective(obj, Maximize)
	cm := Compile(m)
	st := newSimplexState(cm, Options{MaxIter: 80}.withDefaults(cm.nRows, cm.nCols))
	if _, err := st.runPhase(st.phase2Cost(), false); err != nil {
		t.Fatal(err)
	}
	// One listed position takes the search walk on the newest eta when
	// it has three entries or more (1·bits.Len(n) < n); m listed
	// positions never do. A slack basic away from its own row's position
	// makes position order and row order differ, which the carry through
	// N must not follow.
	f, n := st.fac, len(st.fac.etas)
	if n < 2 || f.etas[n-1].end-f.etas[n-2].end < 3 || len(f.kPos) == 0 {
		t.Fatalf("%d etas, kernel %d: too little for both walks to run", n, len(f.kPos))
	}
	foreign := false
	for p, r := range f.covRow {
		foreign = foreign || (r >= 0 && r != p)
	}
	if !foreign {
		t.Fatal("every covered row sits at its own position: row order is not exercised")
	}
	y := make([]float64, st.m)
	for _, chain := range []string{"etas", "refactored"} {
		if chain == "refactored" && !st.refactor() {
			t.Fatal("refactor failed")
		}
		for trial := 0; trial < 40; trial++ {
			c := make([]float64, st.m)
			var nz []int
			switch {
			case trial < 30: // one position: the search walk
				p := rng.Intn(st.m)
				c[p], nz = rng.NormFloat64(), []int{p}
			default: // every position: the whole-list walk
				for p := range c {
					c[p] = rng.NormFloat64()
					nz = append(nz, p)
				}
			}
			want, err := denseBTRAN(f, c)
			if err != nil {
				t.Fatal(err)
			}
			f.btran(c, nz, y)
			if err := equalEntries(y, want); err != nil {
				t.Fatalf("%s, trial %d (%d listed): %v", chain, trial, len(nz), err)
			}
			for p, v := range f.rhs {
				if v != 0 {
					t.Fatalf("%s, trial %d: BTRAN left rhs[%d] = %g", chain, trial, p, v)
				}
			}
		}
	}
}
