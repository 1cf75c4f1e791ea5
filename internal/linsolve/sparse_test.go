package linsolve

import (
	"math"
	"math/rand"
	"testing"
)

// sparseFromDense converts a row-major dense matrix to sparse rows,
// dropping exact zeros.
func sparseFromDense(a []float64, n int) [][]SparseEntry {
	rows := make([][]SparseEntry, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := a[i*n+j]; v != 0 {
				rows[i] = append(rows[i], SparseEntry{Col: j, Val: v})
			}
		}
	}
	return rows
}

// sparseSolve solves A x = b against sparse factors into a fresh x.
func sparseSolve(f *SparseLU, b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	return x, f.SolveInto(x, b)
}

// randSparseMatrix builds a random diagonally dominant n×n matrix with
// roughly fill off-diagonal nonzeros per row — always invertible, the
// shape of PCF reservation systems.
func randSparseMatrix(rng *rand.Rand, n, fill int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for t := 0; t < fill; t++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.Float64()*2 - 1
			a[i*n+j] += v
			rowSum += math.Abs(a[i*n+j])
		}
		a[i*n+i] = rowSum + 1 + rng.Float64()
	}
	return a
}

func TestSparseLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 17, 60, 144} {
		a := randSparseMatrix(rng, n, 4)
		dense, err := Factor(a, n)
		if err != nil {
			t.Fatalf("n=%d: dense factor: %v", n, err)
		}
		sp, err := FactorSparseRows(sparseFromDense(a, n), n)
		if err != nil {
			t.Fatalf("n=%d: sparse factor: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		xd, err := solveWith(dense, nil, b)
		if err != nil {
			t.Fatalf("n=%d: dense solve: %v", n, err)
		}
		xs, err := sparseSolve(sp, b)
		if err != nil {
			t.Fatalf("n=%d: sparse solve: %v", n, err)
		}
		for i := range xd {
			if math.Abs(xd[i]-xs[i]) > 1e-9*(1+math.Abs(xd[i])) {
				t.Fatalf("n=%d: x[%d] dense %.12g sparse %.12g", n, i, xd[i], xs[i])
			}
		}
		if r := residual(sparseFromDense(a, n), xs, b); r > 1e-8 {
			t.Fatalf("n=%d: sparse residual %g", n, r)
		}
	}
}

func TestSparseLUTransposeSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 3, 12, 48, 100} {
		a := randSparseMatrix(rng, n, 3)
		sp, err := FactorSparseRows(sparseFromDense(a, n), n)
		if err != nil {
			t.Fatalf("n=%d: factor: %v", n, err)
		}
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.Float64()*4 - 2
		}
		y := make([]float64, n)
		if err := sp.SolveTransposeIntoScratch(y, c, make([]float64, n)); err != nil {
			t.Fatalf("n=%d: transpose solve: %v", n, err)
		}
		// Check Aᵀ y = c directly.
		for j := 0; j < n; j++ {
			s := -c[j]
			for i := 0; i < n; i++ {
				s += a[i*n+j] * y[i]
			}
			if math.Abs(s) > 1e-8 {
				t.Fatalf("n=%d: transpose residual %g at col %d", n, s, j)
			}
		}
	}
}

func TestSparseLUDuplicateColsSummed(t *testing.T) {
	// Row entries with repeated columns must sum, matching the dense
	// accumulation the sweep's delta construction performs.
	rows := [][]SparseEntry{
		{{Col: 0, Val: 2}, {Col: 1, Val: 1}, {Col: 0, Val: 1}}, // 3, 1
		{{Col: 1, Val: 4}},
	}
	sp, err := FactorSparseRows(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sparseSolve(sp, []float64{5, 8})
	if err != nil {
		t.Fatal(err)
	}
	// 3x0 + x1 = 5, 4x1 = 8 → x1 = 2, x0 = 1.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("got x = %v, want [1 2]", x)
	}
}

func TestSparseLUSingular(t *testing.T) {
	// A structurally singular matrix (empty row) and a numerically
	// singular one (duplicate rows) must both report ErrSingular.
	if _, err := FactorSparseRows([][]SparseEntry{{{Col: 0, Val: 1}}, nil}, 2); err != ErrSingular {
		t.Fatalf("empty row: got %v, want ErrSingular", err)
	}
	rows := [][]SparseEntry{
		{{Col: 0, Val: 1}, {Col: 1, Val: 2}},
		{{Col: 0, Val: 2}, {Col: 1, Val: 4}},
	}
	if _, err := FactorSparseRows(rows, 2); err != ErrSingular {
		t.Fatalf("dependent rows: got %v, want ErrSingular", err)
	}
}

func TestSparseLUFillStaysBounded(t *testing.T) {
	// On a tridiagonal system Markowitz ordering should produce no
	// fill at all: factors no larger than the input.
	n := 400
	rows := make([][]SparseEntry, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			rows[i] = append(rows[i], SparseEntry{Col: i - 1, Val: -1})
		}
		rows[i] = append(rows[i], SparseEntry{Col: i, Val: 4})
		if i < n-1 {
			rows[i] = append(rows[i], SparseEntry{Col: i + 1, Val: -1})
		}
	}
	sp, err := FactorSparseRows(rows, n)
	if err != nil {
		t.Fatal(err)
	}
	if got, in := sp.FactorNNZ(), 3*n-2; got > in {
		t.Fatalf("tridiagonal fill: factors %d nnz > input %d", got, in)
	}
}

func TestSparseLUDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 80
	a := randSparseMatrix(rng, n, 5)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	f1, err := FactorSparseRows(sparseFromDense(a, n), n)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FactorSparseRows(sparseFromDense(a, n), n)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := sparseSolve(f1, b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := sparseSolve(f2, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("factorization not deterministic at x[%d]: %x vs %x", i, x1[i], x2[i])
		}
	}
}

// TestSparseFactorizerReuse: one workspace refilled across 50 seeded
// matrices of varying size and fill (growing, shrinking, a singular one
// in between) solves every system bit-identically to a fresh
// FactorSparseRows — nothing survives from one factorization into the
// next.
func TestSparseFactorizerReuse(t *testing.T) {
	var w SparseFactorizer
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		rows := sparseFromDense(randSparseMatrix(rng, n, 1+rng.Intn(7)), n)
		if seed%10 == 0 {
			rows[n/2] = nil // singular: the workspace must recover from an aborted factorization
		}
		ptr, ents := flattenRows(rows)
		fresh, ferr := FactorSparseRows(rows, n)
		reused, rerr := w.Factor(n, ptr, ents)
		if ferr != rerr {
			t.Fatalf("seed %d: fresh err %v, reused err %v", seed, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		if fresh.FactorNNZ() != reused.FactorNNZ() {
			t.Fatalf("seed %d: factor nnz fresh %d, reused %d", seed, fresh.FactorNNZ(), reused.FactorNNZ())
		}
		b, scratch := make([]float64, n), make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xf, xr := make([]float64, n), make([]float64, n)
		for _, solve := range []func(*SparseLU, []float64) error{
			func(f *SparseLU, x []float64) error { return f.SolveIntoScratch(x, b, scratch) },
			func(f *SparseLU, x []float64) error { return f.SolveTransposeIntoScratch(x, b, scratch) },
		} {
			if err := solve(fresh, xf); err != nil {
				t.Fatal(err)
			}
			if err := solve(reused, xr); err != nil {
				t.Fatal(err)
			}
			for i := range xf {
				if math.Float64bits(xf[i]) != math.Float64bits(xr[i]) {
					t.Fatalf("seed %d (n=%d): x[%d] fresh %x, reused %x", seed, n, i, xf[i], xr[i])
				}
			}
		}
	}
}

// TestSparseFactorizerSteadyStateAllocs: once the arenas have grown,
// refactoring and solving allocate nothing.
func TestSparseFactorizerSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	ptr, ents := flattenRows(sparseFromDense(randSparseMatrix(rng, n, 6), n))
	b, x, scratch := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var w SparseFactorizer
	cycle := func() {
		f, err := w.Factor(n, ptr, ents)
		if err != nil {
			t.Fatal(err)
		}
		if f.SolveIntoScratch(x, b, scratch) != nil || f.SolveTransposeIntoScratch(x, b, scratch) != nil {
			t.Fatal("solve failed")
		}
	}
	cycle() // warm-up
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("factor + solve + transpose solve allocates %v times per cycle in steady state", allocs)
	}
}

// TestResizeGrowsGeometrically: a workspace buffer that must grow gets
// twice its old capacity, zeroed to the asked length, so factoring
// kernels of sizes 1..64 in one workspace reallocates a buffer a few
// times, not at every size.
func TestResizeGrowsGeometrically(t *testing.T) {
	s := resize([]int{7, 7, 7}, 5)
	if len(s) != 5 || cap(s) != 6 {
		t.Fatalf("len %d cap %d, want 5 and 6", len(s), cap(s))
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("element %d = %d after resize", i, v)
		}
	}
	var w SparseFactorizer
	grown := 0
	for n := 1; n <= 64; n++ {
		ptr, ents := make([]int, n+1), make([]SparseEntry, n)
		for i := range ents {
			ptr[i+1] = i + 1
			ents[i] = SparseEntry{Col: i, Val: 2}
		}
		before := cap(w.lu.rowPerm)
		if _, err := w.Factor(n, ptr, ents); err != nil {
			t.Fatal(err)
		}
		if cap(w.lu.rowPerm) != before {
			grown++
		}
	}
	if grown > 8 {
		t.Fatalf("the row permutation was reallocated %d times over sizes 1..64", grown)
	}
}
