package linsolve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solve factors the dense matrix and solves one right-hand side.
func solve(a, b []float64, n int) ([]float64, error) {
	f, err := Factor(a, n)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	return x, f.SolveInto(x, b)
}

func TestSolveIdentity(t *testing.T) {
	a := []float64{1, 0, 0, 1}
	x, err := solve(a, []float64{3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore pcflint/floatcmp this 2x2 integer system eliminates without rounding; the solution is exact
	if x[0] != 3 || x[1] != 4 {
		t.Fatalf("got %v", x)
	}
}

func TestSolveKnown3x3(t *testing.T) {
	// 2x + y - z = 8; -3x - y + 2z = -11; -2x + y + 2z = -3
	// Solution: x=2, y=3, z=-1.
	a := []float64{2, 1, -1, -3, -1, 2, -2, 1, 2}
	x, err := solve(a, []float64{8, -11, -3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSingularDetected(t *testing.T) {
	a := []float64{1, 2, 2, 4}
	if _, err := solve(a, []float64{1, 2}, 2); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestPivotingNeeded(t *testing.T) {
	// Zero on the first diagonal entry forces a row swap.
	a := []float64{0, 1, 1, 0}
	x, err := solve(a, []float64{5, 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-5) > 1e-12 {
		t.Fatalf("got %v", x)
	}
}

func randDiagDominant(rng *rand.Rand, n int) ([]float64, []float64) {
	a := make([]float64, n*n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := -rng.Float64() // M-matrix: nonpositive off-diagonal
				a[i*n+j] = v
				rowSum += math.Abs(v)
			}
		}
		a[i*n+i] = rowSum + 0.5 + rng.Float64() // strictly dominant
		b[i] = rng.Float64() * 10
	}
	return a, b
}

// residual returns the max-norm of A x − b over sparse rows (NaN if any
// row's is): the check every solve in this package's tests is held to.
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

func TestResidual(t *testing.T) {
	a := []float64{2, 0, 0, 2}
	x := []float64{1, 1}
	b := []float64{2, 3}
	if r := residual(sparseFromDense(a, 2), x, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("residual = %g, want 1", r)
	}
	if r := residual(sparseFromDense(a, 2), []float64{math.NaN(), 1}, b); !math.IsNaN(r) {
		t.Fatalf("residual over a NaN iterate = %g, want NaN", r)
	}
}

// Property: LU solve of a random well-conditioned diagonally dominant
// system always reproduces b within tight tolerance.
func TestPropertyLURoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(21))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a, b := randDiagDominant(rng, n)
		x, err := solve(a, b, n)
		if err != nil {
			return false
		}
		return residual(sparseFromDense(a, n), x, b) < 1e-8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDimensionMismatch(t *testing.T) {
	if _, err := Factor([]float64{1, 2, 3}, 2); err == nil {
		t.Fatal("expected length error")
	}
	f, _ := Factor([]float64{1, 0, 0, 1}, 2)
	if err := f.SolveInto(make([]float64, 2), []float64{1}); err == nil {
		t.Fatal("expected rhs length error")
	}
}
