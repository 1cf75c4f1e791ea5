package linsolve

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomMMatrix builds a diagonally dominant M-matrix like the
// reservation matrices of §4.1: positive diagonal, nonpositive sparse
// off-diagonals, strictly dominant rows.
func randomMMatrix(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < 0.3 {
				v := rng.Float64()
				a[i*n+j] = -v
				off += v
			}
		}
		a[i*n+i] = off + 0.1 + rng.Float64()
	}
	return a
}

// randomRowUpdates perturbs k distinct rows sparsely, keeping the
// updated matrix diagonally dominant so both paths stay well posed.
func randomRowUpdates(rng *rand.Rand, a []float64, n, k int) []RowUpdate {
	rows := rng.Perm(n)[:k]
	ups := make([]RowUpdate, 0, k)
	for _, r := range rows {
		var cols []int
		var vals []float64
		grown := 0.0
		for c := 0; c < n; c++ {
			if c == r || rng.Float64() >= 0.4 {
				continue
			}
			// Replace the off-diagonal with a fresh nonpositive value
			// (a tunnel/LS reservation appearing or vanishing).
			next := -rng.Float64()
			if rng.Float64() < 0.3 {
				next = 0
			}
			delta := next - a[r*n+c]
			if delta == 0 {
				continue
			}
			cols = append(cols, c)
			vals = append(vals, delta)
			grown += math.Abs(next)
		}
		// Bump the diagonal enough to preserve strict dominance.
		cols = append(cols, r)
		vals = append(vals, grown+0.5+rng.Float64())
		ups = append(ups, RowUpdate{Row: r, Cols: cols, Vals: vals})
	}
	return ups
}

func applyUpdates(a []float64, n int, ups []RowUpdate) []float64 {
	m := make([]float64, len(a))
	copy(m, a)
	for _, up := range ups {
		for t, c := range up.Cols {
			m[up.Row*n+c] += up.Vals[t]
		}
	}
	return m
}

// solveWith solves A x = b against a dense factorization and, when upd
// is set, corrects the result into the solution of the updated matrix.
func solveWith(base *LU, upd *Updated, b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := base.SolveInto(x, b); err != nil {
		return nil, err
	}
	if upd != nil {
		if err := upd.CorrectInto(x, x); err != nil {
			return nil, err
		}
	}
	return x, nil
}

func relErr(got, want []float64) float64 {
	worst := 0.0
	for i := range got {
		d := math.Abs(got[i] - want[i])
		if s := math.Abs(want[i]); s > 1 {
			d /= s
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestRankUpdateMatchesCold is the core SMW contract: for seeded random
// M-matrices and sparse row updates, the low-rank path agrees with a
// cold factorization of the updated matrix to 1e-9 relative.
func TestRankUpdateMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(38)
		k := 1 + rng.Intn(n/2+1)
		a := randomMMatrix(rng, n)
		base, err := Factor(a, n)
		if err != nil {
			t.Fatalf("trial %d: base factor: %v", trial, err)
		}
		ups := randomRowUpdates(rng, a, n, k)
		upd, err := base.RankUpdate(ups)
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d): RankUpdate: %v", trial, n, k, err)
		}
		m := applyUpdates(a, n, ups)
		cold, err := Factor(m, n)
		if err != nil {
			t.Fatalf("trial %d: cold factor: %v", trial, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, err := solveWith(base, upd, b)
		if err != nil {
			t.Fatalf("trial %d: SMW solve: %v", trial, err)
		}
		want, err := solveWith(cold, nil, b)
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		if e := relErr(got, want); e > 1e-9 {
			t.Fatalf("trial %d (n=%d k=%d): SMW vs cold relative error %g > 1e-9", trial, n, k, e)
		}
		if r := residual(sparseFromDense(m, n), got, b); r > 1e-8 {
			t.Fatalf("trial %d: SMW residual %g", trial, r)
		}
	}
}

// TestRankUpdateColsSharesInverseColumns checks the cached-column entry
// point used by the routing sweep: a corrector built by NewUpdated from
// precomputed inverse columns gives the same answers as RankUpdate,
// which solves for them.
func TestRankUpdateColsSharesInverseColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 17
	a := randomMMatrix(rng, n)
	base, err := Factor(a, n)
	if err != nil {
		t.Fatal(err)
	}
	// Full inverse, one column per row.
	inv := make([][]float64, n)
	e := make([]float64, n)
	for r := 0; r < n; r++ {
		e[r] = 1
		inv[r], err = solveWith(base, nil, e)
		if err != nil {
			t.Fatal(err)
		}
		e[r] = 0
	}
	ups := randomRowUpdates(rng, a, n, 4)
	cols := make([][]float64, len(ups))
	for j, up := range ups {
		cols[j] = inv[up.Row]
	}
	viaCols, err := NewUpdated(n, ups, cols)
	if err != nil {
		t.Fatal(err)
	}
	viaSolve, err := base.RankUpdate(ups)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1, err := solveWith(base, viaCols, b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := solveWith(base, viaSolve, b)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(x1, x2); e > 1e-12 {
		t.Fatalf("cached-column path diverges from solve path: %g", e)
	}
	if got := viaCols.Rank(); got != 4 {
		t.Fatalf("Rank() = %d, want 4", got)
	}
}

// TestCorrectIntoReusesBaseSolution checks the scenario-sweep calling
// convention: y = A⁻¹b computed once, corrected per update set, with
// dst aliasing allowed and y preserved.
func TestCorrectIntoReusesBaseSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 12
	a := randomMMatrix(rng, n)
	base, err := Factor(a, n)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	y, err := solveWith(base, nil, b)
	if err != nil {
		t.Fatal(err)
	}
	ySnapshot := append([]float64(nil), y...)
	ups := randomRowUpdates(rng, a, n, 3)
	upd, err := base.RankUpdate(ups)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, n)
	if err := upd.CorrectInto(dst, y); err != nil {
		t.Fatal(err)
	}
	if e := relErr(y, ySnapshot); e != 0 {
		t.Fatalf("CorrectInto modified y (err %g)", e)
	}
	// The reference corrects a fresh copy of y through the scratch-owning
	// form with scratch of its own.
	want := append([]float64(nil), y...)
	k := upd.Rank()
	if err := upd.CorrectIntoScratch(want, want, make([]float64, k), make([]float64, k)); err != nil {
		t.Fatal(err)
	}
	if e := relErr(dst, want); e > 1e-12 {
		t.Fatalf("CorrectInto diverges from CorrectIntoScratch: %g", e)
	}
	// Aliased: dst == y.
	if err := upd.CorrectInto(y, y); err != nil {
		t.Fatal(err)
	}
	if e := relErr(y, want); e > 1e-12 {
		t.Fatalf("aliased CorrectInto diverges: %g", e)
	}
}

// TestRankUpdateSingular makes a row update that zeroes a row: the
// capacitance matrix is singular and the guard must refuse so callers
// fall back to a cold factorization (which then reports the same).
func TestRankUpdateSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 9
	a := randomMMatrix(rng, n)
	base, err := Factor(a, n)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]int, 0, n)
	vals := make([]float64, 0, n)
	for c := 0; c < n; c++ {
		if v := a[4*n+c]; v != 0 {
			cols = append(cols, c)
			vals = append(vals, -v)
		}
	}
	_, err = base.RankUpdate([]RowUpdate{{Row: 4, Cols: cols, Vals: vals}})
	if err == nil {
		t.Fatal("RankUpdate accepted a singular update")
	}
	if !errors.Is(err, ErrSingular) && !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("want ErrSingular or ErrIllConditioned, got %v", err)
	}
}

// TestRankUpdateValidation pins the defensive checks.
func TestRankUpdateValidation(t *testing.T) {
	a := []float64{2, 0, 0, 2}
	base, err := Factor(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.RankUpdate([]RowUpdate{{Row: 5}}); err == nil {
		t.Fatal("accepted out-of-range row")
	}
	if _, err := NewUpdated(2, []RowUpdate{{Row: 0, Cols: []int{0}, Vals: []float64{1, 2}}},
		[][]float64{{1, 0}}); err == nil {
		t.Fatal("accepted cols/vals length mismatch")
	}
	if _, err := NewUpdated(2, []RowUpdate{{Row: 0, Cols: []int{3}, Vals: []float64{1}}},
		[][]float64{{1, 0}}); err == nil {
		t.Fatal("accepted out-of-range column")
	}
	if _, err := NewUpdated(2, []RowUpdate{{Row: 0, Cols: []int{0}, Vals: []float64{1}}},
		nil); err == nil {
		t.Fatal("accepted missing inverse columns")
	}
	// Rank-0 update: the identity correction.
	upd, err := base.RankUpdate(nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := solveWith(base, upd, []float64{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("rank-0 solve = %v, want [2 3]", x)
	}
}
