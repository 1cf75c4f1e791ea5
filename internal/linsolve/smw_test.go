package linsolve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pcf/internal/tol"
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

// denseCorrect is the SMW correction as it was before correctors kept
// only their nonzeros, kept here as the oracle: the capacitance formed
// and factored as a dense k×k LU, its verdicts (ErrSingular,
// ErrIllConditioned), then z = Vᵀy, a dense solve for yk and every
// entry of every inverse column subtracted.
func denseCorrect(n int, ups []RowUpdate, cols [][]float64, dst, y []float64) error {
	k := len(ups)
	c := make([]float64, k*k)
	maxEntry := 0.0
	for i, up := range ups {
		for j := 0; j < k; j++ {
			s := 0.0
			for t, cc := range up.Cols {
				s += up.Vals[t] * cols[j][cc]
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
		return err
	}
	minPivot := math.Inf(1)
	for i := 0; i < k; i++ {
		if v := math.Abs(cf.lu[i*k+i]); v < minPivot {
			minPivot = v
		}
	}
	if k > 0 && maxEntry > tol.SMWCondition*minPivot {
		return ErrIllConditioned
	}
	z, yk := make([]float64, k), make([]float64, k)
	for i, up := range ups {
		s := 0.0
		for t, cc := range up.Cols {
			s += up.Vals[t] * y[cc]
		}
		z[i] = s
	}
	if err := cf.SolveInto(yk, z); err != nil {
		return err
	}
	if n > 0 && &dst[0] != &y[0] {
		copy(dst, y)
	}
	for j, col := range cols {
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

// inverseColumns solves base for the inverse column of each updated row.
func inverseColumns(t *testing.T, base *LU, ups []RowUpdate) [][]float64 {
	t.Helper()
	cols := make([][]float64, len(ups))
	for j, up := range ups {
		e := make([]float64, base.n)
		e[up.Row] = 1
		var err error
		if cols[j], err = solveWith(base, nil, e); err != nil {
			t.Fatal(err)
		}
	}
	return cols
}

// blockMMatrix is randomMMatrix's kind of matrix, block-diagonal with
// blocks of size b: the inverse is block-diagonal too, so an update
// that stays inside its row's block couples only rows of one block.
// b = 1 is the diagonal base a PCF-TF plan has.
func blockMMatrix(rng *rand.Rand, n, b int) []float64 {
	a := make([]float64, n*n)
	for lo := 0; lo < n; lo += b {
		hi := min(lo+b, n)
		blk := randomMMatrix(rng, hi-lo)
		for i := lo; i < hi; i++ {
			copy(a[i*n+lo:i*n+hi], blk[(i-lo)*(hi-lo):(i-lo+1)*(hi-lo)])
		}
	}
	return a
}

// blockRowUpdates perturbs k distinct rows, in ascending row order, each
// in columns of its own block only — the diagonal bumped, other block
// columns replaced by fresh nonpositive values — so C = I + VᵀW is
// block-diagonal with the base's blocks (diagonal for b = 1).
func blockRowUpdates(rng *rand.Rand, a []float64, n, b, k int) []RowUpdate {
	rows := rng.Perm(n)[:k]
	slices.Sort(rows)
	ups := make([]RowUpdate, 0, k)
	for _, r := range rows {
		lo, hi := r/b*b, min(r/b*b+b, n)
		up := RowUpdate{Row: r}
		grown := 0.0
		for c := lo; c < hi; c++ {
			if c == r || rng.Float64() >= 0.5 {
				continue
			}
			next := -rng.Float64()
			if delta := next - a[r*n+c]; delta != 0 {
				up.Cols, up.Vals = append(up.Cols, c), append(up.Vals, delta)
				grown += math.Abs(next)
			}
		}
		up.Cols, up.Vals = append(up.Cols, r), append(up.Vals, grown+0.5+rng.Float64())
		ups = append(ups, up)
	}
	return ups
}

// sameUnderEq requires got and want to be equal entry by entry under
// ==, the sparse correction's contract with the dense one: bit-equal
// but for the sign of an exact zero.
func sameUnderEq(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		//lint:ignore pcflint/floatcmp the sparse correction adds the dense one's terms in its order and skips only exact-zero products, so the sums are equal, not close
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %.17g, dense oracle %.17g", what, i, got[i], want[i])
		}
	}
}

// TestSparseCorrectorMatchesDense: on seeded M-matrix bases whose
// capacitance is diagonal, block-diagonal or fully dense, the sparse
// corrector equals the dense oracle under == for dense, sparse and
// untouched (z = 0) right-hand sides, into a separate dst and into y
// itself, and the factors it keeps are as sparse as the capacitance: a
// diagonal one stores no off-diagonal factor entry. Every corrector is
// built in one reused workspace and must not share it with the last.
func TestSparseCorrectorMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	shapes := []struct {
		name  string
		block func(n int) int // block size of the base; n: fully dense
	}{
		{"diagonal", func(int) int { return 1 }},
		{"block-diagonal", func(int) int { return 4 }},
		{"dense", func(n int) int { return n }},
	}
	// One workspace for every trial, as a sweep worker has, so k grows
	// and shrinks under it; prev is the last trial's corrector with a
	// right-hand side and its oracle answer.
	var work UpdateFactorizer
	var prev struct {
		upd     *Updated
		y, want []float64
	}
	for _, sh := range shapes {
		for trial := 0; trial < 60; trial++ {
			n := 3 + rng.Intn(38)
			k := 1 + rng.Intn(n/2+1)
			b := sh.block(n)
			a := blockMMatrix(rng, n, b)
			base, err := Factor(a, n)
			if err != nil {
				t.Fatal(err)
			}
			var ups []RowUpdate
			if b == n {
				ups = randomRowUpdates(rng, a, n, k)
			} else {
				ups = blockRowUpdates(rng, a, n, b, k)
			}
			cols := inverseColumns(t, base, ups)
			upd, err := work.Factor(n, ups, cols)
			if err != nil {
				t.Fatalf("%s trial %d: %v", sh.name, trial, err)
			}
			// A corrector owns what it reads: building this one in the
			// workspace left the last one's answers as they were.
			if prev.upd != nil {
				got := make([]float64, len(prev.y))
				if err := prev.upd.CorrectInto(got, prev.y); err != nil {
					t.Fatal(err)
				}
				sameUnderEq(t, fmt.Sprintf("%s trial %d: the previous corrector", sh.name, trial), got, prev.want)
			}
			if b == 1 && len(upd.lVal)+len(upd.uVal) != 0 {
				t.Fatalf("%s trial %d: a diagonal capacitance kept %d off-diagonal factor entries", sh.name, trial, len(upd.lVal)+len(upd.uVal))
			}
			// Right-hand sides: dense, two-thirds zeros, and zero on
			// every column an update reads.
			dense, sparse, untouched := make([]float64, n), make([]float64, n), make([]float64, n)
			read := make([]bool, n)
			for _, up := range ups {
				for _, c := range up.Cols {
					read[c] = true
				}
			}
			for i := range dense {
				dense[i] = rng.NormFloat64()
				if rng.Intn(3) == 0 {
					sparse[i] = rng.NormFloat64()
				}
				if !read[i] {
					untouched[i] = rng.NormFloat64()
				}
			}
			for _, y := range [][]float64{dense, sparse, untouched} {
				what := fmt.Sprintf("%s trial %d (n=%d k=%d)", sh.name, trial, n, k)
				want := make([]float64, n)
				if err := denseCorrect(n, ups, cols, want, y); err != nil {
					t.Fatalf("%s: oracle: %v", what, err)
				}
				got := make([]float64, n)
				if err := upd.CorrectIntoScratch(got, y, make([]float64, k), make([]float64, k)); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameUnderEq(t, what, got, want)
				aliased := slices.Clone(y)
				if err := upd.CorrectInto(aliased, aliased); err != nil {
					t.Fatalf("%s: aliased: %v", what, err)
				}
				sameUnderEq(t, what+" aliased", aliased, want)
				prev.upd, prev.y, prev.want = upd, y, want
			}
			untouchedOut := make([]float64, n)
			if err := upd.CorrectInto(untouchedOut, untouched); err != nil {
				t.Fatal(err)
			}
			sameUnderEq(t, "untouched right-hand side", untouchedOut, untouched)
		}
	}
}

// TestSparseCorrectorVerdicts: the corrector refuses exactly where the
// dense oracle does, with the same error — a singular capacitance, an
// ill-conditioned one — and the empty cases are defined: n = 0 (which
// used to panic on the aliasing test) and k = 0 leave dst = y, into a
// separate dst or y itself.
func TestSparseCorrectorVerdicts(t *testing.T) {
	id := []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	for _, tc := range []struct {
		name string
		n    int
		a    []float64
		ups  []RowUpdate
		want error // nil: corrects
	}{
		{"singular", 3, id, []RowUpdate{{Row: 0, Cols: []int{0}, Vals: []float64{-1}}}, ErrSingular},
		{"ill-conditioned", 3, id, []RowUpdate{
			{Row: 0, Cols: []int{0}, Vals: []float64{-1 + 1e-12}},
			{Row: 1, Cols: []int{1}, Vals: []float64{1}},
		}, ErrIllConditioned},
		{"k = 0", 3, id, nil, nil},
		{"n = 0", 0, nil, nil, nil},
	} {
		base, err := Factor(tc.a, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		cols := inverseColumns(t, base, tc.ups)
		y := make([]float64, tc.n)
		for i := range y {
			y[i] = float64(i + 1)
		}
		oracleErr := denseCorrect(tc.n, tc.ups, cols, make([]float64, tc.n), y)
		upd, err := NewUpdated(tc.n, tc.ups, cols)
		if !errors.Is(err, tc.want) || !errors.Is(oracleErr, tc.want) || (tc.want == nil) != (err == nil) {
			t.Fatalf("%s: NewUpdated error %v, oracle %v, want %v", tc.name, err, oracleErr, tc.want)
		}
		if err != nil {
			if _, rerr := base.RankUpdate(tc.ups); !errors.Is(rerr, tc.want) {
				t.Fatalf("%s: RankUpdate error %v, want %v", tc.name, rerr, tc.want)
			}
			continue
		}
		dst := make([]float64, tc.n)
		if err := upd.CorrectInto(dst, y); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameUnderEq(t, tc.name, dst, y)
		aliased := slices.Clone(y)
		if err := upd.CorrectInto(aliased, aliased); err != nil {
			t.Fatalf("%s: aliased: %v", tc.name, err)
		}
		sameUnderEq(t, tc.name+" aliased", aliased, y)
	}
	// The path the panic took: an empty base, its rank-0 update, then an
	// empty correction.
	base, err := Factor(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := base.RankUpdate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := upd.CorrectInto([]float64{}, []float64{}); err != nil {
		t.Fatal(err)
	}
}

// denseBuild is the corrector build as it was before it touched only
// nonzeros, kept here as the oracle for UpdateFactorizer: C = I + VᵀW
// formed entry by entry from the dense inverse columns, factored by
// factorDense, the condition check, then every nonzero found by
// scanning C's factors and the k dense columns.
func denseBuild(n int, ups []RowUpdate, cols [][]float64) (*Updated, error) {
	k := len(ups)
	c, perm := make([]float64, k*k), make([]int, k)
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
	if err := factorDense(c, perm, k); err != nil {
		return nil, err
	}
	minPivot := math.Inf(1)
	for i := 0; i < k; i++ {
		if v := math.Abs(c[i*k+i]); v < minPivot {
			minPivot = v
		}
	}
	if k > 0 && maxEntry > tol.SMWCondition*minPivot {
		return nil, ErrIllConditioned
	}
	u := &Updated{n: n, vOff: []int32{0}, lOff: []int32{0}, uOff: []int32{0}, wOff: []int32{0}}
	for _, up := range ups {
		u.rows = append(u.rows, int32(up.Row))
		for t, cc := range up.Cols {
			u.vCol, u.vVal = append(u.vCol, int32(cc)), append(u.vVal, up.Vals[t])
		}
		u.vOff = append(u.vOff, int32(len(u.vCol)))
	}
	for i := 0; i < k; i++ {
		u.perm = append(u.perm, int32(perm[i]))
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

// sparseColumns gathers each dense column's nonzeros, as the routing
// engine memoizes its inverse columns.
func sparseColumns(cols [][]float64) []SparseColumn {
	out := make([]SparseColumn, len(cols))
	for j, col := range cols {
		for i, v := range col {
			if v != 0 {
				out[j].Row, out[j].Val = append(out[j].Row, int32(i)), append(out[j].Val, v)
			}
		}
	}
	return out
}

// correctorDiff names the first field in which got differs from want,
// bit for bit ("" when none does): the updated rows, V, the
// permutation, L, U, the pivots and W.
func correctorDiff(got, want *Updated) string {
	if got.n != want.n {
		return fmt.Sprintf("n %d, want %d", got.n, want.n)
	}
	ints := []struct {
		name      string
		got, want []int32
	}{
		{"rows", got.rows, want.rows}, {"vOff", got.vOff, want.vOff}, {"vCol", got.vCol, want.vCol},
		{"perm", got.perm, want.perm}, {"lOff", got.lOff, want.lOff}, {"lCol", got.lCol, want.lCol},
		{"uOff", got.uOff, want.uOff}, {"uCol", got.uCol, want.uCol},
		{"wOff", got.wOff, want.wOff}, {"wRow", got.wRow, want.wRow},
	}
	for _, f := range ints {
		if !slices.Equal(f.got, f.want) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	vals := []struct {
		name      string
		got, want []float64
	}{
		{"vVal", got.vVal, want.vVal}, {"lVal", got.lVal, want.lVal}, {"uVal", got.uVal, want.uVal},
		{"diag", got.diag, want.diag}, {"wVal", got.wVal, want.wVal},
	}
	for _, f := range vals {
		if !slices.EqualFunc(f.got, f.want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// buildsAgree builds the corrector of ups and cols in w from the dense
// columns (Factor) and from their nonzeros (FactorSparse) and requires
// both to give the dense oracle's verdict and, when it builds, its
// corrector field for field. It returns the oracle's corrector and
// error.
func buildsAgree(t *testing.T, what string, w *UpdateFactorizer, n int, ups []RowUpdate, cols [][]float64) (*Updated, error) {
	t.Helper()
	want, wantErr := denseBuild(n, ups, cols)
	for _, b := range []struct {
		name  string
		build func() (*Updated, error)
	}{
		{"Factor", func() (*Updated, error) { return w.Factor(n, ups, cols) }},
		{"FactorSparse", func() (*Updated, error) { return w.FactorSparse(n, ups, sparseColumns(cols)) }},
	} {
		got, err := b.build()
		for _, verdict := range []error{ErrSingular, ErrIllConditioned} {
			if errors.Is(err, verdict) != errors.Is(wantErr, verdict) {
				t.Fatalf("%s: %s error %v, dense oracle %v", what, b.name, err, wantErr)
			}
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: %s error %v, dense oracle %v", what, b.name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if d := correctorDiff(got, want); d != "" {
			t.Fatalf("%s: %s corrector differs from the dense oracle's: %s", what, b.name, d)
		}
	}
	return want, wantErr
}

// TestSparseBuildMatchesDenseBuild: on TestSparseCorrectorMatchesDense's
// shapes — a diagonal, block-diagonal and fully dense capacitance — the
// corrector built from nonzeros is the dense build's in every field,
// bit for bit, whether its columns arrive dense or sparse, in one
// workspace reused across every trial.
func TestSparseBuildMatchesDenseBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var work UpdateFactorizer
	for _, block := range []func(n int) int{
		func(int) int { return 1 },
		func(int) int { return 4 },
		func(n int) int { return n },
	} {
		for trial := 0; trial < 60; trial++ {
			n := 3 + rng.Intn(38)
			k := 1 + rng.Intn(n/2+1)
			b := block(n)
			a := blockMMatrix(rng, n, b)
			base, err := Factor(a, n)
			if err != nil {
				t.Fatal(err)
			}
			var ups []RowUpdate
			if b == n {
				ups = randomRowUpdates(rng, a, n, k)
			} else {
				ups = blockRowUpdates(rng, a, n, b, k)
			}
			what := fmt.Sprintf("block %d trial %d (n=%d k=%d)", b, trial, n, k)
			if _, err := buildsAgree(t, what, &work, n, ups, inverseColumns(t, base, ups)); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
}

// capacitanceUpdates returns updates of the identity whose capacitance
// is c (k×k, row-major): with A = I and rows 0..k-1, W = I and
// C = I + V, so update i carries c's row i less the identity. c's
// diagonal must survive the round trip d − 1 + 1 exactly.
func capacitanceUpdates(c []float64, k int) (ups []RowUpdate, cols [][]float64) {
	for i := 0; i < k; i++ {
		up := RowUpdate{Row: i}
		for j := 0; j < k; j++ {
			v := c[i*k+j]
			if i == j {
				v--
			}
			if v != 0 {
				up.Cols, up.Vals = append(up.Cols, j), append(up.Vals, v)
			}
		}
		ups = append(ups, up)
		col := make([]float64, k)
		col[i] = 1
		cols = append(cols, col)
	}
	return ups, cols
}

// TestSparseBuildCraftedCapacitances holds the build to the dense one
// on the capacitances its pivot rule and zero skipping are for: a tie
// between two rows whose current order is not their index order (the
// earlier position wins), a fill that cancels to exactly zero, zero
// pivot columns (ErrSingular) and both sides of the tol.SMWCondition
// boundary (ErrIllConditioned strictly beyond it).
func TestSparseBuildCraftedCapacitances(t *testing.T) {
	above := math.Nextafter(tol.SMWCondition, math.Inf(1))
	for _, tc := range []struct {
		name  string
		k     int
		c     []float64
		want  error
		check func(u *Updated) string
	}{
		// Column 0 swaps row 2 to the top, leaving row 1 before row 0;
		// in column 1 they tie at magnitude 3, and row 1 must win.
		{"tie in current order", 3, []float64{
			1, 3, 1,
			2, -3, 1,
			5, 0, 1,
		}, nil, func(u *Updated) string {
			if !slices.Equal(u.perm, []int32{2, 1, 0}) {
				return fmt.Sprintf("perm %v, want [2 1 0]", u.perm)
			}
			return ""
		}},
		// Row 3 fills in column 2 at step 0 (−1) and the fill cancels at
		// step 1 (−1 − (−½)·2 = 0): its multiplier there is zero, so L's
		// row 3 keeps only columns 0 and 1.
		{"fill cancels to zero", 4, []float64{
			4, 0, 2, 0,
			0, 4, 2, 0,
			0, 0, 1, 0,
			2, -2, 0, 1,
		}, nil, func(u *Updated) string {
			if got := u.lCol[u.lOff[3]:u.lOff[4]]; !slices.Equal(got, []int32{0, 1}) {
				return fmt.Sprintf("L row 3 columns %v, want [0 1]", got)
			}
			return ""
		}},
		{"entry cancels to zero", 3, []float64{
			4, 2, 1,
			2, 1, 3,
			0, 1, 0,
		}, nil, nil},
		{"zero column", 3, []float64{
			1, 0, 0,
			0, 0, 0,
			0, 0, 1,
		}, ErrSingular, nil},
		{"zero pivot column after elimination", 2, []float64{
			1, 1,
			1, 1,
		}, ErrSingular, nil},
		{"at the condition bound", 2, []float64{
			tol.SMWCondition, 0,
			0, 1,
		}, nil, nil},
		{"beyond the condition bound", 2, []float64{
			above, 0,
			0, 1,
		}, ErrIllConditioned, nil},
	} {
		ups, cols := capacitanceUpdates(tc.c, tc.k)
		var work UpdateFactorizer
		u, err := buildsAgree(t, tc.name, &work, tc.k, ups, cols)
		if !errors.Is(err, tc.want) || (err == nil) != (tc.want == nil) {
			t.Fatalf("%s: verdict %v, want %v", tc.name, err, tc.want)
		}
		if tc.check != nil {
			if msg := tc.check(u); msg != "" {
				t.Fatalf("%s: %s", tc.name, msg)
			}
		}
	}
}

// FuzzCorrectorMatchesDense draws small bases — diagonal, block,
// near-diagonal and dense M-matrices — and sparse row updates, some of
// them zeroing a row or scaling it toward singularity, and requires the
// build from nonzeros to give the dense oracle's verdict and corrector,
// field for field; the second build in the same workspace, of a subset
// of the updates, must too.
func FuzzCorrectorMatchesDense(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		for shape := uint8(0); shape < 4; shape++ {
			f.Add(seed, uint8(5+seed*3), uint8(1+seed), shape, uint8(seed%3))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, nb, kb, shape, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nb)%24
		k := 1 + int(kb)%n
		var a []float64
		var ups []RowUpdate
		switch shape % 4 {
		case 0, 1: // diagonal or block base, updates within a block
			b := 1
			if shape%4 == 1 {
				b = 2 + rng.Intn(4)
			}
			a = blockMMatrix(rng, n, b)
			ups = blockRowUpdates(rng, a, n, b, k)
		case 2: // near-diagonal: a diagonal base with a few couplings
			a = blockMMatrix(rng, n, 1)
			for i := 0; i < n; i++ {
				if j := rng.Intn(n); j != i && rng.Intn(4) == 0 {
					a[i*n+j] = -rng.Float64() * a[i*n+i] / 2
				}
			}
			ups = randomRowUpdates(rng, a, n, k)
		default:
			a = randomMMatrix(rng, n)
			ups = randomRowUpdates(rng, a, n, k)
		}
		switch mode % 3 {
		case 1: // zero one updated row: a singular capacitance
			up := &ups[rng.Intn(len(ups))]
			up.Cols, up.Vals = up.Cols[:0], up.Vals[:0]
			for c := 0; c < n; c++ {
				if v := a[up.Row*n+c]; v != 0 {
					up.Cols, up.Vals = append(up.Cols, c), append(up.Vals, -v)
				}
			}
		case 2: // scale one update toward cancelling its row
			up := &ups[rng.Intn(len(ups))]
			s := -math.Pow(10, -float64(rng.Intn(16)))
			up.Cols, up.Vals = up.Cols[:0], up.Vals[:0]
			for c := 0; c < n; c++ {
				if v := a[up.Row*n+c]; v != 0 {
					up.Cols, up.Vals = append(up.Cols, c), append(up.Vals, (1+s)*-v)
				}
			}
		}
		base, err := Factor(a, n)
		if err != nil {
			t.Skip("base singular")
		}
		cols := inverseColumns(t, base, ups)
		var work UpdateFactorizer
		what := fmt.Sprintf("seed %d shape %d mode %d (n=%d k=%d)", seed, shape%4, mode%3, n, k)
		buildsAgree(t, what, &work, n, ups, cols)
		half := len(ups) / 2
		buildsAgree(t, what+", second build", &work, n, ups[half:], cols[half:])
	})
}
