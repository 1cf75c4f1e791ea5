package routing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
)

// TestCorrectorFootprint: on the carried Sprint PCF-CLS plan, whose
// active bypass LSs couple rows, so that its capacitances have
// off-diagonal factor entries, a corrector-cache miss allocates the
// same five objects at every rank — the cache entry, its signature, the
// corrector and its two arenas — and bytes linear in k and the
// corrector's nonzeros, with no k×k term; a hit allocates nothing. Only
// update sets that couple rows reach the cache, so only those are
// measured. (A whole warm scenario is TestSweepScenarioAllocs'.)
func TestCorrectorFootprint(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates on its own")
	}
	plan := carriedCLSPlan(t)
	sw := newSweep(t, plan)
	// The designed sweep memoizes every inverse column the loop below
	// needs and fills sw's cache; miss, a view with an empty cache of
	// bound 0, builds every corrector afresh and keeps none.
	if _, err := sw.ValidateStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	miss := &Sweep{engine: sw.engine, cors: &correctors{}}
	sr := sw.newScratch()
	maxRank := 0
	for _, sc := range designedSet(plan) {
		sw.activate(sc, sr)
		ups, _, err := sw.rowUpdates(sc, sr, sw.changedRows(sr))
		if err != nil || len(ups) == 0 || sw.decoupled(sr, ups) {
			continue
		}
		k := len(ups)
		upd, _ := miss.corrector(sr, ups) // grows sr's workspace to k
		if upd == nil {
			continue
		}
		//lint:ignore pcflint/floatcmp a small count is exact in float64
		if allocs := testing.AllocsPerRun(5, func() { miss.corrector(sr, ups) }); allocs != 5 {
			t.Fatalf("under %v (rank %d): a corrector miss allocates %.0f objects, want 5", sc, k, allocs)
		}
		if allocs := testing.AllocsPerRun(5, func() { sw.corrector(sr, ups) }); allocs != 0 {
			t.Fatalf("under %v (rank %d): a corrector hit allocates %.0f objects, want 0", sc, k, allocs)
		}
		const runs = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			miss.corrector(sr, ups)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		// The arenas hold 4 bytes per index (the updated rows, the
		// permutation, four offset lists and one index per stored value
		// but the pivots) and 8 per value; a size class rounds an
		// allocation up by at most a quarter plus 128 bytes, and the
		// entry and the corrector's own fields are a fixed kilobyte.
		raw := float64(len(sr.key) + 4*(6*k+4+upd.NNZ()) + 8*upd.NNZ())
		if limit := 1024 + 1.25*raw + 3*128; bytes > limit {
			t.Fatalf("under %v (rank %d, %d nonzeros): a corrector miss allocates %.0f bytes, want ≤ %.0f",
				sc, k, upd.NNZ(), bytes, limit)
		}
		if k > maxRank {
			maxRank = k
			t.Logf("rank %d: %d nonzeros, %.0f bytes per miss (a dense k×k capacitance alone is %d)", k, upd.NNZ(), bytes, 8*k*k)
		}
	}
	if maxRank < 10 {
		t.Fatalf("max rank %d: the plan no longer exercises rank", maxRank)
	}
}

// TestInverseColumnMemoHoldsNonzeros: after a designed sweep of the
// BTNorthAmerica PCF-CLS f=2 plan, every inverse column the engine has
// memoized is exactly the nonzeros of a fresh solve of that column,
// rows ascending, in slices no longer than that — so the memo's bytes
// are linear in its nonzeros plus a fixed header per column, with no
// n-per-column term.
func TestInverseColumnMemoHoldsNonzeros(t *testing.T) {
	_, plan := btnaPlans(t)
	sw := newSweep(t, plan)
	if _, err := sw.ValidateStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	n := sw.n
	e, dense := make([]float64, n), make([]float64, n)
	columns, nnz, bytes := 0, 0, 0
	for r := range sw.invCols {
		col := sw.invCols[r].Load()
		if col == nil {
			continue
		}
		columns++
		nnz += len(col.Row)
		bytes += int(unsafe.Sizeof(*col)) + 4*cap(col.Row) + 8*cap(col.Val)
		if cap(col.Row) != len(col.Row) || cap(col.Val) != len(col.Val) {
			t.Fatalf("column %d: %d nonzeros held in capacities %d and %d", r, len(col.Row), cap(col.Row), cap(col.Val))
		}
		e[r] = 1
		if err := sw.slu.SolveInto(dense, e); err != nil {
			t.Fatal(err)
		}
		e[r] = 0
		var want linsolve.SparseColumn
		for i, v := range dense {
			if v != 0 {
				want.Row, want.Val = append(want.Row, int32(i)), append(want.Val, v)
			}
		}
		if !slices.Equal(col.Row, want.Row) || !slices.Equal(col.Val, want.Val) {
			t.Fatalf("column %d: memo holds rows %v values %v, the solve's nonzeros are %v %v", r, col.Row, col.Val, want.Row, want.Val)
		}
	}
	if columns == 0 {
		t.Fatal("the sweep memoized no inverse column")
	}
	if limit := 12*nnz + 48*columns; bytes > limit {
		t.Fatalf("%d columns with %d nonzeros take %d bytes, want ≤ %d", columns, nnz, bytes, limit)
	}
	t.Logf("%d of %d columns memoized: %d nonzeros (%.1f%% dense), %d bytes (dense columns: %d)",
		columns, n, nnz, 100*float64(nnz)/float64(columns*n), bytes, 8*n*columns)
}

// assertScratchCorrectors referees the decoupled build on one plan:
// wherever a scenario's updates couple no rows, the engine serves it
// the corrector built in the worker's scratch, and that corrector is
// the FactorSparse build of the same updates and inverse columns field
// for field, bit for bit, or both refuse with the same error class. It
// returns how many scenarios took the scratch path.
func assertScratchCorrectors(t *testing.T, name string, plan *core.Plan, scenarios []failures.Scenario) (fired int) {
	t.Helper()
	sw := newSweep(t, plan)
	if sw.slu == nil {
		return 0
	}
	sr := sw.newScratch()
	var work linsolve.UpdateFactorizer
	for _, sc := range scenarios {
		sw.activate(sc, sr)
		ups, _, err := sw.rowUpdates(sc, sr, sw.changedRows(sr))
		if err != nil || len(ups) == 0 || !sw.decoupled(sr, ups) {
			continue
		}
		fired++
		cols := make([]linsolve.SparseColumn, len(ups))
		for j, up := range ups {
			if cols[j], err = sw.invCol(sr, up.Row); err != nil {
				t.Fatal(err)
			}
		}
		want, werr := work.FactorSparse(sw.n, ups, cols)
		got, _ := sw.corrector(sr, ups)
		gerr := sr.diag.SetDiagonal(sw.n, ups, sr.invDiag)
		for _, class := range []error{linsolve.ErrSingular, linsolve.ErrIllConditioned} {
			if errors.Is(gerr, class) != errors.Is(werr, class) || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s under %v: the scratch build refuses with %v, FactorSparse with %v", name, sc, gerr, werr)
			}
		}
		switch {
		case werr != nil && got != nil:
			t.Fatalf("%s under %v: served a corrector FactorSparse refuses (%v)", name, sc, werr)
		case werr != nil:
		case got != &sr.diag:
			t.Fatalf("%s under %v: a decoupled update set was not served from the scratch", name, sc)
		default:
			if d := correctorFieldsDiff(got, want); d != "" {
				t.Fatalf("%s under %v (rank %d): the scratch corrector differs from FactorSparse's: %s", name, sc, len(ups), d)
			}
		}
	}
	return fired
}

// correctorFieldsDiff names the first field in which got differs from
// want, every slice element and number by its bits ("" when none does),
// leaving out the k-sized scratch a CorrectInto allocates (z, y).
func correctorFieldsDiff(got, want *linsolve.Updated) string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		f := g.Type().Field(i).Name
		if f == "z" || f == "y" {
			continue
		}
		if !sameBits(g.Field(i), w.Field(i)) {
			return fmt.Sprintf("%s %v, want %v", f, g.Field(i), w.Field(i))
		}
	}
	return ""
}

// sameBits compares two values of a corrector's field kinds bit for
// bit: integers, floats and slices of them, by length and element. A
// value of any other kind compares unequal, so a new kind of field
// fails the comparison until it is taught here.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int32:
		return a.Int() == b.Int()
	}
	return false
}
