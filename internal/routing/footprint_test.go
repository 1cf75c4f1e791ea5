package routing

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"pcf/internal/linsolve"
)

// TestCorrectorFootprint: on the BTNorthAmerica PCF-CLS f=2 plan, whose
// capacitances have off-diagonal factor entries, a corrector-cache miss
// allocates the same five objects at every rank — the cache entry, its
// signature, the corrector and its two arenas — and bytes linear in k
// and the corrector's nonzeros, with no k×k term; a hit allocates
// nothing. (A whole warm scenario is TestSweepScenarioAllocs'.)
func TestCorrectorFootprint(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates on its own")
	}
	_, plan := btnaPlans(t)
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
		if err != nil || len(ups) == 0 {
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
