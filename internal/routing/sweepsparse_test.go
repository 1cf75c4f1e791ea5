package routing

import (
	"context"
	"math"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
)

// gadgetPlans are the small plans (universe n well under the old
// dense/sparse switch at 192) the engine's properties are pinned on.
func gadgetPlans(t *testing.T) []struct {
	name string
	plan *core.Plan
} {
	return []struct {
		name string
		plan *core.Plan
	}{
		{"fig1-f1", fig1Plan(t, 1)},
		{"fig1-f2", fig1Plan(t, 2)},
		{"fig4", fig4LSPlan(t, 3, 2, 3, 1)},
		{"fig5-cls", fig5CLSPlan(t)},
	}
}

// TestSweepSparseMatchesCold pins the one base representation on the
// small plans the dense base used to serve: the sparse factorization
// engages (the engine is not cold-only), the rows keep their invariants
// (ascending columns, no stored zeros, identity rows outside the
// no-failure set), the base solution solves the base system, and the
// full cold-equivalence contract holds to 1e-9.
func TestSweepSparseMatchesCold(t *testing.T) {
	for _, tc := range gadgetPlans(t) {
		sw := newSweep(t, tc.plan)
		if sw.slu == nil {
			t.Fatalf("%s: base factorization did not engage", tc.name)
		}
		for r, row := range sw.baseRows {
			for i, e := range row {
				if e.Val == 0 || (i > 0 && row[i-1].Col >= e.Col) {
					t.Fatalf("%s: row %d entry %d breaks the row invariants: %v", tc.name, r, i, row)
				}
			}
			//lint:ignore pcflint/floatcmp an identity row stores exactly 1
			if !sw.baseInSet[r] && (len(row) != 1 || row[0].Col != r || row[0].Val != 1) {
				t.Fatalf("%s: out-of-set row %d is not the identity: %v", tc.name, r, row)
			}
			acc := -sw.demand[r]
			for _, e := range row {
				acc += e.Val * sw.uBase[e.Col]
			}
			if math.Abs(acc) > 1e-9 {
				t.Fatalf("%s: base solution misses row %d by %g", tc.name, r, acc)
			}
		}
		assertSweepMatchesCold(t, tc.plan)
	}
}

// TestSweepBaseMatchesColdMatrix is what remains checkable of the old
// sparse-vs-dense comparison: the engine's base rows, restricted to the
// no-failure pairs of interest, are bit for bit the reservation matrix
// the cold path builds for the empty scenario — same coefficients, same
// summation order — so the two paths can only differ by solver
// round-off.
func TestSweepBaseMatchesColdMatrix(t *testing.T) {
	for _, tc := range gadgetPlans(t) {
		sw := newSweep(t, tc.plan)
		st := newState(tc.plan, failures.Scenario{})
		cold := st.Matrix()
		n := len(st.pairs)
		dense := make([]float64, n*n)
		for i, p := range st.pairs {
			r, ok := sw.index[p]
			if !ok || !sw.baseInSet[r] {
				t.Fatalf("%s: cold pair %v is not in the engine's no-failure set", tc.name, p)
			}
			for _, e := range sw.baseRows[r] {
				j, ok := st.index[sw.pairs[e.Col]]
				if !ok {
					t.Fatalf("%s: row %v references %v outside the cold pair set", tc.name, p, sw.pairs[e.Col])
				}
				dense[i*n+j] = e.Val
			}
		}
		for i := range cold {
			if math.Float64bits(dense[i]) != math.Float64bits(cold[i]) {
				t.Fatalf("%s: M[%d,%d] = %.17g, cold matrix has %.17g", tc.name, i/n, i%n, dense[i], cold[i])
			}
		}
	}
}

// TestSweepBatchReuse pins the SMW batching: replaying the same
// scenario set twice through one engine must serve the second pass's
// rank-k updates from the signature cache.
func TestSweepBatchReuse(t *testing.T) {
	plan := fig5CLSPlan(t)
	sw := newSweep(t, plan)
	pass := func() {
		plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
			if _, err := sw.Realize(sc); err != nil {
				t.Fatalf("under %v: %v", sc, err)
			}
			return true
		})
	}
	pass()
	first := sw.Stats().BatchHits
	pass()
	st := sw.Stats()
	if st.BatchHits <= first {
		t.Fatalf("replay produced no batch hits: first pass %d, after replay %d", first, st.BatchHits)
	}
	if st.MaxRank == 0 {
		t.Fatal("no rank-k update ever built — batching untested")
	}
}

// TestSweepStatsSparseMetrics checks the stats surface of a sweep run
// through a shared engine: BatchHits is exact per call at any worker
// count (a warm cache serves every rank-k scenario of the call, and
// nothing is read off the engine's cumulative total), Realize traffic
// in between does not leak into it, and Metrics carries exactly the
// documented vocabulary.
func TestSweepStatsSparseMetrics(t *testing.T) {
	old := sweepWorkerCount
	sweepWorkerCount = func() int { return 4 }
	defer func() { sweepWorkerCount = old }()

	plan := fig5CLSPlan(t)
	sw := newSweep(t, plan)
	ctx := context.Background()
	cold, err := sw.ValidateStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rankK := 0
	sr := sw.newScratch()
	for _, sc := range designedSet(plan) {
		_, sv, err := sw.realize(sc, sr)
		if err != nil {
			t.Fatal(err)
		}
		if sv.smw && sv.rank > 0 {
			rankK++
		}
		if _, err := sw.Realize(sc); err != nil {
			t.Fatal(err)
		}
	}
	if rankK == 0 {
		t.Fatal("no rank-k scenario — batching untested")
	}
	warm, err := sw.ValidateStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cold.BatchHits >= rankK {
		t.Fatalf("cold pass reports %d batch hits of %d rank-k scenarios: nothing was ever built", cold.BatchHits, rankK)
	}
	if warm.BatchHits != rankK {
		t.Fatalf("warm pass BatchHits = %d, want exactly the %d rank-k scenarios", warm.BatchHits, rankK)
	}
	if warm.SMWHits != cold.SMWHits || warm.Fallbacks != cold.Fallbacks || warm.MaxRank != cold.MaxRank {
		t.Fatalf("warm pass %+v disagrees with cold pass %+v", warm, cold)
	}
	if got := sw.Stats().Scenarios; got != warm.Scenarios {
		t.Fatalf("cumulative Stats counts %d scenarios, want only the %d Realize calls", got, warm.Scenarios)
	}
	for _, st := range []*SweepStats{cold, warm} {
		if sum := st.FallbacksNoBase + st.FallbacksRank + st.FallbacksSingular + st.FallbacksResidual; sum != st.Fallbacks {
			t.Fatalf("per-cause fallbacks sum to %d, Fallbacks = %d: %+v", sum, st.Fallbacks, st)
		}
		if st.DestEvals != st.SMWHits*len(sw.dests) || st.DestReplays > st.DestEvals {
			t.Fatalf("DestEvals %d / DestReplays %d with %d SMW hits over %d destinations", st.DestEvals, st.DestReplays, st.SMWHits, len(sw.dests))
		}
	}
	// Fig. 5's fallbacks are all the rank guard's (see
	// TestSweepUpdateFaultFallsBack).
	if warm.Fallbacks == 0 || warm.FallbacksRank != warm.Fallbacks {
		t.Fatalf("fallbacks %d, of which rank guard %d", warm.Fallbacks, warm.FallbacksRank)
	}
	want := []string{"scenarios", "workers", "smw_hits", "fallbacks", "fallbacks_nobase", "fallbacks_rank",
		"fallbacks_singular", "fallbacks_residual", "dest_evals", "dest_replays", "max_rank", "batch_hits",
		"smw_hit_rate", "base_factor_time_ms", "total_ms"}
	m := warm.Metrics()
	if len(m) != len(want) {
		t.Fatalf("Metrics has %d keys, want %d: %v", len(m), len(want), m)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Fatalf("Metrics misses %q: %v", k, m)
		}
	}
	//lint:ignore pcflint/floatcmp a small count is exact in float64
	if m["batch_hits"] != float64(rankK) {
		t.Fatalf("batch_hits = %g, want %d", m["batch_hits"], rankK)
	}
}
