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
	// The sweeps realize one representative per class: count the
	// rank-k ones among them.
	cls, err := sw.designed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rankK := 0
	sr := sw.newScratch()
	for i := 0; i < cls.len(); i++ {
		sv, err := sw.realize(cls.fill(plan.Instance.Failures).fresh(i), sr)
		if err != nil {
			t.Fatal(err)
		}
		if sv.smw && sv.rank > 0 {
			rankK++
		}
	}
	for _, sc := range designedSet(plan) {
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
	if warm.SMWHits != cold.SMWHits || warm.Fallbacks != cold.Fallbacks || warm.MaxRank != cold.MaxRank || warm.ArcChecks != cold.ArcChecks {
		t.Fatalf("warm pass %+v disagrees with cold pass %+v", warm, cold)
	}
	if got := sw.Stats().Scenarios; got != warm.Scenarios {
		t.Fatalf("cumulative Stats counts %d scenarios, want only the %d Realize calls", got, warm.Scenarios)
	}
	for _, st := range []*SweepStats{cold, warm} {
		if st.Classes != cls.len() || st.SMWHits+st.Fallbacks != st.Classes {
			t.Fatalf("SMWHits %d + Fallbacks %d over %d classes, the set has %d", st.SMWHits, st.Fallbacks, st.Classes, cls.len())
		}
		if sum := st.FallbacksNoBase + st.FallbacksSingular + st.FallbacksResidual; sum != st.Fallbacks {
			t.Fatalf("per-cause fallbacks sum to %d, Fallbacks = %d: %+v", sum, st.Fallbacks, st)
		}
		if st.DestEvals != st.SMWHits*len(sw.dests) || st.DestReplays > st.DestEvals {
			t.Fatalf("DestEvals %d / DestReplays %d with %d SMW hits over %d destinations", st.DestEvals, st.DestReplays, st.SMWHits, len(sw.dests))
		}
	}
	// No rank guard: Fig. 5's high-rank scenarios (k > n/2 among them)
	// go through the low-rank path like the rest.
	if warm.Fallbacks != 0 || 2*warm.MaxRank <= sw.n {
		t.Fatalf("%d fallbacks, max rank %d of n = %d; want none and a rank above n/2", warm.Fallbacks, warm.MaxRank, sw.n)
	}
	want := []string{"scenarios", "classes", "workers", "kept_hits", "smw_hits", "fallbacks", "fallbacks_nobase",
		"fallbacks_singular", "fallbacks_residual", "dest_evals", "dest_replays", "arc_checks", "max_rank", "batch_hits",
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

// TestHighRankScenariosServedLowRank: the correction's rank is no
// reason to leave the low-rank path. On the benchmark's Sprint PCF-TF
// f=1 and BTNorthAmerica PCF-TF f=2 plans every designed scenario —
// those whose updates touch more than half the rows included — is
// served by the SMW identity, and its flows, arc loads, MLU and check
// verdict agree with the dense oracle to 1e-9.
func TestHighRankScenariosServedLowRank(t *testing.T) {
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	for _, tc := range []struct {
		topo          string
		pairs, budget int
	}{{"Sprint", 45, 1}, {"BTNorthAmerica", 40, 2}} {
		in := benchInstance(t, tc.topo, tc.pairs, tc.budget)
		plan, err := core.SolvePCFTF(in, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sw := newSweep(t, plan)
		sr := sw.newScratch()
		highRank, maxRank := 0, 0
		for _, sc := range designedSet(plan) {
			want, werr := denseRealize(plan, sc)
			sv, gerr := sw.realize(sc, sr)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s under %v: engine err %v, cold err %v", tc.topo, sc, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if !sv.smw {
				t.Fatalf("%s under %v: went cold (cause %d)", tc.topo, sc, sv.cause)
			}
			if maxRank = max(maxRank, sv.rank); 2*sv.rank > sw.n {
				highRank++
			}
			mlu, jerr := sw.judge(sc, sr, nil, true)
			if cerr := CheckRealization(plan, want); (cerr == nil) != (jerr == nil) {
				t.Fatalf("%s under %v (rank %d): engine check %v, cold check %v", tc.topo, sc, sv.rank, jerr, cerr)
			}
			if wm := MLUOf(in.Graph, want); !near(mlu, wm) {
				t.Fatalf("%s under %v (rank %d): MLU %.12g, cold %.12g", tc.topo, sc, sv.rank, mlu, wm)
			}
			got := sw.materialize(sc, sr)
			for a := range want.ArcLoad {
				if !near(got.ArcLoad[a], want.ArcLoad[a]) {
					t.Fatalf("%s under %v (rank %d): ArcLoad[%d] = %.12g, cold %.12g", tc.topo, sc, sv.rank, a, got.ArcLoad[a], want.ArcLoad[a])
				}
			}
			for dst, wf := range want.TunnelTo {
				gf := got.TunnelTo[dst]
				for tid, wv := range wf {
					if !near(gf[tid], wv) {
						t.Fatalf("%s under %v (rank %d): flow[%d][%d] = %.12g, cold %.12g", tc.topo, sc, sv.rank, dst, tid, gf[tid], wv)
					}
				}
				for tid, gv := range gf {
					if _, ok := wf[tid]; !ok && gv > 1e-9 {
						t.Fatalf("%s under %v (rank %d): spurious flow[%d][%d] = %g", tc.topo, sc, sv.rank, dst, tid, gv)
					}
				}
			}
		}
		t.Logf("%s: n = %d, max rank %d, %d scenarios above n/2", tc.topo, sw.n, maxRank, highRank)
		if highRank == 0 {
			t.Fatalf("%s: no designed scenario has rank above n/2 = %d/2 (max %d): the case is not exercised", tc.topo, sw.n, maxRank)
		}
	}
}
