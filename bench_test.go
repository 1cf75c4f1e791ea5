// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per exhibit), plus ablation benchmarks for
// the design choices called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its experiment end-to-end on the benchmark
// configuration (small topologies; see eval.BenchConfig) and reports
// the headline metric of the exhibit via b.ReportMetric, so the shape
// of the paper's results is visible straight from the bench output.
// cmd/pcfeval runs the same experiments at the paper-scale defaults.
package pcf_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/mcf"
	"pcf/internal/routing"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

func mustTable(b *testing.B, f func() (*eval.Table, error)) *eval.Table {
	b.Helper()
	t, err := f()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// cell parses a float from a table cell that may carry a ratio suffix.
func cell(b *testing.B, t *eval.Table, row, col int) float64 {
	b.Helper()
	s := t.Rows[row][col]
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		b.Fatalf("cell %d,%d = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

// BenchmarkFig2_FFCTunnelChoice regenerates Figure 2: FFC-3 and FFC-4
// vs the optimal on the Fig. 1 gadget, under 1 and 2 failures.
func BenchmarkFig2_FFCTunnelChoice(b *testing.B) {
	var t *eval.Table
	for i := 0; i < b.N; i++ {
		t = mustTable(b, eval.Fig2)
	}
	// Paper's numbers: f=1 -> 1.5, 1.0, 2.0; f=2 -> 0.5, 0.0, 1.0.
	b.ReportMetric(cell(b, t, 0, 1), "FFC3_f1")
	b.ReportMetric(cell(b, t, 0, 2), "FFC4_f1")
	b.ReportMetric(cell(b, t, 0, 3), "Optimal_f1")
}

// BenchmarkTable1_Fig5Gadget regenerates Table 1: Optimal=1, FFC=0,
// PCF-TF=2/3, PCF-LS=4/5, PCF-CLS=1, R3=0.
func BenchmarkTable1_Fig5Gadget(b *testing.B) {
	var t *eval.Table
	for i := 0; i < b.N; i++ {
		t = mustTable(b, eval.Table1)
	}
	b.ReportMetric(cell(b, t, 0, 0), "Optimal")
	b.ReportMetric(cell(b, t, 0, 2), "PCF-TF")
	b.ReportMetric(cell(b, t, 0, 3), "PCF-LS")
	b.ReportMetric(cell(b, t, 0, 4), "PCF-CLS")
}

// BenchmarkFig8_FFCMoreTunnels regenerates Figure 8: FFC's demand
// scale with 2/3/4 tunnels vs optimal across traffic matrices.
func BenchmarkFig8_FFCMoreTunnels(b *testing.B) {
	cfg := eval.BenchConfig()
	var t *eval.Table
	for i := 0; i < b.N; i++ {
		t = mustTable(b, func() (*eval.Table, error) { return eval.Fig8(cfg) })
	}
	b.ReportMetric(cell(b, t, 0, 1), "FFC2_tm1")
	b.ReportMetric(cell(b, t, 0, 3), "FFC4_tm1")
	b.ReportMetric(cell(b, t, 0, 4), "Optimal_tm1")
}

// BenchmarkFig9_PCFTFvsFFCTunnels regenerates Figure 9: PCF-TF is
// monotone in tunnels while FFC is not.
func BenchmarkFig9_PCFTFvsFFCTunnels(b *testing.B) {
	cfg := eval.BenchConfig()
	var t *eval.Table
	for i := 0; i < b.N; i++ {
		t = mustTable(b, func() (*eval.Table, error) { return eval.Fig9(cfg) })
	}
	// Monotonicity assertion (Proposition 2).
	for r := 1; r < len(t.Rows); r++ {
		if cell(b, t, r, 2) < cell(b, t, r-1, 2)-1e-6 {
			b.Fatal("PCF-TF degraded with more tunnels")
		}
	}
	b.ReportMetric(cell(b, t, 2, 1), "FFC_4tunnels")
	b.ReportMetric(cell(b, t, 2, 2), "PCFTF_4tunnels")
}

// BenchmarkFig10_RefTopologyCDF regenerates Figure 10: the per-TM
// demand-scale ratios of the PCF schemes over FFC.
func BenchmarkFig10_RefTopologyCDF(b *testing.B) {
	cfg := eval.BenchConfig()
	var t *eval.Table
	for i := 0; i < b.N; i++ {
		t = mustTable(b, func() (*eval.Table, error) { return eval.Fig10(cfg) })
	}
	sum := eval.SummarizeRatios(t)
	b.ReportMetric(cell(b, sum, 0, 3), "PCFTF_mean_ratio")
	b.ReportMetric(cell(b, sum, 2, 3), "PCFCLS_mean_ratio")
}

// BenchmarkFig11_AcrossTopologies regenerates Figure 11: ratios vs FFC
// across topologies under single failures.
func BenchmarkFig11_AcrossTopologies(b *testing.B) {
	cfg := eval.BenchConfig()
	var t *eval.Table
	for i := 0; i < b.N; i++ {
		t = mustTable(b, func() (*eval.Table, error) { return eval.Fig11(cfg) })
	}
	sum := eval.SummarizeRatios(t)
	b.ReportMetric(cell(b, sum, 0, 3), "PCFTF_mean_ratio")
	b.ReportMetric(cell(b, sum, 1, 3), "PCFLS_mean_ratio")
	b.ReportMetric(cell(b, sum, 2, 3), "PCFCLS_mean_ratio")
}

// BenchmarkFig12_ThreeFailures regenerates Figure 12: the same
// comparison under 3 simultaneous sub-link failures.
func BenchmarkFig12_ThreeFailures(b *testing.B) {
	cfg := eval.BenchConfig()
	cfg.Topologies = []string{"Sprint"} // sub-link instances are 2x larger
	cfg.MaxPairs = 16
	var t *eval.Table
	for i := 0; i < b.N; i++ {
		t = mustTable(b, func() (*eval.Table, error) { return eval.Fig12(cfg) })
	}
	sum := eval.SummarizeRatios(t)
	b.ReportMetric(cell(b, sum, 0, 3), "PCFTF_mean_ratio")
	b.ReportMetric(cell(b, sum, 2, 3), "PCFCLS_mean_ratio")
}

// BenchmarkFig13_ThroughputOverhead regenerates Figure 13: reduction
// in throughput overhead vs FFC with Θ = total throughput.
func BenchmarkFig13_ThroughputOverhead(b *testing.B) {
	cfg := eval.BenchConfig()
	cfg.Topologies = []string{"Sprint"}
	cfg.MaxPairs = 16
	var t *eval.Table
	for i := 0; i < b.N; i++ {
		t = mustTable(b, func() (*eval.Table, error) { return eval.Fig13(cfg) })
	}
	b.ReportMetric(cell(b, t, 0, 2), "PCFTF_reduction_pct")
	b.ReportMetric(cell(b, t, 0, 4), "PCFCLS_reduction_pct")
}

// BenchmarkFig14_SolveTime regenerates Figure 14: offline solve time
// against topology size.
func BenchmarkFig14_SolveTime(b *testing.B) {
	cfg := eval.BenchConfig()
	cfg.Topologies = []string{"Sprint"}
	cfg.MaxPairs = 16
	for i := 0; i < b.N; i++ {
		mustTable(b, func() (*eval.Table, error) { return eval.Fig14(cfg) })
	}
}

// BenchmarkSec52_TopSort regenerates §5.2: the LS fraction pruned by
// PCF-CLS-TopSort and the retained demand scale.
func BenchmarkSec52_TopSort(b *testing.B) {
	cfg := eval.BenchConfig()
	cfg.Topologies = []string{"Sprint", "B4"}
	var t *eval.Table
	for i := 0; i < b.N; i++ {
		t = mustTable(b, func() (*eval.Table, error) { return eval.Sec52(cfg) })
	}
	b.ReportMetric(cell(b, t, 0, 1), "PCFCLS_sprint")
	b.ReportMetric(cell(b, t, 0, 2), "TopSort_sprint")
}

// BenchmarkScenarioSweep measures the mcf scenario sweep — the
// intrinsic-capability baseline that re-solves an optimal
// multi-commodity flow once per failure scenario — on the benchmark
// Sprint instance. This is the hot path of every "Optimal" column in
// the paper's figures.
func BenchmarkScenarioSweep(b *testing.B) {
	setup, err := eval.Prepare(eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 24, FailureBudget: 1})
	if err != nil {
		b.Fatal(err)
	}
	var worst float64
	for i := 0; i < b.N; i++ {
		w, _, _, err := mcf.OptimalUnderFailuresStats(context.Background(), setup.Graph, setup.TM, setup.Failures)
		if err != nil {
			b.Fatal(err)
		}
		worst = w
	}
	b.ReportMetric(worst, "demand_scale")
}

// geantPlan solves PCF-TF on the GEANT benchmark instance — the
// realization benchmarks measure the online side of this plan.
func geantPlan(b *testing.B) *core.Plan {
	b.Helper()
	setup, err := eval.Prepare(eval.Options{Topology: "GEANT", Seed: 1, MaxPairs: 60, FailureBudget: 1})
	if err != nil {
		b.Fatal(err)
	}
	in := &core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkRealize measures a single-scenario realization on the GEANT
// PCF-TF plan: the cold path refactorizes the reservation matrix from
// scratch, the SMW path serves the scenario as a low-rank correction
// of the shared base factorization (DESIGN.md §12).
func BenchmarkRealize(b *testing.B) {
	plan := geantPlan(b)
	var sc failures.Scenario
	plan.Instance.Failures.Enumerate(func(s failures.Scenario) bool {
		if len(s.FailedUnits) == 1 {
			sc = s
			return false
		}
		return true
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := routing.Realize(plan, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SMW", func(b *testing.B) {
		sweep, err := routing.NewSweepContext(context.Background(), plan)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sweep.Realize(sc); err != nil {
				b.Fatal(err)
			}
		}
		st := sweep.Stats()
		if st.SMWHits == 0 {
			b.Fatal("SMW path never hit: benchmark would measure the cold fallback")
		}
	})
}

// BenchmarkValidateSweep measures the full scenario validation of the
// GEANT plan: the base variant is the pre-sweep behavior (realize and
// check every scenario, refactorizing per scenario); the SMW variant
// is routing.ValidateStats with the shared factorization. The recorded
// ratio is the headline speedup of DESIGN.md §12.
func BenchmarkValidateSweep(b *testing.B) {
	plan := geantPlan(b)
	b.Run("base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var failed error
			plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
				r, err := routing.Realize(plan, sc)
				if err == nil {
					err = routing.CheckRealization(plan, r)
				}
				if err != nil {
					failed = err
					return false
				}
				return true
			})
			if failed != nil {
				b.Fatal(failed)
			}
		}
	})
	b.Run("SMW", func(b *testing.B) {
		var st *routing.SweepStats
		for i := 0; i < b.N; i++ {
			var err error
			st, err = routing.ValidateStats(context.Background(), plan, routing.ValidateOptions{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100*st.SMWHitRate(), "smw_hit_pct")
		b.ReportMetric(float64(st.Fallbacks), "fallbacks")
	})
}

// ---- Synthetic-topology scale benchmarks (DESIGN.md §17) ----

// synthPlan prepares and solves PCF-TF on a 1000-node Waxman synthetic
// topology: m = 2 394 master rows on the Markowitz LU + eta chain, and
// a sweep over the sparse base factorization (DESIGN.md §17).
func synthPlan(b *testing.B, maxPairs int) *core.Plan {
	b.Helper()
	setup, err := eval.Prepare(eval.Options{
		Synth: "waxman", SynthNodes: 1000, Seed: 1,
		MaxPairs: maxPairs, FailureBudget: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := &core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkSolveSynth1k measures a PCF-TF solve on the 1000-node
// synthetic Waxman topology.
func BenchmarkSolveSynth1k(b *testing.B) {
	setup, err := eval.Prepare(eval.Options{
		Synth: "waxman", SynthNodes: 1000, Seed: 1,
		MaxPairs: 100, FailureBudget: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := &core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	}
	b.ResetTimer()
	var plan *core.Plan
	for i := 0; i < b.N; i++ {
		plan, err = core.SolvePCFTF(in, core.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Every row of a cut master has a feasible slack (DESIGN.md §11), so
	// a phase-1 iteration here means the artificial start is back.
	if plan.Stats.Phase1Iters != 0 {
		b.Fatalf("synth solve ran %d phase-1 iterations; the slack start should need none", plan.Stats.Phase1Iters)
	}
	// The master's basis is mostly slack: a kernel as large as the row
	// count means refactor is handing the LU the whole basis again.
	if plan.Stats.KernelDim == plan.Stats.Rows {
		b.Fatalf("synth solve factored a kernel of all %d rows; single-entry columns should cover most of them", plan.Stats.Rows)
	}
	b.ReportMetric(float64(plan.Stats.LPIterations), "lp_iters")
	// Solve time per pivot, as benchmark/'s lp.us_per_iter reads it: the
	// whole solve (compile, separation included) over the iterations.
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*plan.Stats.LPIterations), "us_per_iter")
	b.ReportMetric(float64(plan.Stats.Refactors), "refactors")
	b.ReportMetric(plan.Stats.FillRatio(), "fill_ratio")
	b.ReportMetric(float64(plan.Stats.KernelDim), "kernel_dim")
}

// BenchmarkSolveBTNACLS measures SolveBest's cut loop on the PCF-CLS
// instance of BTNorthAmerica (40 pairs, f = 2, core.BuildCLSQuick's
// LSs; internal/core's TestCutLoopOracleCounts pins its counts). 232
// of its 569 separation-oracle calls repeat their polytope's previous
// costs and reuse the saved answer; none doing so means the reuse
// stopped hitting. It reports the pricing passes and the bypass
// columns they entered (37 of the 152), and fails when pricing entered
// every bypass: then it has stopped pruning and the priced master is
// the full one.
func BenchmarkSolveBTNACLS(b *testing.B) {
	setup, err := eval.Prepare(eval.Options{
		Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	in, _, err := core.BuildCLSQuick(&core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var plan *core.Plan
	for i := 0; i < b.N; i++ {
		plan, err = core.SolveBest(in, core.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	st := plan.Stats
	if st.OracleSolves >= st.OracleCalls {
		b.Fatalf("all %d separation-oracle calls solved; repeated costs should reuse the saved answer", st.OracleCalls)
	}
	pool := 0
	for _, q := range in.LSs {
		if q.Cond != nil {
			pool++
		}
	}
	if st.ColumnsPriced >= pool {
		b.Fatalf("pricing entered all %d bypass columns: it no longer prunes", pool)
	}
	b.ReportMetric(float64(st.LPIterations), "lp_iters")
	b.ReportMetric(float64(st.Rounds), "rounds")
	b.ReportMetric(float64(st.PricingRounds), "pricing_rounds")
	b.ReportMetric(float64(st.ColumnsPriced), "columns_priced")
	b.ReportMetric(float64(st.OracleSolves), "oracle_solves")
	b.ReportMetric(100*float64(st.OracleCalls-st.OracleSolves)/float64(st.OracleCalls), "oracle_reuse_pct")
}

// BenchmarkPrepareSynth1k measures eval.Prepare with the benchmark's
// synth1k-tf-f1 options: the 1000-node Waxman graph, its gravity
// matrix, 3 tunnels for each of 250 pairs (the disjoint-path search
// builds each of the pairs' sources' first tree once) and the
// tunnel-routing scale. internal/eval's TestPrepareFingerprints pins
// what it prepares.
func BenchmarkPrepareSynth1k(b *testing.B) {
	var setup *eval.Setup
	for i := 0; i < b.N; i++ {
		var err error
		setup, err = eval.Prepare(eval.Options{
			Synth: "waxman", SynthNodes: 1000, Seed: 1,
			MaxPairs: 250, FailureBudget: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "prepare_ms")
	b.ReportMetric(float64(setup.Tunnels.Len()), "tunnels")
}

// BenchmarkValidateSweepSynth1k measures full scenario validation of a
// 1000-node synthetic plan: a 250-pair realization universe whose
// ~2000 single-failure scenarios the sweep serves as batched SMW
// corrections of its sparse base, re-emitting only the destinations a
// failure can change.
func BenchmarkValidateSweepSynth1k(b *testing.B) {
	plan := synthPlan(b, 250)
	b.ResetTimer()
	var st *routing.SweepStats
	for i := 0; i < b.N; i++ {
		var err error
		st, err = routing.ValidateStats(context.Background(), plan, routing.ValidateOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	// A single link touches a handful of the 64 destinations; a sweep
	// that replays none has lost its record or marks everything affected.
	if st.DestReplays == 0 {
		b.Fatalf("sweep replayed none of %d destination emissions; the base record should serve nearly all", st.DestEvals)
	}
	// Likewise for arcs: the few a link's destinations load are re-summed
	// and checked, the record vouches for the rest. A sweep that checks
	// every arc in every scenario has lost the record's arc verdicts.
	arcs := st.Classes * plan.Instance.Graph.NumArcs()
	if st.ArcChecks >= arcs {
		b.Fatalf("sweep checked %d arcs in %d realized scenarios, every arc every time; the record should vouch for nearly all", st.ArcChecks, st.Classes)
	}
	b.ReportMetric(100*st.SMWHitRate(), "smw_hit_pct")
	b.ReportMetric(float64(st.BatchHits), "batch_hits")
	b.ReportMetric(100*float64(st.DestReplays)/float64(st.DestEvals), "dest_replay_pct")
	b.ReportMetric(100*float64(st.ArcChecks)/float64(arcs), "arc_check_pct")
}

// BenchmarkValidateSampled measures what GET
// /v1/validate?model=sampled&p=0.01&samples=1000&seed=1 runs on a
// published engine (its designed classes and correctors built): the
// designed pass, then a thousand tail draws classified, one
// representative per class realized. tail_reps is how many were
// realized; a thousand means the tail lost its classes.
func BenchmarkValidateSampled(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts eval.Options
	}{
		{"sprint-tf-f1", eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1}},
		{"btna-tf-f2", eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2}},
		{"synth1k-tf-f1", eval.Options{Synth: "waxman", SynthNodes: 1000, Seed: 1, MaxPairs: 250, FailureBudget: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			setup, err := eval.Prepare(tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := core.SolvePCFTF(&core.Instance{
				Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
				Failures: setup.Failures, Objective: core.DemandScale,
			}, core.SolveOptions{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			sw, err := routing.NewSweepContext(ctx, plan)
			if err != nil {
				b.Fatal(err)
			}
			designed, err := sw.ValidateStats(ctx)
			if err != nil {
				b.Fatal(err)
			}
			pm, err := failures.Uniform(plan.Instance.Failures, 0.01)
			if err != nil {
				b.Fatal(err)
			}
			opts := routing.SampleOptions{Model: pm, Samples: 1000, Seed: 1}
			b.ResetTimer()
			var rep *routing.SampledReport
			for i := 0; i < b.N; i++ {
				if rep, err = sw.ValidateSampled(ctx, opts); err != nil {
					b.Fatal(err)
				}
			}
			reps := rep.Stats.Classes - designed.Classes
			if reps >= opts.Samples {
				b.Fatalf("%d tail representatives realized for %d draws", reps, opts.Samples)
			}
			b.ReportMetric(float64(reps), "tail_reps")
		})
	}
}

// ---- Ablation benchmarks (DESIGN.md §6) ----

func benchInstance(b *testing.B) *core.Instance {
	b.Helper()
	setup, err := eval.Prepare(eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 24, FailureBudget: 1})
	if err != nil {
		b.Fatal(err)
	}
	return &core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	}
}

// BenchmarkAblation_LSChoice compares the paper's flow-decomposition
// LS generation against the direct shortest-path heuristic.
func BenchmarkAblation_LSChoiceFlow(b *testing.B) {
	in := benchInstance(b)
	for i := 0; i < b.N; i++ {
		clsIn, _, err := core.BuildCLS(in, core.FlowOptions{SparseSupport: 3})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.SolvePCFCLS(clsIn, core.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_LSChoiceQuick(b *testing.B) {
	in := benchInstance(b)
	for i := 0; i < b.N; i++ {
		clsIn, _, err := core.BuildCLSQuick(in)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.SolvePCFCLS(clsIn, core.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_LinearSystem times the direct solve of the online
// routing system: the sparse Markowitz LU every realization factors.
func BenchmarkAblation_LinearSystem(b *testing.B) {
	// A representative diagonally dominant reservation-style system.
	n := 60
	rows := make([][]linsolve.SparseEntry, n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j && (i+j)%7 == 0 {
				rows[i] = append(rows[i], linsolve.SparseEntry{Col: j, Val: -0.2})
				rowSum += 0.2
			}
		}
		rows[i] = append(rows[i], linsolve.SparseEntry{Col: i, Val: rowSum + 1})
		rhs[i] = float64(i%5) + 0.5
	}
	b.Run("SparseLU", func(b *testing.B) {
		x := make([]float64, n)
		for i := 0; i < b.N; i++ {
			lu, err := linsolve.FactorSparseRows(rows, n)
			if err == nil {
				err = lu.SolveInto(x, rhs)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOnlineResponse measures the per-failure online operations
// (§4): the linear-system realization and the proportional router —
// the paper's point being that these are far cheaper than re-solving a
// traffic-engineering LP.
func BenchmarkOnlineResponse(b *testing.B) {
	gad := topozoo.Fig4(3, 2, 3)
	g := gad.Graph
	ts := tunnels.NewSet(g)
	for _, l := range g.Links() {
		ts.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
	}
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	in := &core.Instance{
		Graph:   g,
		TM:      traffic.Single(g.NumNodes(), pair, 1),
		Tunnels: ts,
		LSs: []core.LogicalSequence{{
			ID: 0, Pair: pair, Hops: []topology.NodeID{gad.Aux["s1"], gad.Aux["s2"]},
		}},
		Failures:  failures.SingleLinks(g, 1),
		Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFLS(in, core.SolveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{0: true}}
	b.Run("LinearSystem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := routingRealize(plan, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Proportional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := routingProportional(plan, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Thin indirections so the routing package import stays localized.
func routingRealize(plan *core.Plan, sc failures.Scenario) (interface{}, error) {
	return routing.Realize(plan, sc)
}

func routingProportional(plan *core.Plan, sc failures.Scenario) (interface{}, error) {
	return routing.RealizeProportional(plan, sc)
}
