package mcf

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/lp/lptest"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
)

// sequentialWorst is the pre-sweep reference implementation: one cold
// solve per scenario, first strict minimum wins.
func sequentialWorst(t *testing.T, g *topology.Graph, tm *traffic.Matrix, fs *failures.Set) (float64, failures.Scenario) {
	t.Helper()
	worst := math.Inf(1)
	var worstSc failures.Scenario
	fs.Enumerate(func(sc failures.Scenario) bool {
		res, err := MaxConcurrentFlow(g, tm, sc.Dead)
		if err != nil {
			t.Fatalf("scenario %v: %v", sc, err)
		}
		if res.Objective < worst {
			worst = res.Objective
			worstSc = sc
		}
		return true
	})
	return worst, worstSc
}

// TestSweepMatchesSequentialGadgets: the compile-once warm-started
// parallel sweep returns the same worst value and the same worst
// scenario as per-scenario cold solves, on every paper gadget —
// including Fig5, where a double failure disconnects the demand and
// the per-scenario optimum is zero.
func TestSweepMatchesSequentialGadgets(t *testing.T) {
	cases := []struct {
		name   string
		gad    *topozoo.Gadget
		budget int
	}{
		{"Fig1/f1", topozoo.Fig1(), 1},
		{"Fig3/f1", topozoo.Fig3(), 1},
		{"Fig4(3,2,3)/f1", topozoo.Fig4(3, 2, 3), 1},
		{"Fig4(3,2,3)/f2", topozoo.Fig4(3, 2, 3), 2},
		{"Fig5/f1", topozoo.Fig5(), 1},
		{"Fig5/f2", topozoo.Fig5(), 2},
	}
	for _, tc := range cases {
		g := tc.gad.Graph
		tm := traffic.Single(g.NumNodes(), topology.Pair{Src: tc.gad.S, Dst: tc.gad.T}, 1)
		fs := failures.SingleLinks(g, tc.budget)
		wantWorst, wantSc := sequentialWorst(t, g, tm, fs)

		worst, sc, stats, err := OptimalUnderFailuresStats(nil, g, tm, fs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if math.Abs(worst-wantWorst) > 1e-9*(1+math.Abs(wantWorst)) {
			t.Errorf("%s: sweep worst %g, sequential %g", tc.name, worst, wantWorst)
		}
		if len(sc.FailedUnits) != len(wantSc.FailedUnits) {
			t.Errorf("%s: sweep scenario %v, sequential %v", tc.name, sc, wantSc)
		} else {
			for i := range sc.FailedUnits {
				if sc.FailedUnits[i] != wantSc.FailedUnits[i] {
					t.Errorf("%s: sweep scenario %v, sequential %v", tc.name, sc, wantSc)
					break
				}
			}
		}
		if stats.Scenarios == 0 || stats.WarmHits+stats.ColdSolves != stats.Scenarios+1 {
			t.Errorf("%s: inconsistent stats %+v", tc.name, *stats)
		}
	}
}

// TestSweepMatchesSequentialSprint runs the equivalence check on a
// real Topology Zoo graph with a multi-pair gravity matrix.
func TestSweepMatchesSequentialSprint(t *testing.T) {
	g := topozoo.MustLoad("Sprint")
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 3, Jitter: 0.4})
	pairs := tm.TopPairs(10)
	tm = tm.Restrict(pairs)
	fs := failures.SingleLinks(g, 1)
	wantWorst, wantSc := sequentialWorst(t, g, tm, fs)
	worst, sc, stats, err := OptimalUnderFailuresStats(nil, g, tm, fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(worst-wantWorst) > 1e-9*(1+math.Abs(wantWorst)) {
		t.Fatalf("sweep worst %g, sequential %g", worst, wantWorst)
	}
	if len(sc.FailedUnits) != len(wantSc.FailedUnits) {
		t.Fatalf("sweep scenario %v, sequential %v", sc, wantSc)
	}
	if stats.WarmHitRate() == 0 {
		t.Fatalf("no warm hits across %d scenarios: %+v", stats.Scenarios, *stats)
	}
}

// TestSweepCanceledContext: the sweep honors cancellation and keeps
// the sequential error format.
func TestSweepCanceledContext(t *testing.T) {
	gad := topozoo.Fig1()
	g := gad.Graph
	tm := traffic.Single(g.NumNodes(), topology.Pair{Src: gad.S, Dst: gad.T}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := OptimalUnderFailuresStats(ctx, g, tm, failures.SingleLinks(g, 1))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// errAfter is a context whose Err turns to Canceled after a fixed
// number of calls: a cancellation placed at an exact point of a
// deterministic call sequence.
type errAfter struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSweepWorkerHonorsCancel: a cancellation that lands just after the
// base solve is seen by the scenario workers' own check, before any
// scenario's LP starts. The base solve's context checks are counted by
// moving the cancellation later until the base solve survives it.
func TestSweepWorkerHonorsCancel(t *testing.T) {
	gad := topozoo.Fig4(3, 2, 3)
	g := gad.Graph
	tm := traffic.Single(g.NumNodes(), topology.Pair{Src: gad.S, Dst: gad.T}, 1)
	fs := failures.SingleLinks(g, 1)
	for after := int64(0); after < 100; after++ {
		_, _, _, err := OptimalUnderFailuresStats(&errAfter{Context: context.Background(), after: after}, g, tm, fs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d context checks: want context.Canceled, got %v", after, err)
		}
		if strings.Contains(err.Error(), "base solve") {
			continue
		}
		if !strings.Contains(err.Error(), "scenario enumeration canceled") {
			t.Fatalf("first cancellation past the base solve: want the workers' check, got %v", err)
		}
		return
	}
	t.Fatal("the base solve outlasted 100 context checks")
}

// TestSweepDeadline: an already-expired deadline surfaces promptly as
// a wrapped DeadlineExceeded even through warm re-solves.
func TestSweepDeadline(t *testing.T) {
	gad := topozoo.Fig4(3, 2, 3)
	g := gad.Graph
	tm := traffic.Single(g.NumNodes(), topology.Pair{Src: gad.S, Dst: gad.T}, 1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, _, err := OptimalUnderFailuresStats(ctx, g, tm, failures.SingleLinks(g, 2))
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestFlowLPCertified certifies the Sprint flow LP from first
// principles (lptest.Certify). It is the solver's equality-heavy
// input: one conservation row per (destination, node), each of which a
// cold solve must start on an artificial and clear in phase 1.
func TestFlowLPCertified(t *testing.T) {
	g := topozoo.MustLoad("Sprint")
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 3, Jitter: 0.4})
	tm = tm.Restrict(tm.TopPairs(10))
	fm, err := buildFlow(g, tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := lp.Solve(fm.m)
	if err != nil {
		t.Fatal(err)
	}
	if err := lptest.Certify(fm.m, nil, sol); err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Phase1Iters == 0 || sol.Stats.SlackStartRows == 0 {
		t.Fatalf("%d phase-1 iterations, %d rows slack-started; want a mixed start",
			sol.Stats.Phase1Iters, sol.Stats.SlackStartRows)
	}
}

// TestScaleConfirmationWarm: ScaleToMLU's confirming solve starts from
// the first solve's basis, which scaling the matrix leaves optimal, so
// it is a warm hit without a pivot; the scaled matrix is bit-equal to
// scaling by a cold minMLU and the MLU within 1e-12 of a cold
// confirmation — on the instances eval.Prepare builds.
func TestScaleConfirmationWarm(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pairs int
	}{{"Sprint", 45}, {"GEANT", 60}, {"BTNorthAmerica", 40}} {
		g, _ := topozoo.MustLoad(tc.name).PruneDegreeOne()
		tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 1, Jitter: 0.4})
		tm = tm.Restrict(tm.TopPairs(tc.pairs))
		scaled, got, confirm, err := scaleToMLU(g, tm, 0.6, 0.63)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !confirm.Stats.WarmHit || confirm.Stats.Iterations() != 0 {
			t.Errorf("%s: confirming solve warm hit %v after %d pivots; want a hit with none",
				tc.name, confirm.Stats.WarmHit, confirm.Stats.Iterations())
		}
		mlu, _, err := minMLU(g, tm, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := tm.Scale(0.615 / mlu)
		for s, row := range want.Demand {
			for d, v := range row {
				if math.Float64bits(scaled.Demand[s][d]) != math.Float64bits(v) {
					t.Fatalf("%s: scaled demand %d->%d is %v, cold scaling gives %v", tc.name, s, d, scaled.Demand[s][d], v)
				}
			}
		}
		cold, _, err := minMLU(g, scaled, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-cold) > 1e-12 {
			t.Errorf("%s: warm confirmation MLU %.17g, cold %.17g", tc.name, got, cold)
		}
	}
}

// TestSweepOneWorkerPerP: the sweep starts one worker per P, so at
// GOMAXPROCS=1 it runs on one worker — one compiled model, no clone —
// and answers as it does at 2: the same scenario and the same value,
// bit for bit (every scenario warm-starts from the base basis, so no
// value depends on which scenarios a worker solved before).
func TestSweepOneWorkerPerP(t *testing.T) {
	g := topozoo.MustLoad("Sprint")
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 3, Jitter: 0.4})
	tm = tm.Restrict(tm.TopPairs(10))
	fs := failures.SingleLinks(g, 1)
	sweepAt := func(procs int) (float64, failures.Scenario, *SweepStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		worst, sc, stats, err := OptimalUnderFailuresStats(context.Background(), g, tm, fs)
		if err != nil {
			t.Fatal(err)
		}
		return worst, sc, stats
	}
	worst1, sc1, stats1 := sweepAt(1)
	worst2, sc2, stats2 := sweepAt(2)
	if stats1.Workers != 1 || stats2.Workers != 2 {
		t.Fatalf("%d workers at GOMAXPROCS=1, %d at 2; want 1 and 2", stats1.Workers, stats2.Workers)
	}
	if math.Float64bits(worst1) != math.Float64bits(worst2) || !reflect.DeepEqual(sc1, sc2) {
		t.Fatalf("GOMAXPROCS=1: %.17g at %v; GOMAXPROCS=2: %.17g at %v", worst1, sc1, worst2, sc2)
	}
}
