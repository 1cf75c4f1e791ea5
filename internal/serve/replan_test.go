package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/faultinject"
	"pcf/internal/lp"
	"pcf/internal/telemetry"
)

// Re-planning on a kept master: the server's one solver builds each
// rung's master on the rung's first solve, by whichever row, and re-runs
// only the cut loop after that (core.Solver). These tests hold every
// re-plan to a one-shot solve, bit for bit.

// servedInstance prepares the instance pcfd serves for o.
func servedInstance(t *testing.T, o eval.Options) *core.Instance {
	t.Helper()
	setup, err := eval.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	in, err := setup.CLSInstance()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// planDiff names the first difference between two plans' answers and
// solve counters — value, every reservation, Z, the abandoned rungs and
// every SolveStats count — or returns "" when they agree bit for bit.
// Durations are not compared.
func planDiff(got, want *core.Plan) string {
	if got.Scheme != want.Scheme || fmt.Sprint(got.Degraded) != fmt.Sprint(want.Degraded) {
		return fmt.Sprintf("scheme %s degraded %v, want %s degraded %v", got.Scheme, got.Degraded, want.Scheme, want.Degraded)
	}
	return answerDiff(got, want)
}

// answerDiff is planDiff without the scheme and the abandoned rungs.
func answerDiff(got, want *core.Plan) string {
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		return fmt.Sprintf("value %.17g, want %.17g", got.Value, want.Value)
	}
	if d := mapDiff("Z", got.Z, want.Z); d != "" {
		return d
	}
	if d := mapDiff("tunnel reservation", got.TunnelRes, want.TunnelRes); d != "" {
		return d
	}
	if d := mapDiff("LS reservation", got.LSRes, want.LSRes); d != "" {
		return d
	}
	gs, ws := got.Stats, want.Stats
	gs.PrepareTime, gs.CompileTime, ws.PrepareTime, ws.CompileTime = 0, 0, 0, 0
	if gs != ws {
		return fmt.Sprintf("stats %+v, want %+v", gs, ws)
	}
	return ""
}

func mapDiff[K comparable](what string, got, want map[K]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d %s entries, want %d", len(got), what, len(want))
	}
	keys := make([]string, 0, len(want))
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			keys = append(keys, fmt.Sprintf("%s %v = %.17g, want %.17g", what, k, g, w))
		}
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		return keys[0]
	}
	return ""
}

// TestReplansMatchOneShot: three consecutive served re-plans of every
// scheme row equal a one-shot solve bit for bit, with only the first
// solve of each rung building its master (best's rungs were built by
// the rows before it), and so do three re-plans of best on its FFC
// rung, with every master but FFC's failing at its first start. Sprint
// and GEANT at f=1 on every row (at f=2 their rows admit nothing),
// BTNorthAmerica at f=2 on best.
func TestReplansMatchOneShot(t *testing.T) {
	cases := []struct {
		name string
		o    eval.Options
		rows []string
	}{
		{"Sprint", eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1}, core.SchemeNames()},
		{"GEANT", eval.Options{Topology: "GEANT", Seed: 1, MaxPairs: 30, FailureBudget: 1}, core.SchemeNames()},
		{"BTNorthAmerica", eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2}, []string{core.SchemeBest}},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	ctx := context.Background()
	for _, tc := range cases {
		in := servedInstance(t, tc.o)
		srv, _ := newTestServer(t, Config{Instance: in})
		built := map[string]bool{}
		for _, name := range tc.rows {
			row, _ := core.LookupScheme(name)
			want, err := row.Solve(in, core.SolveOptions{})
			if err != nil {
				t.Fatalf("%s %s: one-shot: %v", tc.name, name, err)
			}
			if want.Value <= 0 {
				t.Fatalf("%s %s admits nothing: a plan of zeros would match anything", tc.name, name)
			}
			for k := 0; k < 3; k++ {
				pub, err := srv.Solve(ctx, row)
				if err != nil {
					t.Fatalf("%s %s: re-plan %d: %v", tc.name, name, k, err)
				}
				if d := planDiff(pub.Plan, want); d != "" {
					t.Fatalf("%s %s: re-plan %d: %s", tc.name, name, k, d)
				}
				if build := pub.Plan.Stats.PrepareTime > 0; build == built[want.Scheme] {
					t.Fatalf("%s %s: re-plan %d reports a %v master build", tc.name, name, k, pub.Plan.Stats.PrepareTime)
				}
				built[want.Scheme] = true
			}
			t.Logf("%s %s: %.6f, %d rounds, %d cuts, %d pivots, oracle %d/%d",
				tc.name, name, want.Value, want.Stats.Rounds, want.Stats.Cuts, want.Stats.LPIterations, want.Stats.OracleSolves, want.Stats.OracleCalls)
		}
		best, _ := core.LookupScheme(core.SchemeBest)
		var onlyFFC core.SolveOptions
		hook, _, err := faultinject.FailAllButFFC(in, lp.ErrNumerical)
		if err != nil {
			t.Fatal(err)
		}
		onlyFFC.LP.FaultHook = hook
		want, err := best.Solve(in, onlyFFC)
		if err != nil || want.Scheme != core.SchemeFFC {
			t.Fatalf("%s best on FFC: one-shot: %v, %v", tc.name, want, err)
		}
		sv := core.NewSolver(in)
		for k := 0; k < 3; k++ {
			got, err := sv.Solve(best, onlyFFC)
			if err != nil {
				t.Fatalf("%s best on FFC: re-plan %d: %v", tc.name, k, err)
			}
			if d := planDiff(got, want); d != "" {
				t.Fatalf("%s best on FFC: re-plan %d: %s", tc.name, k, d)
			}
		}
	}
}

// TestCanceledReplanThenFull: a re-plan canceled mid-cut-loop, at the
// start of its second master solve, leaves the kept master as a full
// re-plan needs it: the next re-plan equals a fresh solve and does not
// rebuild.
func TestCanceledReplanThenFull(t *testing.T) {
	in := servedInstance(t, eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2})
	row, _ := core.LookupScheme(core.SchemePCFCLS)
	want, err := row.Solve(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Rounds < 3 {
		t.Fatalf("%d cut rounds: the test needs a loop to cut into", want.Stats.Rounds)
	}
	sv := core.NewSolver(in)
	for _, cancelAt := range []int{2, want.Stats.Rounds} {
		ctx, cancel := context.WithCancel(context.Background())
		solves := 0
		opts := core.SolveOptions{Context: ctx}
		opts.LP.FaultHook = func(ev lp.FaultEvent) error {
			if ev.Point == lp.FaultSolveStart {
				if solves++; solves == cancelAt {
					cancel()
				}
			}
			return nil
		}
		_, err := sv.Solve(row, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at master solve %d: %v, want a cancellation", cancelAt, err)
		}
		got, err := sv.Solve(row, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := planDiff(got, want); d != "" {
			t.Fatalf("after a re-plan canceled at master solve %d: %s", cancelAt, d)
		}
		if got.Stats.PrepareTime != 0 {
			t.Fatalf("after a re-plan canceled at master solve %d: the full re-plan rebuilt its master", cancelAt)
		}
	}
}

// TestConcurrentSolvesTakeTurns: Server.Solve calls of one row made at
// once on a fresh server take turns on its one solver. They give equal
// plans, and exactly one of them builds the rung's master.
func TestConcurrentSolvesTakeTurns(t *testing.T) {
	in := servedInstance(t, eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1})
	srv, _ := newTestServer(t, Config{Instance: in})
	row, _ := core.LookupScheme(core.SchemePCFTF)
	plans := make([]*core.Plan, 4)
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pub, err := srv.Solve(context.Background(), row)
			if errs[i] = err; err == nil {
				plans[i] = pub.Plan
			}
		}()
	}
	wg.Wait()
	builds := 0
	for i, p := range plans {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		if d := planDiff(p, plans[0]); d != "" {
			t.Fatalf("solve %d: %s", i, d)
		}
		if p.Stats.PrepareTime > 0 {
			builds++
		}
	}
	if builds != 1 {
		t.Fatalf("%d of %d concurrent solves built the master, want 1", builds, len(plans))
	}
}

// TestRowsShareRungMasters: best's rungs are the PCF-CLS and FFC rows'
// rungs, so on one server best solved after PCF-CLS, and best on FFC's
// kept master (every other master failing at its first start) after
// FFC, builds nothing: each solve record reads prepare_ms 0, and each
// plan is bit-equal to that row's, PCF-CLS abandoned on the way to FFC.
func TestRowsShareRungMasters(t *testing.T) {
	in := servedInstance(t, eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1})
	onlyFFC, _, err := faultinject.FailAllButFFC(in, lp.ErrNumerical)
	if err != nil {
		t.Fatal(err)
	}
	var failPCF atomic.Bool
	var mu sync.Mutex
	var last telemetry.Record
	srv, _ := newTestServer(t, Config{Instance: in, LPFaultHook: func(ev lp.FaultEvent) error {
		if failPCF.Load() {
			return onlyFFC(ev)
		}
		return nil
	}, Telemetry: telemetry.EmitterFunc(func(r telemetry.Record) {
		if r.Kind == telemetry.KindSolve {
			mu.Lock()
			last = r
			mu.Unlock()
		}
	})})
	best, _ := core.LookupScheme(core.SchemeBest)
	for _, name := range []string{core.SchemePCFCLS, core.SchemeFFC} {
		row, _ := core.LookupScheme(name)
		want, err := srv.Solve(context.Background(), row)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		failPCF.Store(name == core.SchemeFFC)
		got, err := srv.Solve(context.Background(), best)
		failPCF.Store(false)
		if err != nil {
			t.Fatalf("best after %s: %v", name, err)
		}
		mu.Lock()
		prepare, ok := last.Fields["prepare_ms"]
		mu.Unlock()
		if !ok || prepare != 0 {
			t.Fatalf("best on %s after %s: prepare_ms %v (recorded %v), want 0", got.Scheme, name, prepare, ok)
		}
		wantDegraded := "[]"
		if name == core.SchemeFFC {
			wantDegraded = "[PCF-CLS]"
		}
		if got.Scheme != want.Scheme || fmt.Sprint(got.Degraded) != wantDegraded {
			t.Fatalf("best after %s: %s degraded %v, want %s degraded %s", name, got.Scheme, got.Degraded, want.Scheme, wantDegraded)
		}
		if d := answerDiff(got.Plan, want.Plan); d != "" {
			t.Fatalf("best after %s: %s", name, d)
		}
	}
}

// TestReplanAllocs: the second served PCF-TF re-plan on Sprint, which
// reuses the master the first built, allocates at most a quarter of
// what the first did, publication included.
func TestReplanAllocs(t *testing.T) {
	in := servedInstance(t, eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1})
	srv, _ := newTestServer(t, Config{Instance: in})
	row, _ := core.LookupScheme(core.SchemePCFTF)
	var bytes [2]uint64
	for i := range bytes {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := srv.Solve(context.Background(), row); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("first re-plan %d B, second %d B", bytes[0], bytes[1])
	if 4*bytes[1] > bytes[0] {
		t.Fatalf("the second re-plan allocated %d B, more than a quarter of the first's %d B", bytes[1], bytes[0])
	}
}
