package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/lp"
)

// Re-planning on a kept master: the server's solver per scheme row
// builds each rung's master on the rung's first solve and re-runs only
// the cut loop after that (core.Solver). These tests hold every re-plan
// to a one-shot solve, bit for bit.

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
// building its master, and so do three re-plans of best entered at each
// lower rung, the breaker's skip. Sprint and GEANT at f=1 on every row
// (at f=2 their rows admit nothing), BTNorthAmerica at f=2 on best.
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
		for _, name := range tc.rows {
			row, _ := core.LookupScheme(name)
			want, err := row.Solve(in, core.SolveOptions{}, 0)
			if err != nil {
				t.Fatalf("%s %s: one-shot: %v", tc.name, name, err)
			}
			if want.Value <= 0 {
				t.Fatalf("%s %s admits nothing: a plan of zeros would match anything", tc.name, name)
			}
			for k := 0; k < 3; k++ {
				pub, _, err := srv.Solve(ctx, row)
				if err != nil {
					t.Fatalf("%s %s: re-plan %d: %v", tc.name, name, k, err)
				}
				if d := planDiff(pub.Plan, want); d != "" {
					t.Fatalf("%s %s: re-plan %d: %s", tc.name, name, k, d)
				}
				if built := pub.Plan.Stats.PrepareTime > 0; built != (k == 0) {
					t.Fatalf("%s %s: re-plan %d reports a %v master build", tc.name, name, k, pub.Plan.Stats.PrepareTime)
				}
			}
			t.Logf("%s %s: %.6f, %d rounds, %d cuts, %d pivots, oracle %d/%d",
				tc.name, name, want.Value, want.Stats.Rounds, want.Stats.Cuts, want.Stats.LPIterations, want.Stats.OracleSolves, want.Stats.OracleCalls)
		}
		best, _ := core.LookupScheme(core.SchemeBest)
		sv := best.NewSolver(in)
		for skip := 1; skip < best.Rungs(); skip++ {
			want, err := best.Solve(in, core.SolveOptions{}, skip)
			if err != nil {
				t.Fatalf("%s best at rung %d: one-shot: %v", tc.name, skip, err)
			}
			for k := 0; k < 3; k++ {
				got, err := sv.Solve(core.SolveOptions{}, skip)
				if err != nil {
					t.Fatalf("%s best at rung %d: re-plan %d: %v", tc.name, skip, k, err)
				}
				if d := planDiff(got, want); d != "" {
					t.Fatalf("%s best at rung %d: re-plan %d: %s", tc.name, skip, k, d)
				}
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
	want, err := row.Solve(in, core.SolveOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Rounds < 3 {
		t.Fatalf("%d cut rounds: the test needs a loop to cut into", want.Stats.Rounds)
	}
	sv := row.NewSolver(in)
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
		_, err := sv.Solve(opts, 0)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at master solve %d: %v, want a cancellation", cancelAt, err)
		}
		got, err := sv.Solve(core.SolveOptions{}, 0)
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

// TestConcurrentReplans: two POST /v1/solve of one scheme admitted
// together give equal plans, whichever of them solved the kept master
// and whichever a transient one.
func TestConcurrentReplans(t *testing.T) {
	var mu sync.Mutex
	var plans []*core.Plan
	in := servedInstance(t, eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1})
	_, ts := newTestServer(t, Config{Instance: in, MaxConcurrentSolves: 2, MutatePlan: func(p *core.Plan) {
		mu.Lock()
		plans = append(plans, p)
		mu.Unlock()
	}})
	url := ts.URL + "/v1/solve?scheme=" + core.SchemePCFTF
	if resp := mustPost(t, url); resp.StatusCode != 200 {
		t.Fatalf("first solve: %d %v", resp.StatusCode, decodeBody(t, resp))
	}
	for trial := 0; trial < 3; trial++ {
		var wg sync.WaitGroup
		codes := make([]int, 2)
		for i := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := testClient.Post(url, "", nil)
				if err != nil {
					return
				}
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}()
		}
		wg.Wait()
		if codes[0] != 200 || codes[1] != 200 {
			t.Fatalf("trial %d: concurrent solves answered %v", trial, codes)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(plans) != 7 {
		t.Fatalf("%d plans solved, want 7", len(plans))
	}
	transient := 0
	for i, p := range plans[1:] {
		if d := planDiff(p, plans[0]); d != "" {
			t.Fatalf("solve %d: %s", i+1, d)
		}
		if p.Stats.PrepareTime > 0 {
			transient++
		}
	}
	t.Logf("%d of 6 concurrent solves found the kept master busy", transient)
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
		if _, _, err := srv.Solve(context.Background(), row); err != nil {
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
