package core

import (
	"testing"

	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/mcf"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// solveDualized is the reference the engine tests hold the cut loop to:
// the paper's appendix-D2 formulation. It builds the very master and
// adversary specs newMaster builds for a tunnel scheme, replaces
// every for-all-failures row by its LP dual (lp.RobustGE) and solves
// the one polynomial-size LP cold, so it shares the model with the cut
// loop and nothing else. It returns the optimal value.
func solveDualized(in *Instance, build advBuilder) (float64, error) {
	stripped := *in
	stripped.LSs = nil
	m, mv, _ := buildMaster(&stripped, nil, stripped.DemandPairs(), stripped.constraintPairs(stripped.DemandPairs()), 0)
	for _, spec := range buildSpecs(&stripped, mv, build) {
		lp.RobustGE(m, spec.poly, spec.costs, spec.constPart, spec.rhs)
	}
	sol, err := lp.Solve(m)
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return 0, sol.Err()
	}
	return sol.Objective, nil
}

// gadgetInstances is every topozoo gadget as a solvable instance: the
// graph, its single s→t demand, its canonical tunnels (three selected
// ones where it names none) and a link-failure budget.
func gadgetInstances(t *testing.T) map[string]*Instance {
	t.Helper()
	out := map[string]*Instance{}
	add := func(name string, gad *topozoo.Gadget, budget int) {
		pair := topology.Pair{Src: gad.S, Dst: gad.T}
		ts := tunnels.NewSet(gad.Graph)
		for _, tun := range gad.Tunnels {
			ts.MustAdd(pair, tun)
		}
		if len(gad.Tunnels) == 0 {
			var err error
			if ts, err = tunnels.Select(gad.Graph, []topology.Pair{pair}, tunnels.SelectOptions{PerPair: 3}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		out[name] = &Instance{
			Graph:     gad.Graph,
			TM:        traffic.Single(gad.Graph.NumNodes(), pair, 1),
			Tunnels:   ts,
			Failures:  failures.SingleLinks(gad.Graph, budget),
			Objective: DemandScale,
		}
	}
	add("fig1-f1", topozoo.Fig1(), 1)
	add("fig1-f2", topozoo.Fig1(), 2)
	add("fig3-f1", topozoo.Fig3(), 1)
	add("fig4-f1", topozoo.Fig4(2, 3, 4), 1)
	add("fig5-f2", topozoo.Fig5(), 2)
	return out
}

// engines pairs each tunnel scheme's shipped solver with the adversary
// builder solveDualized needs to reproduce its model.
var engines = []struct {
	solve func(*Instance, SolveOptions) (*Plan, error)
	build advBuilder
}{
	{SolveFFC, buildFFCAdversary},
	{SolvePCFTF, buildPCFAdversary},
}

// sprintInstance is the root benchmarks' ablation instance (eval.Prepare
// on Sprint: 24 top gravity pairs, 3 tunnels each, MLU scaled into
// [0.6, 0.63], one link failure), rebuilt here because eval imports
// core.
func sprintInstance(b testing.TB) *Instance {
	b.Helper()
	g, err := topozoo.Load("Sprint")
	if err != nil {
		b.Fatal(err)
	}
	g, _ = g.PruneDegreeOne()
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 1, Jitter: 0.4})
	pairs := tm.TopPairs(24)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		b.Fatal(err)
	}
	tm, _, err = mcf.ScaleToMLU(g, tm.Restrict(pairs), 0.6, 0.63)
	if err != nil {
		b.Fatal(err)
	}
	return &Instance{Graph: g, TM: tm, Tunnels: ts, Failures: failures.SingleLinks(g, 1), Objective: DemandScale}
}

// BenchmarkAblation_Dualize solves PCF-TF on Sprint by the appendix-D2
// full dualization — the oracle's cost, against BenchmarkAblation_CutGen.
func BenchmarkAblation_Dualize(b *testing.B) {
	in := sprintInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveDualized(in, buildPCFAdversary); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_CutGen solves the same instance with the engine
// that ships, lazy scenario cuts; both reach the same optimum.
func BenchmarkAblation_CutGen(b *testing.B) {
	in := sprintInstance(b)
	b.ResetTimer()
	var cuts float64
	for i := 0; i < b.N; i++ {
		p, err := SolvePCFTF(in, SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cuts = p.Value
	}
	dual, err := solveDualized(in, buildPCFAdversary)
	if err != nil {
		b.Fatal(err)
	}
	if cuts-dual > 1e-5 || dual-cuts > 1e-5 {
		b.Fatalf("engines disagree: cuts %g vs dualized %g", cuts, dual)
	}
}
