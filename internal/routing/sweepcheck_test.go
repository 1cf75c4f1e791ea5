package routing_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/routing"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// TestSweepCheckMatchesScan: Sweep.Check, the one realization check,
// answers exactly as the whole-matrix scan it replaced
// (routing.CheckRealizationScan): the same error, word for word, or
// none from both. On the Sprint CLS plan and the four benchmark plans,
// over designed and seeded beyond-budget scenarios, each realization is
// checked as it is and with one flow toward each of its first
// destinations moved off balance. A tunnel into the destination from a
// higher-numbered source is moved where there is one, so the miss is
// reported at the destination itself, whose target sums every demand
// pair into it in order; some must be.
func TestSweepCheckMatchesScan(t *testing.T) {
	btna := eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2}
	plans := []routing.NamedPlan{
		{Name: "sprint-tf-f1", Plan: benchmarkPlan(t, eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1}, core.SchemePCFTF)},
		{Name: "btna-cls-f2", Plan: benchmarkPlan(t, btna, core.SchemeBest)},
		{Name: "btna-tf-f2", Plan: benchmarkPlan(t, btna, core.SchemePCFTF)},
	}
	if !testing.Short() {
		plans = append(plans,
			routing.NamedPlan{Name: "sprint-cls", Plan: routing.SprintCLSPlan(t)},
			routing.NamedPlan{Name: "synth1k-tf-f1", Plan: benchmarkPlan(t, eval.Options{Synth: "waxman", SynthNodes: 1000, Seed: 1, MaxPairs: 250, FailureBudget: 1}, core.SchemePCFTF)})
	}
	const perPlan, perturbed = 150, 3
	atDest := 0
	for _, p := range plans {
		sw, err := routing.NewSweepContext(nil, p.Plan)
		if err != nil {
			t.Fatal(err)
		}
		scenarios := designed(p.Plan)
		scenarios = append(scenarios[:min(len(scenarios), perPlan)], routing.BeyondBudget(p.Plan.Instance.Graph, 57, perPlan)...)
		kinds := map[string]int{}
		same := func(what string, r *routing.Realization) string {
			got, want := sw.Check(r), routing.CheckRealizationScan(p.Plan, r)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %s: Sweep.Check = %v, the scan %v", p.Name, what, got, want)
			}
			kind := "valid"
			if got != nil {
				kind = strings.Fields(got.Error())[1]
			}
			kinds[kind]++
			return fmt.Sprint(got)
		}
		ts := p.Plan.Instance.Tunnels
		for _, sc := range scenarios {
			r, err := sw.Realize(sc)
			if err != nil {
				continue
			}
			same(fmt.Sprint(sc), r)
			dsts := make([]topology.NodeID, 0, len(r.TunnelTo))
			for dst := range r.TunnelTo {
				dsts = append(dsts, dst)
			}
			slices.Sort(dsts)
			for _, dst := range dsts[:min(len(dsts), perturbed)] {
				tid, ok := offBalanceTunnel(ts, r.TunnelTo[dst], dst)
				if !ok {
					continue
				}
				moved := *r
				moved.TunnelTo = maps.Clone(r.TunnelTo)
				moved.TunnelTo[dst] = maps.Clone(r.TunnelTo[dst])
				moved.TunnelTo[dst][tid] += 1e-3
				if got := same(fmt.Sprintf("%v, tunnel %d toward %d moved", sc, tid, dst), &moved); strings.HasPrefix(got, fmt.Sprintf("routing: destination %d node %d ", dst, dst)) {
					atDest++
				}
			}
		}
		t.Logf("%s: %d scenarios: %v", p.Name, len(scenarios), kinds)
	}
	t.Logf("%d balance misses reported at their destination node", atDest)
	if atDest == 0 {
		t.Fatal("no balance miss was reported at a destination node: the summed targets were never compared")
	}
}

// offBalanceTunnel picks the tunnel toward dst whose flow the test
// moves: among those carrying flow, one of a pair into dst from the
// highest source above dst if any, else the lowest tunnel id.
func offBalanceTunnel(ts *tunnels.Set, flows map[tunnels.ID]float64, dst topology.NodeID) (tunnels.ID, bool) {
	ids := make([]tunnels.ID, 0, len(flows))
	for id := range flows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(ids) == 0 {
		return 0, false
	}
	best, src := ids[0], dst
	for _, id := range ids {
		if p := ts.Tunnel(id).Pair; p.Dst == dst && p.Src > src {
			best, src = id, p.Src
		}
	}
	return best, true
}
