package core

import (
	"testing"

	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// ringInstance is a 12-node ring with chords and every ordered pair
// two or three hops apart in demand — 48 pairs — plus extra links no
// tunnel uses, on two nodes of their own, each a failure unit of the
// single-link set.
func ringInstance(t *testing.T, extra int) *Instance {
	t.Helper()
	const n = 12
	g := topology.New("ring")
	for i := 0; i < n+2; i++ {
		g.AddNode("n")
	}
	for i := 0; i < n; i++ {
		g.AddLink(topology.NodeID(i), topology.NodeID((i+1)%n), 10)
		g.AddLink(topology.NodeID(i), topology.NodeID((i+4)%n), 10)
	}
	for e := 0; e < extra; e++ {
		g.AddLink(n, n+1, 10)
	}
	tm := traffic.NewMatrix(n + 2)
	for s := 0; s < n; s++ {
		for _, d := range []int{2, 3, n - 2, n - 3} {
			tm.Demand[s][(s+d)%n] = 1
		}
	}
	ts, err := tunnels.Select(g, tm.Pairs(0), tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{Graph: g, TM: tm, Tunnels: ts, Failures: failures.SingleLinks(g, 1), Objective: DemandScale}
}

// TestDeathUnitIndexOncePerSolve: every pair's adversary reads the
// per-link death-unit index, and a solve builds it once, not once per
// pair (FFC twice: its tunnel budget and its seed scenarios). Links no
// tunnel uses change no pair's polytope, so 400 of them may add the one
// index to building and seeding every spec — about 400 allocations —
// but not one index per pair, 48 × 400 and more.
func TestDeathUnitIndexOncePerSolve(t *testing.T) {
	specAllocs := func(in *Instance, build advBuilder) float64 {
		return testing.AllocsPerRun(3, func() {
			_, mv, _ := buildMaster(in, nil, in.DemandPairs(), in.ConstraintPairs(), 0)
			for _, spec := range buildSpecs(in, mv, build) {
				spec.seedScenarios()
			}
		})
	}
	small, large := ringInstance(t, 0), ringInstance(t, 400)
	if pairs := len(large.ConstraintPairs()); pairs != 48 {
		t.Fatalf("%d constraint pairs, want 48", pairs)
	}
	for name, build := range map[string]advBuilder{"ffc": buildFFCAdversary, "pcf-tf": buildPCFAdversary} {
		grown := specAllocs(large, build) - specAllocs(small, build)
		if grown > 2*400 {
			t.Errorf("%s: 400 unused links add %.0f allocations to building the specs; the index is built more than once", name, grown)
		}
	}
}
