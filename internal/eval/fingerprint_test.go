package eval

// Same answers, bit for bit, whatever the representation of an SMW
// correction: every realization of the benchmark's four plans, folded
// into one hash per plan, against goldens recorded while correctors
// were still dense. The plans are prepared here, by Prepare, because
// that is how the benchmark prepares them; routing cannot import eval.

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/routing"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// benchmarkPlan prepares a workload's instance as the benchmark does —
// Prepare, then BuildCLSQuick's sequences when cls is set — and solves
// it as PCF-CLS or PCF-TF.
func benchmarkPlan(t *testing.T, o Options, cls bool) *core.Plan {
	t.Helper()
	s, err := Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Graph: s.Graph, TM: s.TM, Tunnels: s.Tunnels,
		Failures: s.Failures, Objective: core.DemandScale,
	}
	solve := core.SolvePCFTF
	if cls {
		if in, _, err = core.BuildCLSQuick(in); err != nil {
			t.Fatal(err)
		}
		solve = core.SolvePCFCLS
	}
	plan, err := solve(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// beyondBudget draws n seeded scenarios past the designed budget: two
// to five dead links, and up to two more degraded to 20–90 % of their
// capacity.
func beyondBudget(g *topology.Graph, seed int64, n int) []failures.Scenario {
	rng := rand.New(rand.NewSource(seed))
	out := make([]failures.Scenario, n)
	for i := range out {
		perm := rng.Perm(g.NumLinks())
		dead := min(2+rng.Intn(4), len(perm))
		sc := failures.Scenario{Dead: map[topology.LinkID]bool{}}
		for _, l := range perm[:dead] {
			sc.Dead[topology.LinkID(l)] = true
		}
		for _, l := range perm[dead:min(dead+rng.Intn(3), len(perm))] {
			if sc.Degraded == nil {
				sc.Degraded = map[topology.LinkID]float64{}
			}
			sc.Degraded[topology.LinkID(l)] = 0.2 + 0.7*rng.Float64()
		}
		out[i] = sc
	}
	return out
}

// realizeFingerprint folds one realization into h — U, the arc loads
// and each destination's tunnel flows, destinations and tunnels in ID
// order, all as bits — or, when it failed, the error's text.
func realizeFingerprint(h hash.Hash64, r *routing.Realization, err error) {
	if err != nil {
		h.Write([]byte(err.Error()))
		return
	}
	var b []byte
	put := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	put(uint64(len(r.U)))
	for _, u := range r.U {
		put(math.Float64bits(u))
	}
	put(uint64(len(r.ArcLoad)))
	for _, l := range r.ArcLoad {
		put(math.Float64bits(l))
	}
	dsts := make([]topology.NodeID, 0, len(r.TunnelTo))
	for d := range r.TunnelTo {
		dsts = append(dsts, d)
	}
	slices.Sort(dsts)
	for _, d := range dsts {
		flows := r.TunnelTo[d]
		tids := make([]tunnels.ID, 0, len(flows))
		for tid := range flows {
			tids = append(tids, tid)
		}
		slices.Sort(tids)
		put(uint64(d))
		put(uint64(len(tids)))
		for _, tid := range tids {
			put(uint64(tid))
			put(math.Float64bits(flows[tid]))
		}
	}
	h.Write(b)
}

// TestCorrectionFingerprints: every Sweep.Realize of the designed set
// and of 1 000 seeded beyond-budget scenarios, on the benchmark's four
// plans, hashes (FNV-64a) to the golden. U, flows and error texts are
// as recorded with the dense corrector — the k×k capacitance LU and
// dense inverse columns — so storing and applying a correction by its
// nonzeros has not moved one bit of them; the arc loads are as
// recorded when a low-rank scenario's loads became its base loads plus
// what changed (DESIGN.md §12, "Arc loads: the base plus what
// changed"). TestPrepareFingerprints pins the instances these plans
// are solved on; routing's TestArcLoadsMatchDenseLoop,
// TestDeltaEmissionMatchesDense and TestColdPathMatchesDenseOracle stay
// the referees of the emission and the cold path.
func TestCorrectionFingerprints(t *testing.T) {
	btna := Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2}
	for _, tc := range []struct {
		name string
		opts Options
		cls  bool
		long bool // skipped under -short
		want uint64
	}{
		{"sprint-tf-f1", Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1}, false, false, 0x1b3a94faab0bc5d9},
		{"btna-cls-f2", btna, true, false, 0x84c888f4a84c5265},
		{"btna-tf-f2", btna, false, false, 0xeceefb202676d006},
		{"synth1k-tf-f1", Options{Synth: "waxman", SynthNodes: 1000, Seed: 1, MaxPairs: 250, FailureBudget: 1}, false, true, 0xec24651cc8061f63},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("the 1000-node solve is slow")
			}
			plan := benchmarkPlan(t, tc.opts, tc.cls)
			sw, err := routing.NewSweepContext(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			var scenarios []failures.Scenario
			plan.Instance.Failures.Enumerate(func(sc failures.Scenario) bool {
				scenarios = append(scenarios, sc)
				return true
			})
			scenarios = append(scenarios, beyondBudget(plan.Instance.Graph, 33, 1000)...)
			h := fnv.New64a()
			for _, sc := range scenarios {
				r, err := sw.Realize(sc)
				realizeFingerprint(h, r, err)
			}
			st := sw.Stats()
			t.Logf("%s: %d scenarios: %d low-rank (max rank %d), %d cold; fingerprint %#016x",
				tc.name, st.Scenarios, st.SMWHits, st.MaxRank, st.Fallbacks, h.Sum64())
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("%s: fingerprint %#016x over %d scenarios, golden %#016x", tc.name, got, len(scenarios), tc.want)
			}
		})
	}
}
