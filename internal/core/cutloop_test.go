package core_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/topology"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// btnaCLSInstance is the PCF-CLS instance of the btna-cls-f2 benchmark
// topology: BTNorthAmerica, its 40 heaviest pairs, f = 2, with
// core.BuildCLSQuick's logical sequences.
func btnaCLSInstance(tb testing.TB) *core.Instance {
	tb.Helper()
	setup, err := eval.Prepare(eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2})
	if err != nil {
		tb.Fatal(err)
	}
	in, _, err := core.BuildCLSQuick(&core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// TestCutLoopOracleCounts pins the cut loop on the BTNorthAmerica
// PCF-CLS instance: its rounds, cuts and pivots, how many of its
// separation-oracle calls repeat their polytope's previous costs and
// take the saved answer instead of a simplex solve, and its pricing
// passes and the bypass columns they entered (37 of the 152). A changed
// round, cut or iteration count means a pivot moved; fewer reused calls
// mean the saved answer stopped matching.
func TestCutLoopOracleCounts(t *testing.T) {
	plan, err := core.SolveBest(btnaCLSInstance(t), core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats
	got := [7]int{st.Rounds, st.Cuts, st.LPIterations, st.OracleCalls, st.OracleSolves, st.PricingRounds, st.ColumnsPriced}
	want := [7]int{6, 1014, 515, 569, 337, 3, 37}
	if plan.Scheme != "PCF-CLS" || got != want {
		t.Fatalf("%s: rounds, cuts, LP iterations, oracle calls, oracle solves, pricing rounds, columns priced = %v, want PCF-CLS %v", plan.Scheme, got, want)
	}
	m := st.Metrics()
	if m["oracle_calls"] != 569 || m["oracle_solves"] != 337 || m["pricing_rounds"] != 3 || m["columns_priced"] != 37 {
		t.Fatalf("Metrics: oracle_calls %v, oracle_solves %v, pricing_rounds %v, columns_priced %v",
			m["oracle_calls"], m["oracle_solves"], m["pricing_rounds"], m["columns_priced"])
	}
}

// flowInstance is the instance core.BuildCLS hands the §3.5 flow model:
// in's tunnels plus a direct one-link tunnel per link direction that
// has none, without LSs.
func flowInstance(in *core.Instance) *core.Instance {
	g := in.Graph
	ts := tunnels.NewSet(g)
	for _, p := range in.Tunnels.Pairs() {
		for _, id := range in.Tunnels.ForPair(p) {
			ts.MustAdd(p, in.Tunnels.Tunnel(id).Path)
		}
	}
	for _, l := range g.Links() {
		for _, arc := range []topology.ArcID{l.Forward(), l.Reverse()} {
			from, to := g.ArcEnds(arc)
			p := topology.Pair{Src: from, Dst: to}
			direct := false
			for _, id := range ts.ForPair(p) {
				path := ts.Tunnel(id).Path
				direct = direct || len(path.Arcs) == 1 && topology.LinkOf(path.Arcs[0]) == l.ID
			}
			if !direct {
				ts.MustAdd(p, topology.Path{Arcs: []topology.ArcID{arc}})
			}
		}
	}
	out := *in
	out.Tunnels, out.LSs = ts, nil
	return &out
}

// parallel3Instance is two nodes joined by three unit-capacity links,
// one unit of demand across them, every link direction a tunnel and
// one link failure: the instance Proposition 4 is checked on.
func parallel3Instance() *core.Instance {
	g := topology.New("par3")
	a, b := g.AddNode("a"), g.AddNode("b")
	ts := tunnels.NewSet(g)
	for k := 0; k < 3; k++ {
		l := g.Link(g.AddLink(a, b, 1))
		ts.MustAdd(topology.Pair{Src: a, Dst: b}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
		ts.MustAdd(topology.Pair{Src: b, Dst: a}, topology.Path{Arcs: []topology.ArcID{l.Reverse()}})
	}
	return &core.Instance{
		Graph: g, TM: traffic.Single(2, topology.Pair{Src: a, Dst: b}, 1), Tunnels: ts,
		Failures: failures.SingleLinks(g, 1), Objective: core.DemandScale,
	}
}

// TestMasterWorkCounts pins the robust masters built outside the scheme
// table: the §3.5 flow model on Sprint (24 pairs, f = 1, BuildCLS's
// direct-link tunnels) with the dense and the 3-path sparse support,
// its Generalized-R3 form on three parallel links, and the full-pool
// PCF-CLS referee on btna-cls-f2. Each row pins the value's bits and
// the rounds, cuts, LP iterations, oracle calls and oracle solves: a
// changed count means a pivot or a cut moved.
func TestMasterWorkCounts(t *testing.T) {
	flow := func(in *core.Instance, opts core.FlowOptions) (float64, core.SolveStats, error) {
		fp, err := core.SolveRestrictedFlow(in, opts)
		if err != nil {
			return 0, core.SolveStats{}, err
		}
		return fp.Value, fp.Stats, nil
	}
	sprint := func(t *testing.T) *core.Instance {
		setup, err := eval.Prepare(eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 24, FailureBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		return flowInstance(&core.Instance{
			Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
			Failures: setup.Failures, Objective: core.DemandScale,
		})
	}
	for _, tc := range []struct {
		name  string
		solve func(*testing.T) (float64, core.SolveStats, error)
		bits  uint64
		want  [5]int
	}{
		{"flow/sprint/dense", func(t *testing.T) (float64, core.SolveStats, error) {
			return flow(sprint(t), core.FlowOptions{})
		}, 0x3fe72025003b3391, [5]int{1, 678, 1672, 50, 50}},
		{"flow/sprint/sparse3", func(t *testing.T) (float64, core.SolveStats, error) {
			return flow(sprint(t), core.FlowOptions{SparseSupport: 3})
		}, 0x3fe72025003b3392, [5]int{1, 404, 638, 50, 50}},
		{"flow/parallel3/generalized-r3", func(*testing.T) (float64, core.SolveStats, error) {
			return flow(parallel3Instance(), core.FlowOptions{GeneralizedR3: true})
		}, 0x4000000000000000, [5]int{1, 8, 14, 2, 2}},
		{"full-pool/btna-cls-f2", func(t *testing.T) (float64, core.SolveStats, error) {
			plan, err := core.SolveFullPool(btnaCLSInstance(t), core.SolveOptions{})
			if err != nil {
				return 0, core.SolveStats{}, err
			}
			return plan.Value, plan.Stats, nil
		}, 0x3fc4cecc5bf76f7c, [5]int{11, 1311, 1495, 2068, 1363}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, st, err := tc.solve(t)
			if err != nil {
				t.Fatal(err)
			}
			got := [5]int{st.Rounds, st.Cuts, st.LPIterations, st.OracleCalls, st.OracleSolves}
			if bits := math.Float64bits(v); bits != tc.bits || got != tc.want {
				t.Fatalf("value %.10f (bits %016x), rounds, cuts, LP iterations, oracle calls, oracle solves = %v; want bits %016x, %v",
					v, bits, got, tc.bits, tc.want)
			}
		})
	}
}

// TestSeedCutsDistinct: a master's seed cuts are one row per distinct
// cut. No two seed rows of one pair's adversary are equal — the same
// columns with the same coefficients, bit for bit — on the benchmark's
// Sprint and synth1k PCF-TF masters and on btna-cls-f2's PCF master and
// pool, whose cuts carry the bypasses' condition variables; and the
// two PCF-TF masters' seed counts are pinned (units killing the same
// tunnels used to give 461 and 4 030 rows).
func TestSeedCutsDistinct(t *testing.T) {
	tf := func(o eval.Options) func(testing.TB) *core.Instance {
		return func(tb testing.TB) *core.Instance {
			setup, err := eval.Prepare(o)
			if err != nil {
				tb.Fatal(err)
			}
			return &core.Instance{
				Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
				Failures: setup.Failures, Objective: core.DemandScale,
			}
		}
	}
	for _, tc := range []struct {
		name  string
		in    func(testing.TB) *core.Instance
		long  bool // skipped under -short
		seeds int  // pinned when > 0
	}{
		{"sprint-tf-f1", tf(eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1}), false, 184},
		{"btna-cls-f2", btnaCLSInstance, false, 0},
		{"synth1k-tf-f1", tf(eval.Options{Synth: "waxman", SynthNodes: 1000, Seed: 1, MaxPairs: 250, FailureBudget: 1}), true, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("the 1000-node instance is slow to prepare")
			}
			rows, seeds, err := core.SeedRows(tc.in(t))
			if err != nil {
				t.Fatal(err)
			}
			for i, spec := range rows {
				seen := map[string]int{}
				for k, terms := range spec {
					key := rowKey(terms)
					if j, ok := seen[key]; ok {
						t.Fatalf("spec %d: seed rows %d and %d are equal: %s", i, j, k, key)
					}
					seen[key] = k
				}
			}
			if tc.seeds > 0 && seeds != tc.seeds {
				t.Fatalf("%d seed cuts, want %d", seeds, tc.seeds)
			}
		})
	}
}

// rowKey is a row's terms merged per variable, in variable order, with
// each coefficient's bits.
func rowKey(terms []lp.Term) string {
	sorted := slices.Clone(terms)
	slices.SortStableFunc(sorted, func(a, b lp.Term) int { return cmp.Compare(a.Var, b.Var) })
	var key []byte
	for k := 0; k < len(sorted); {
		v, sum := sorted[k].Var, 0.0
		for ; k < len(sorted) && sorted[k].Var == v; k++ {
			sum += sorted[k].Coeff
		}
		if sum != 0 {
			key = fmt.Appendf(key, "%d:%x ", v, math.Float64bits(sum))
		}
	}
	return string(key)
}
