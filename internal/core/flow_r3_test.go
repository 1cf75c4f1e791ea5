package core

import (
	"slices"
	"testing"

	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// parallel3 builds two nodes joined by three unit-capacity links.
func parallel3() (*topology.Graph, topology.Pair) {
	g := topology.New("par3")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddLink(a, b, 1)
	g.AddLink(a, b, 1)
	g.AddLink(a, b, 1)
	return g, topology.Pair{Src: a, Dst: b}
}

func linkTunnels(g *topology.Graph) *tunnels.Set {
	ts := tunnels.NewSet(g)
	for _, l := range g.Links() {
		ts.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
		ts.MustAdd(topology.Pair{Src: l.B, Dst: l.A}, topology.Path{Arcs: []topology.ArcID{l.Reverse()}})
	}
	return ts
}

func TestR3Parallel3(t *testing.T) {
	g, pair := parallel3()
	in := &Instance{
		Graph:     g,
		TM:        traffic.Single(g.NumNodes(), pair, 1),
		Tunnels:   linkTunnels(g),
		Failures:  failures.SingleLinks(g, 1),
		Objective: DemandScale,
	}
	plan, err := SolveR3(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Each link must leave headroom for half of a failed neighbor's
	// full capacity: base 0.5 per link, z = 1.5.
	approx(t, plan.Value, 1.5, "R3 on 3 parallel links")
}

func TestR3RingIsZero(t *testing.T) {
	// On a 4-cycle R3's full-capacity virtual demands consume entire
	// surviving links, leaving nothing for base traffic.
	g := topology.New("ring4")
	for i := 0; i < 4; i++ {
		g.AddNode("n")
	}
	for i := 0; i < 4; i++ {
		g.AddLink(topology.NodeID(i), topology.NodeID((i+1)%4), 1)
	}
	pair := topology.Pair{Src: 0, Dst: 2}
	in := &Instance{
		Graph:     g,
		TM:        traffic.Single(4, pair, 1),
		Tunnels:   linkTunnels(g),
		Failures:  failures.SingleLinks(g, 1),
		Objective: DemandScale,
	}
	plan, err := SolveR3(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, plan.Value, 0, "R3 on a ring")
}

// TestTable1R3 completes Table 1: R3 = 0 on Fig. 5 under double
// failures, because two failures can isolate a degree-2 node and R3's
// guarantee requires survivable connectivity.
func TestTable1R3(t *testing.T) {
	gad := topozoo.Fig5()
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	in := &Instance{
		Graph:     gad.Graph,
		TM:        traffic.Single(gad.Graph.NumNodes(), pair, 1),
		Tunnels:   linkTunnels(gad.Graph),
		Failures:  failures.SingleLinks(gad.Graph, 2),
		Objective: DemandScale,
	}
	plan, err := SolveR3(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, plan.Value, 0, "Table 1 R3")
}

func TestR3RejectsSRLG(t *testing.T) {
	g, pair := parallel3()
	in := &Instance{
		Graph:     g,
		TM:        traffic.Single(g.NumNodes(), pair, 1),
		Tunnels:   linkTunnels(g),
		Failures:  failures.SRLGSet(g, []failures.SRLGSpec{{Links: []topology.LinkID{0, 1}}}, 1),
		Objective: DemandScale,
	}
	if _, err := SolveR3(in, SolveOptions{}); err == nil {
		t.Fatal("R3 should reject SRLG failure units")
	}
}

// TestProposition4 checks that the Generalized-R3 special case of the
// logical-flow model dominates R3.
func TestProposition4(t *testing.T) {
	// On the 3-parallel-link instance both are positive; GR3 >= R3.
	g2, pair2 := parallel3()
	in2 := &Instance{
		Graph:     g2,
		TM:        traffic.Single(g2.NumNodes(), pair2, 1),
		Tunnels:   linkTunnels(g2),
		Failures:  failures.SingleLinks(g2, 1),
		Objective: DemandScale,
	}
	r3, err := SolveR3(in2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gr3, err := SolveRestrictedFlow(in2, FlowOptions{GeneralizedR3: true})
	if err != nil {
		t.Fatal(err)
	}
	if gr3.Value < r3.Value-1e-6 {
		t.Fatalf("Generalized-R3 %g < R3 %g", gr3.Value, r3.Value)
	}
}

// TestFlowModelDominatesPCFTF: with flows allowed to be zero, the flow
// model's feasible region contains PCF-TF's, so its value is at least
// as large.
func TestFlowModelDominatesPCFTF(t *testing.T) {
	in := fig1Instance(4, 1)
	tf, err := SolvePCFTF(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The flow instance needs adjacent-pair tunnels too.
	flowTs := tunnels.NewSet(in.Graph)
	pair := topology.Pair{Src: 0, Dst: 5}
	for _, id := range in.Tunnels.ForPair(pair) {
		flowTs.MustAdd(pair, in.Tunnels.Tunnel(id).Path)
	}
	for _, l := range in.Graph.Links() {
		flowTs.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
		flowTs.MustAdd(topology.Pair{Src: l.B, Dst: l.A}, topology.Path{Arcs: []topology.ArcID{l.Reverse()}})
	}
	flowIn := *in
	flowIn.Tunnels = flowTs
	fp, err := SolveRestrictedFlow(&flowIn, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Value < tf.Value-1e-5 {
		t.Fatalf("flow model %g < PCF-TF %g", fp.Value, tf.Value)
	}
}

// TestBuildCLSPipeline runs the full PCF-CLS heuristic on Fig. 1 and
// checks it does not regress below PCF-TF.
func TestBuildCLSPipeline(t *testing.T) {
	in := fig1Instance(4, 1)
	tf, err := SolvePCFTF(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clsIn, lss, err := BuildCLS(in, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := SolvePCFCLS(clsIn, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cls.Value < tf.Value-1e-5 {
		t.Fatalf("PCF-CLS %g < PCF-TF %g (LSs: %d)", cls.Value, tf.Value, len(lss))
	}
}

func TestDecomposeFlowPlanShapes(t *testing.T) {
	// On the Fig. 4 chain, the demand flow must decompose into the
	// spine LS s0-s1-s2-s3.
	gad := topozoo.Fig4(3, 2, 3)
	g := gad.Graph
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	in := &Instance{
		Graph:     g,
		TM:        traffic.Single(g.NumNodes(), pair, 1),
		Tunnels:   linkTunnels(g),
		Failures:  failures.SingleLinks(g, 1),
		Objective: DemandScale,
	}
	fp, err := SolveRestrictedFlow(in, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lss := DecomposeFlowPlan(fp)
	found := false
	for _, q := range lss {
		if q.Pair == pair && q.Cond == nil && len(q.Hops) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected the spine LS in decomposition, got %+v (value %g)", lss, fp.Value)
	}
}

func TestTopSortBasics(t *testing.T) {
	p02 := topology.Pair{Src: 0, Dst: 2}
	p24 := topology.Pair{Src: 2, Dst: 4}
	chain := []LogicalSequence{
		{ID: 0, Pair: topology.Pair{Src: 0, Dst: 4}, Hops: []topology.NodeID{2}},
		{ID: 1, Pair: p02, Hops: []topology.NodeID{1}},
		{ID: 2, Pair: p24, Hops: []topology.NodeID{3}},
	}
	if !globallySortable(chain) {
		t.Fatal("chain should be sortable")
	}
	// Add a cycle: (0,1) uses segment (0,2)... build mutual recursion:
	// LS for (0,2) via hop 3 -> segments (0,3)(3,2); LS for (0,3) via
	// hop 2 -> segments (0,2)(2,3): (0,2) > (0,3) > (0,2).
	cyc := []LogicalSequence{
		{ID: 0, Pair: topology.Pair{Src: 0, Dst: 2}, Hops: []topology.NodeID{3}},
		{ID: 1, Pair: topology.Pair{Src: 0, Dst: 3}, Hops: []topology.NodeID{2}},
	}
	if globallySortable(cyc) {
		t.Fatal("mutually recursive LSs should not be sortable")
	}
	kept, pruned := TopSortFilter(cyc, false)
	if pruned != 1 || len(kept) != 1 {
		t.Fatalf("filter kept %d pruned %d", len(kept), pruned)
	}
	if kept[0].ID != 0 {
		t.Fatal("kept LS should be re-IDed to 0")
	}
}

// globallySortable reports whether the LS set admits a single
// topological order over node pairs valid in every scenario: the
// conservative global relation TopSortFilter applies when it cannot
// check per scenario, pruning nothing.
func globallySortable(lss []LogicalSequence) bool {
	_, pruned := TopSortFilter(lss, false)
	return pruned == 0
}

// sortableUnderSingleFailures reports per-scenario sortability in the
// single-link-failure regime: in any scenario at most one link is dead,
// so only the unconditional LSs plus that one link's conditional LSs
// are active together (§4.2's requirement applies scenario by
// scenario). It checks each scenario's active set on its own, where
// TopSortFilter keeps one relation per link as it goes.
func sortableUnderSingleFailures(lss []LogicalSequence) bool {
	if !singleDeadConds(lss) {
		return globallySortable(lss)
	}
	var uncond []LogicalSequence
	byLink := map[topology.LinkID][]LogicalSequence{}
	for _, q := range lss {
		if q.Cond == nil {
			uncond = append(uncond, q)
		} else {
			byLink[q.Cond.DeadLinks[0]] = append(byLink[q.Cond.DeadLinks[0]], q)
		}
	}
	if !globallySortable(uncond) {
		return false
	}
	for _, conds := range byLink {
		if !globallySortable(append(slices.Clip(uncond), conds...)) {
			return false
		}
	}
	return true
}

// TestTopSortFilterSortablePerScenario: §5.2's PCF-CLS-TopSort filter
// keeps a set that is topologically sortable in every single-failure
// scenario. Sprint's PCF-CLS logical sequences are cyclic only across
// scenarios, so the filter keeps what the global check would prune;
// two LSs that form a cycle when the same link is dead lose one.
func TestTopSortFilterSortablePerScenario(t *testing.T) {
	g := topozoo.MustLoad("Sprint")
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 5, Jitter: 0.4})
	pairs := tm.TopPairs(12)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, lss, err := BuildCLSQuick(&Instance{
		Graph:     g,
		TM:        tm.Restrict(pairs),
		Tunnels:   ts,
		Failures:  failures.SingleLinks(g, 1),
		Objective: DemandScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	if globallySortable(lss) {
		t.Fatal("Sprint's CLS LSs are globally sortable; the per-scenario check is not exercised")
	}
	kept, _ := TopSortFilter(lss, true)
	if !sortableUnderSingleFailures(kept) {
		t.Fatal("filtered LSs must be per-scenario sortable")
	}

	// (0,2) via 3 and (0,3) via 2 need each other: a cycle when both
	// are active.
	dead := func(l topology.LinkID) *Condition { return &Condition{DeadLinks: []topology.LinkID{l}} }
	for _, tc := range []struct {
		a, b topology.LinkID
		keep int
	}{{5, 6, 2}, {5, 5, 1}} {
		cyc := []LogicalSequence{
			{ID: 0, Pair: topology.Pair{Src: 0, Dst: 2}, Hops: []topology.NodeID{3}, Cond: dead(tc.a)},
			{ID: 1, Pair: topology.Pair{Src: 0, Dst: 3}, Hops: []topology.NodeID{2}, Cond: dead(tc.b)},
		}
		if got := sortableUnderSingleFailures(cyc); got != (tc.keep == 2) {
			t.Fatalf("dead links %d and %d: per-scenario sortable = %v", tc.a, tc.b, got)
		}
		kept, _ := TopSortFilter(cyc, true)
		if len(kept) != tc.keep || !sortableUnderSingleFailures(kept) {
			t.Fatalf("dead links %d and %d: kept %d LSs, want %d", tc.a, tc.b, len(kept), tc.keep)
		}
	}
}

func TestTopologicalPairOrder(t *testing.T) {
	p04 := topology.Pair{Src: 0, Dst: 4}
	p02 := topology.Pair{Src: 0, Dst: 2}
	p24 := topology.Pair{Src: 2, Dst: 4}
	lss := []LogicalSequence{
		{ID: 0, Pair: p04, Hops: []topology.NodeID{2}},
	}
	pairs := []topology.Pair{p02, p24, p04}
	order, err := TopologicalPairOrder(lss, pairs)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[topology.Pair]int{}
	for i, p := range order {
		pos[p] = i
	}
	if pos[p04] > pos[p02] || pos[p04] > pos[p24] {
		t.Fatalf("LS pair must come before its segments: %v", order)
	}
	// Cyclic relation errors.
	cyc := []LogicalSequence{
		{ID: 0, Pair: topology.Pair{Src: 0, Dst: 2}, Hops: []topology.NodeID{3}},
		{ID: 1, Pair: topology.Pair{Src: 0, Dst: 3}, Hops: []topology.NodeID{2}},
	}
	cpairs := []topology.Pair{
		{Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 3, Dst: 2}, {Src: 2, Dst: 3},
	}
	if _, err := TopologicalPairOrder(cyc, cpairs); err == nil {
		t.Fatal("expected cycle error")
	}
}
