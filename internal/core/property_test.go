package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/mcf"
	"pcf/internal/topology"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// randomInstance builds a random 2-edge-connected instance with a few
// demands and tunnels.
func randomInstance(rng *rand.Rand) *Instance {
	n := 4 + rng.Intn(5)
	g := topology.New("rand")
	for i := 0; i < n; i++ {
		g.AddNode("n")
	}
	for i := 0; i < n; i++ {
		g.AddLink(topology.NodeID(i), topology.NodeID((i+1)%n), 1+3*rng.Float64())
	}
	for e := 0; e < 1+n/2; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddLink(topology.NodeID(a), topology.NodeID(b), 1+3*rng.Float64())
		}
	}
	tm := traffic.NewMatrix(n)
	numDemands := 2 + rng.Intn(4)
	for d := 0; d < numDemands; d++ {
		s, t := rng.Intn(n), rng.Intn(n)
		if s != t {
			tm.Demand[s][t] += 0.5 + rng.Float64()
		}
	}
	if len(tm.Pairs(0)) == 0 {
		tm.Demand[0][1] = 1 // guarantee at least one demand
	}
	ts, err := tunnels.Select(g, tm.Pairs(0), tunnels.SelectOptions{PerPair: 2 + rng.Intn(2)})
	if err != nil {
		//lint:ignore pcflint/nopanic property-test instance generator has no *testing.T; generation failure is a bug in the test itself
		panic(err)
	}
	return &Instance{
		Graph:     g,
		TM:        tm,
		Tunnels:   ts,
		Failures:  failures.SingleLinks(g, 1),
		Objective: DemandScale,
	}
}

// worstCaseByEnumeration computes the exact integral worst case of a
// tunnel-only plan: the minimum over scenarios of the surviving
// reservation per pair, as a fraction of demand.
func worstCaseByEnumeration(in *Instance, plan *Plan) float64 {
	worst := math.Inf(1)
	in.Failures.Enumerate(func(sc failures.Scenario) bool {
		for _, p := range in.DemandPairs() {
			alive := 0.0
			for _, tid := range in.Tunnels.ForPair(p) {
				if sc.Alive(in.Tunnels.Tunnel(tid).Path) {
					alive += plan.TunnelRes[tid]
				}
			}
			if z := alive / in.TM.At(p); z < worst {
				worst = z
			}
		}
		return true
	})
	return worst
}

// TestPropertyPlansSurviveEnumeration: for random instances, the
// PCF-TF guarantee never exceeds what exhaustive scenario enumeration
// certifies (the LP relaxation of the failure set is conservative).
func TestPropertyPlansSurviveEnumeration(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(6))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng)
		plan, err := SolvePCFTF(in, SolveOptions{})
		if err != nil {
			return false
		}
		actual := worstCaseByEnumeration(in, plan)
		// plan.Value is a valid guarantee: actual >= plan.Value.
		return actual >= plan.Value-1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCapacityRespected: reservations never exceed capacities.
func TestPropertyCapacityRespected(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(14))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng)
		plan, err := SolvePCFTF(in, SolveOptions{})
		if err != nil {
			return false
		}
		load := make([]float64, in.Graph.NumArcs())
		for _, p := range in.Tunnels.Pairs() {
			for _, tid := range in.Tunnels.ForPair(p) {
				for _, a := range in.Tunnels.Tunnel(tid).Path.Arcs {
					load[a] += plan.TunnelRes[tid]
				}
			}
		}
		for a := range load {
			if load[a] > in.Graph.ArcCapacity(topology.ArcID(a))+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySchemeDominance: FFC <= PCF-TF <= optimal on random
// instances (Proposition 1 plus conservativeness).
func TestPropertySchemeDominance(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(23))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng)
		ffc, err := SolveFFC(in, SolveOptions{})
		if err != nil {
			return false
		}
		tf, err := SolvePCFTF(in, SolveOptions{})
		if err != nil {
			return false
		}
		opt, _, _, err := mcf.OptimalUnderFailuresStats(context.Background(), in.Graph, in.TM, in.Failures)
		if err != nil {
			return false
		}
		return ffc.Value <= tf.Value+1e-6 && tf.Value <= opt+1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEnginesAgree: the cut loop reaches the optimum of the
// appendix-D2 dualization (solveDualized) on random instances, for FFC
// and PCF-TF.
func TestPropertyEnginesAgree(t *testing.T) {
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(31))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng)
		for _, e := range engines {
			d, err := solveDualized(in, e.build)
			if err != nil {
				return false
			}
			c, err := e.solve(in, SolveOptions{})
			if err != nil {
				return false
			}
			if math.Abs(d-c.Value) > 1e-9*(1+math.Abs(d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCLSDominatesTF: adding the quick CLS logical sequences
// never hurts (their reservations may be zero).
func TestPropertyCLSDominatesTF(t *testing.T) {
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(37))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng)
		tf, err := SolvePCFTF(in, SolveOptions{})
		if err != nil {
			return false
		}
		clsIn, _, err := BuildCLSQuick(in)
		if err != nil {
			return false
		}
		cls, err := SolvePCFCLS(clsIn, SolveOptions{})
		if err != nil {
			return false
		}
		return cls.Value >= tf.Value-1e-6
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSRLGConservativeVsLinks: protecting against one SRLG that groups
// two links is at least as hard as protecting against either link
// alone, and the scheme remains congestion-free on SRLG scenarios.
func TestSRLGConservativeVsLinks(t *testing.T) {
	gad := fig1Instance(4, 1)
	g := gad.Graph
	// Group links 0 (s-1) and 2 (s-2) as one SRLG.
	srlgIn := *gad
	srlgIn.Failures = failures.SRLGSet(g, []failures.SRLGSpec{{Links: []topology.LinkID{0, 2}}}, 1)
	srlg, err := SolvePCFTF(&srlgIn, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := SolvePCFTF(gad, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The SRLG kills l1 and l2 together: guarantee must drop to what
	// the remaining tunnels (l3, l4, sharing 3-t) can carry: 1.0.
	approx(t, srlg.Value, 1, "SRLG guarantee")
	if srlg.Value > single.Value+1e-9 {
		t.Fatalf("grouped failure should not beat single-link model: %g vs %g", srlg.Value, single.Value)
	}
	// Verify against enumeration.
	actual := worstCaseByEnumeration(&srlgIn, srlg)
	if actual < srlg.Value-1e-6 {
		t.Fatalf("SRLG plan not survivable: %g < %g", actual, srlg.Value)
	}
}

// TestNodeFailureModel: PCF-TF protects against router failures, which
// R3 cannot model at all (§3.5).
func TestNodeFailureModel(t *testing.T) {
	gad := fig1Instance(4, 1)
	g := gad.Graph
	// Any one of the intermediate routers 1..4 (nodes 1-4) may fail.
	nodeIn := *gad
	nodeIn.Failures = failures.Nodes(g, []topology.NodeID{1, 2, 3, 4}, 1)
	plan, err := SolvePCFTF(&nodeIn, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1's failure kills l1 (1 unit); node 2's kills l2; node 3's
	// kills l3 and l4. Optimal reservation a=(1,1,0.5,0.5) survives
	// any single node failure with 2 units except... enumerate.
	actual := worstCaseByEnumeration(&nodeIn, plan)
	if actual < plan.Value-1e-6 {
		t.Fatalf("node-failure plan not survivable: %g < %g", actual, plan.Value)
	}
	if plan.Value <= 0 {
		t.Fatal("node-failure protection should admit traffic on Fig 1")
	}
	// R3 must refuse the node-failure units.
	if _, err := SolveR3(&nodeIn, SolveOptions{}); err == nil {
		t.Fatal("R3 should reject node failure units")
	}
}

// TestThroughputObjectiveBasics: with Θ = throughput, z is capped at 1
// per pair and the objective sums granted bandwidth.
func TestThroughputObjectiveBasics(t *testing.T) {
	in := fig1Instance(4, 1)
	in.Objective = Throughput
	// Demand 10 >> capacity: throughput = guaranteed bandwidth = 2.
	in.TM = traffic.Single(in.Graph.NumNodes(), topology.Pair{Src: 0, Dst: 5}, 10)
	plan, err := SolvePCFTF(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, plan.Value, 2, "throughput capacity-limited")
	// Demand 1 << capacity: z caps at 1, throughput = 1.
	in2 := fig1Instance(4, 1)
	in2.Objective = Throughput
	plan2, err := SolvePCFTF(in2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, plan2.Value, 1, "throughput demand-limited")
	if z := plan2.Z[topology.Pair{Src: 0, Dst: 5}]; math.Abs(z-1) > 1e-6 {
		t.Fatalf("z = %g, want 1", z)
	}
}

// TestInstanceValidation exercises the error paths.
func TestInstanceValidation(t *testing.T) {
	in := fig1Instance(4, 1)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Missing component.
	bad := *in
	bad.TM = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil TM accepted")
	}
	// Mismatched TM.
	bad2 := *in
	bad2.TM = traffic.NewMatrix(3)
	if err := bad2.Validate(); err == nil {
		t.Fatal("mismatched TM accepted")
	}
	// LS with bad ID ordering.
	bad3 := *in
	bad3.LSs = []LogicalSequence{{ID: 5, Pair: topology.Pair{Src: 0, Dst: 5}, Hops: []topology.NodeID{1}}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("bad LS ID accepted")
	}
	// Pair with demand but no tunnels.
	g2 := topology.New("g2")
	a := g2.AddNode("a")
	b := g2.AddNode("b")
	g2.AddLink(a, b, 1)
	bad4 := &Instance{
		Graph:    g2,
		TM:       traffic.Single(2, topology.Pair{Src: a, Dst: b}, 1),
		Tunnels:  tunnels.NewSet(g2),
		Failures: failures.SingleLinks(g2, 1),
	}
	if err := bad4.Validate(); err == nil {
		t.Fatal("uncovered demand pair accepted")
	}
}

// TestNegativeBudgetIsTyped: a failure set with a negative budget holds
// no scenario, not even the no-failure seed cut. Every scheme and the
// §3.5 flow model refuse it up front with ErrNegativeBudget instead of
// an internal error from the cut loop.
func TestNegativeBudgetIsTyped(t *testing.T) {
	for _, tc := range []struct {
		name  string
		solve func(*Instance, SolveOptions) (*Plan, error)
	}{
		{"FFC", SolveFFC},
		{"PCF-TF", SolvePCFTF},
		{"PCF-LS", SolvePCFLS},
		{"PCF-CLS", SolvePCFCLS},
		{"best", SolveBest},
		{"R3", SolveR3},
		{"flow model", func(in *Instance, opts SolveOptions) (*Plan, error) {
			_, err := SolveRestrictedFlow(in, FlowOptions{SolveOptions: opts})
			return nil, err
		}},
	} {
		in := fig1Instance(3, 1)
		in.Failures.Budget = -1
		_, err := tc.solve(in, SolveOptions{})
		if !errors.Is(err, ErrNegativeBudget) {
			t.Errorf("%s: error %v, want ErrNegativeBudget", tc.name, err)
		} else if strings.Contains(err.Error(), "internal") {
			t.Errorf("%s: error %q still reads as internal", tc.name, err)
		}
	}
}

// TestLSValidation exercises LogicalSequence.Validate.
func TestLSValidation(t *testing.T) {
	good := LogicalSequence{ID: 0, Pair: topology.Pair{Src: 0, Dst: 3}, Hops: []topology.NodeID{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (LogicalSequence{Pair: topology.Pair{Src: 0, Dst: 3}}).Validate(); err == nil {
		t.Fatal("no hops accepted")
	}
	dupHop := LogicalSequence{Pair: topology.Pair{Src: 0, Dst: 3}, Hops: []topology.NodeID{0}}
	if err := dupHop.Validate(); err == nil {
		t.Fatal("hop equal to source accepted")
	}
	dupDst := LogicalSequence{Pair: topology.Pair{Src: 0, Dst: 3}, Hops: []topology.NodeID{3}}
	if err := dupDst.Validate(); err == nil {
		t.Fatal("hop equal to destination accepted")
	}
}

// TestConditionHolds covers the condition semantics.
func TestConditionHolds(t *testing.T) {
	scDead := failures.Scenario{Dead: map[topology.LinkID]bool{2: true}}
	scAll := failures.Scenario{Dead: map[topology.LinkID]bool{}}
	var nilCond *Condition
	if !nilCond.Holds(scDead) {
		t.Fatal("nil condition must always hold")
	}
	if !LinkDead(2).Holds(scDead) || LinkDead(2).Holds(scAll) {
		t.Fatal("LinkDead semantics wrong")
	}
	if LinkAlive(2).Holds(scDead) || !LinkAlive(2).Holds(scAll) {
		t.Fatal("LinkAlive semantics wrong")
	}
	both := &Condition{AliveLinks: []topology.LinkID{1}, DeadLinks: []topology.LinkID{2}}
	if !both.Holds(scDead) {
		t.Fatal("combined condition should hold when 1 alive and 2 dead")
	}
	if got := len(both.Links()); got != 2 {
		t.Fatalf("Links() = %d", got)
	}
}

// TestSegments checks segment derivation.
func TestSegments(t *testing.T) {
	q := LogicalSequence{Pair: topology.Pair{Src: 0, Dst: 9}, Hops: []topology.NodeID{4, 7}}
	segs := q.Segments()
	want := []topology.Pair{{Src: 0, Dst: 4}, {Src: 4, Dst: 7}, {Src: 7, Dst: 9}}
	if len(segs) != len(want) {
		t.Fatalf("segments = %v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %v, want %v", i, segs[i], want[i])
		}
	}
}

// TestPlanHelpers covers Plan convenience methods.
func TestPlanHelpers(t *testing.T) {
	in := fig1Instance(4, 1)
	plan, err := SolvePCFTF(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pair := topology.Pair{Src: 0, Dst: 5}
	if got := plan.ScaledDemand(pair); math.Abs(got-plan.Value) > 1e-6 {
		t.Fatalf("scaled demand %g, want %g", got, plan.Value)
	}
}

// TestScenarioPointIsVertex: scenarioPoint always lies in the
// adversary polytope, for all schemes and scenario budgets.
func TestScenarioPointIsVertex(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(41))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng)
		in.Failures.Budget = 1 + rng.Intn(2)
		m, mv, _ := buildMaster(in, nil, in.DemandPairs(), in.ConstraintPairs(), 0)
		_ = m
		ok := true
		for _, p := range in.ConstraintPairs() {
			for _, build := range []advBuilder{buildFFCAdversary, buildPCFAdversary} {
				spec := build(in, p, mv)
				in.Failures.Enumerate(func(sc failures.Scenario) bool {
					w := spec.scenarioPoint(sc)
					if !spec.poly.Contains(w, 1e-9) {
						ok = false
						return false
					}
					return true
				})
			}
		}
		return ok
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDualizedAtLeastEnumerated: the LP-relaxed guarantee is never
// better than the integral enumeration bound (relaxation is on the
// adversary side, so it is conservative), and for simple budget-1
// instances they coincide.
func TestDualizedAtLeastEnumerated(t *testing.T) {
	in := fig1Instance(4, 1)
	plan, err := SolvePCFTF(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	enumerated := worstCaseByEnumeration(in, plan)
	if plan.Value > enumerated+1e-6 {
		t.Fatalf("guarantee %g exceeds integral worst case %g", plan.Value, enumerated)
	}
}

var _ = lp.NewModel // keep the lp import for the adversary test above

// TestLSIndexMatchesScan: every pair's adversary reads its LSs off the
// index one pass over the LSs builds. Each list must be the one a scan
// of every LS for that pair gives, in LS order — an LS that repeats a
// segment listed once — so every spec and plan stays as it was.
func TestLSIndexMatchesScan(t *testing.T) {
	scan := func(in *Instance, p topology.Pair) (local, through []LSID) {
		for _, q := range in.LSs {
			if q.Pair == p {
				local = append(local, q.ID)
			}
			for _, s := range q.Segments() {
				if s == p {
					through = append(through, q.ID)
					break
				}
			}
		}
		return local, through
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		in, _, err := BuildCLSQuick(randomInstance(rng))
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 { // 0 → 1 → 2 → 1 → 2 → 3 crosses (1,2) twice
			in.LSs = append(in.LSs, LogicalSequence{ID: LSID(len(in.LSs)),
				Pair: topology.Pair{Src: 0, Dst: 3}, Hops: []topology.NodeID{1, 2, 1, 2}})
		}
		idx := in.lsIndex()
		pairs := in.ConstraintPairs()
		for _, q := range in.LSs {
			pairs = append(pairs, q.Pair)
		}
		for _, p := range pairs {
			local, through := scan(in, p)
			if got := idx[p]; !slices.Equal(got.local, local) || !slices.Equal(got.through, through) {
				t.Fatalf("trial %d, pair %v: index %v / %v, scan %v / %v", trial, p, got.local, got.through, local, through)
			}
		}
	}
}
