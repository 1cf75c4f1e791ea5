package serve

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// testClient is the HTTP client every test uses against its in-process
// server. The Timeout is generous (soak requests carry server-side
// ?timeout= budgets up to 10s) but bounded: a wedged handler fails the
// individual request instead of stalling the whole suite until the go
// test deadline.
var testClient = &http.Client{Timeout: 30 * time.Second}

// testInstance builds a 4-node ring with one demand pair, two disjoint
// tunnels, one unconditional LS and one conditional LS — the smallest
// instance that exercises every rung of the solve ladder and the SMW
// realization path, yet solves in milliseconds.
func testInstance() *core.Instance {
	g := topology.New("ring4")
	for i := 0; i < 4; i++ {
		g.AddNode("n")
	}
	g.AddLink(0, 1, 10)
	g.AddLink(1, 2, 10)
	g.AddLink(2, 3, 10)
	g.AddLink(3, 0, 10)
	links := g.Links()
	ts := tunnels.NewSet(g)
	for _, l := range links {
		ts.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
		ts.MustAdd(topology.Pair{Src: l.B, Dst: l.A}, topology.Path{Arcs: []topology.ArcID{l.Reverse()}})
	}
	p02 := topology.Pair{Src: 0, Dst: 2}
	ts.MustAdd(p02, topology.Path{Arcs: []topology.ArcID{links[0].Forward(), links[1].Forward()}})
	ts.MustAdd(p02, topology.Path{Arcs: []topology.ArcID{links[3].Reverse(), links[2].Reverse()}})
	return &core.Instance{
		Graph:   g,
		TM:      traffic.Single(4, p02, 1),
		Tunnels: ts,
		LSs: []core.LogicalSequence{
			{ID: 0, Pair: p02, Hops: []topology.NodeID{3}},
			{ID: 1, Pair: p02, Hops: []topology.NodeID{1},
				Cond: &core.Condition{DeadLinks: []topology.LinkID{3}}},
		},
		Failures:  failures.SingleLinks(g, 1),
		Objective: core.DemandScale,
	}
}

var (
	planOnce sync.Once
	planInst *core.Instance
	planVal  *core.Plan
	planErr  error
)

// sprintPlan solves PCF-TF on Sprint's eight heaviest pairs at f=1:
// wide enough that single-link scenarios make row updates, and that
// draws past the budget fall into classes a sampled validation realizes
// through rank-k updates.
func sprintPlan(t *testing.T) (*core.Instance, *core.Plan) {
	t.Helper()
	g := topozoo.MustLoad("Sprint")
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 5, Jitter: 0.4})
	pairs := tm.TopPairs(8)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Graph: g, TM: tm.Restrict(pairs), Tunnels: ts,
		Failures: failures.SingleLinks(g, 1), Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return in, plan
}

// testPlan solves the shared test instance once per test binary. The
// returned instance and plan are shared: tests must not mutate them.
func testPlan(t *testing.T) (*core.Instance, *core.Plan) {
	t.Helper()
	planOnce.Do(func() {
		planInst = testInstance()
		planVal, planErr = core.SolveBest(planInst, core.SolveOptions{})
	})
	if planErr != nil {
		t.Fatalf("solving shared test plan: %v", planErr)
	}
	return planInst, planVal
}
