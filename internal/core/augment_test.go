package core

import (
	"errors"
	"strings"
	"testing"

	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/topology"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

func TestAugmentZeroWhenAlreadyFeasible(t *testing.T) {
	in := fig1Instance(4, 1)
	// PCF-TF already guarantees 2 on Fig 1 under single failures.
	ap, err := SolveAugmentPCFTF(in, 2.0, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ap.Total > 1e-6 {
		t.Fatalf("no augmentation needed for target 2, got %g", ap.Total)
	}
}

func TestAugmentReachesHigherTarget(t *testing.T) {
	in := fig1Instance(4, 1)
	const target = 2.5
	ap, err := SolveAugmentPCFTF(in, target, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ap.Total <= 0 {
		t.Fatal("target 2.5 exceeds the base capability; augmentation must be positive")
	}
	// Verify: PCF-TF on the augmented graph reaches the target. The
	// tunnels reference arcs by ID, which are preserved by Apply.
	aug := ap.Apply()
	in2 := *in
	in2.Graph = aug
	plan, err := SolvePCFTF(&in2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Value < target-1e-5 {
		t.Fatalf("augmented network guarantees %g < target %g", plan.Value, target)
	}
}

func TestAugmentMonotoneInTarget(t *testing.T) {
	in := fig1Instance(4, 1)
	prev := -1.0
	for _, target := range []float64{1.0, 2.0, 2.5, 3.0} {
		ap, err := SolveAugmentPCFTF(in, target, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ap.Total < prev-1e-9 {
			t.Fatalf("augmentation cost decreased with a higher target: %g after %g", ap.Total, prev)
		}
		prev = ap.Total
	}
}

func TestAugmentRejectsBadTarget(t *testing.T) {
	in := fig1Instance(4, 1)
	if _, err := SolveAugmentPCFTF(in, 0, SolveOptions{}); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := SolveAugmentPCFTF(in, -1, SolveOptions{}); err == nil {
		t.Fatal("negative target accepted")
	}
}

// TestAugmentUnreachableTargetIsTyped: three failures cut every Fig. 1
// tunnel at once, so no added capacity guarantees anything. The error
// must match lp.ErrInfeasible (what Degradable and pcfd's breaker key
// on) and still carry the hint.
func TestAugmentUnreachableTargetIsTyped(t *testing.T) {
	_, err := SolveAugmentPCFTF(fig1Instance(4, 3), 1.0, SolveOptions{})
	if !errors.Is(err, lp.ErrInfeasible) {
		t.Fatalf("unreachable target: got %v, want an error matching lp.ErrInfeasible", err)
	}
	if !strings.Contains(err.Error(), "target may be unreachable") {
		t.Fatalf("unreachable target: %q lost its hint", err)
	}
}

func TestAugmentAddsWhereNeeded(t *testing.T) {
	// Two parallel links of capacity 1; demand 2; single failures.
	// Guaranteeing z=1 requires each link alone to carry 2: add 1 to
	// each link (total 2).
	g := topology.New("par2")
	a := g.AddNode("a")
	b := g.AddNode("b")
	l0 := g.AddLink(a, b, 1)
	l1 := g.AddLink(a, b, 1)
	pair := topology.Pair{Src: a, Dst: b}
	in := &Instance{
		Graph:     g,
		TM:        traffic.Single(2, pair, 2),
		Tunnels:   par2Tunnels(g, pair),
		Failures:  failures.SingleLinks(g, 1),
		Objective: DemandScale,
	}
	ap, err := SolveAugmentPCFTF(in, 1.0, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ap.Total, 2, "total augmentation")
	approx(t, ap.Added[l0], 1, "link 0 addition")
	approx(t, ap.Added[l1], 1, "link 1 addition")
}

func par2Tunnels(g *topology.Graph, pair topology.Pair) *tunnels.Set {
	ts := tunnels.NewSet(g)
	for _, l := range g.Links() {
		ts.MustAdd(pair, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
	}
	return ts
}
