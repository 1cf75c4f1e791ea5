package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/mcf"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// TestCutLoopHonorsCancel: a context cancelled while the cut loop's
// second master solve starts ends the loop at the top of its next
// round. The master LP runs under its own, live context, so the
// cancellation can only be seen by the loop's own check: the solve of
// round 2 completes and round 3 never starts. PCF-TF on Sprint with two
// link failures takes four rounds to converge.
func TestCutLoopHonorsCancel(t *testing.T) {
	g, _ := topozoo.MustLoad("Sprint").PruneDegreeOne()
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 1, Jitter: 0.4})
	pairs := tm.TopPairs(10)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tm, _, err = mcf.ScaleToMLU(g, tm.Restrict(pairs), 0.6, 0.63); err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{Graph: g, TM: tm, Tunnels: ts, Failures: failures.SingleLinks(g, 2), Objective: core.DemandScale}
	if plan, err := core.SolvePCFTF(in, core.SolveOptions{}); err != nil || plan.Stats.Rounds < 3 {
		t.Fatalf("uncancelled solve: %v; it must take at least 3 rounds", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	starts := 0
	opts := core.SolveOptions{Context: ctx}
	opts.LP.Context = context.Background()
	opts.LP.FaultHook = func(ev lp.FaultEvent) error {
		if ev.Point == lp.FaultSolveStart {
			if starts++; starts == 2 {
				cancel()
			}
		}
		return nil
	}
	_, err = core.SolvePCFTF(in, opts)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "canceled after 2 rounds") {
		t.Fatalf("want the cut loop's cancellation after 2 rounds, got %v", err)
	}
	if starts != 2 {
		t.Fatalf("%d master solves started, want 2", starts)
	}
}
