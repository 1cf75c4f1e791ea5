// Failure drill: plan once, then replay every failure scenario and
// watch the data plane respond without congestion.
//
// The example plans PCF-LS reservations on a Topology Zoo network,
// then replays EVERY single-link failure scenario through the local
// proportional router of §4.2 (the same distributed response FFC
// uses), verifying that all admitted traffic is delivered and no link
// exceeds its capacity.
//
//	go run ./examples/failuredrill [-topology Sprint] [-pairs 20]
package main

import (
	"flag"
	"fmt"
	"log"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/failures"
	"pcf/internal/routing"
	"pcf/internal/topology"
)

func main() {
	topo := flag.String("topology", "Sprint", "Topology Zoo name (see DESIGN.md)")
	pairs := flag.Int("pairs", 20, "top-K demand pairs to plan for")
	flag.Parse()

	setup, err := eval.Prepare(eval.Options{
		Topology: *topo, Seed: 7, MaxPairs: *pairs, FailureBudget: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d nodes, %d links, %d demand pairs, %s %.3f\n",
		*topo, setup.Graph.NumNodes(), setup.Graph.NumLinks(), len(setup.Pairs), setup.MLULabel(), setup.MLU)

	in := &core.Instance{
		Graph:     setup.Graph,
		TM:        setup.TM,
		Tunnels:   setup.Tunnels,
		Failures:  setup.Failures,
		Objective: core.DemandScale,
	}
	plan, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PCF-TF plan: demand scale %.3f (offline solve %v)\n\n", plan.Value, plan.SolveTime)

	fmt.Println("Replaying every single-link failure through the proportional router:")
	worstU := 0.0
	var worstSc failures.Scenario
	count := 0
	setup.Failures.Enumerate(func(sc failures.Scenario) bool {
		r, err := routing.RealizeProportional(plan, sc)
		if err != nil {
			log.Fatalf("scenario %v: %v", sc, err)
		}
		if err := routing.CheckRealization(plan, r); err != nil {
			log.Fatalf("CONGESTION: %v", err)
		}
		maxU := 0.0
		for a, load := range r.ArcLoad {
			if c := setup.Graph.ArcCapacity(topology.ArcID(a)); c > 0 {
				if u := load / c; u > maxU {
					maxU = u
				}
			}
		}
		if maxU > worstU {
			worstU = maxU
			worstSc = sc
		}
		count++
		return true
	})
	fmt.Printf("  %d scenarios replayed, all congestion-free.\n", count)
	fmt.Printf("  Worst link utilization %.3f under %v.\n", worstU, worstSc)
	fmt.Println("\nEvery scenario delivered all admitted traffic with no link over capacity.")
}
