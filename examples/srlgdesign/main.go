// SRLG and node-failure protection (paper §3.5).
//
// Links that share an underlying fiber conduit fail together; routers
// fail with all their links. PCF models both as failure "units" and
// still gives provable congestion-free guarantees — something R3's
// link-bypass mechanism cannot do for node failures at all.
//
//	go run ./examples/srlgdesign
package main

import (
	"fmt"
	"log"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

func main() {
	// A 6-node metro ring with two cross links. Links r0-r1 and r0-r5
	// share a conduit out of r0's facility (an SRLG).
	g := topology.New("metro")
	r := make([]topology.NodeID, 6)
	for i := range r {
		r[i] = g.AddNode(fmt.Sprintf("r%d", i))
	}
	ring := make([]topology.LinkID, 6)
	for i := range r {
		ring[i] = g.AddLink(r[i], r[(i+1)%6], 50)
	}
	g.AddLink(r[0], r[3], 30) // cross links
	g.AddLink(r[1], r[4], 30)

	tm := traffic.NewMatrix(6)
	tm.Set(topology.Pair{Src: r[0], Dst: r[3]}, 40)
	tm.Set(topology.Pair{Src: r[2], Dst: r[5]}, 20)

	ts, err := tunnels.Select(g, tm.Pairs(0), tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		log.Fatal(err)
	}

	solve := func(name string, fs *failures.Set) {
		in := &core.Instance{
			Graph: g, TM: tm, Tunnels: ts, Failures: fs,
			Objective: core.DemandScale,
		}
		plan, err := core.SolvePCFTF(in, core.SolveOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-34s guaranteed demand scale %.3f\n", name, plan.Value)
	}

	fmt.Println("PCF-TF guarantees under different failure models:")
	solve("any 1 link failure:", failures.SingleLinks(g, 1))

	// The shared conduit: ring[0] (r0-r1) and ring[5] (r5-r0) fail
	// together.
	srlg := []failures.SRLGSpec{{Links: []topology.LinkID{ring[0], ring[5]}}}
	solve("any 1 SRLG (conduit) failure:", failures.SRLGSet(g, srlg, 1))

	// Any single transit router failure. (Traffic endpoints r0, r2,
	// r3, r5 are excluded: no scheme can serve a demand whose own
	// source or destination is down.)
	solve("any 1 transit router failure:", failures.Nodes(g, []topology.NodeID{r[1], r[4]}, 1))

	fmt.Println("\nEach guarantee is provable: the plan admits traffic only if NO")
	fmt.Println("scenario in the failure model can congest any link.")
}
