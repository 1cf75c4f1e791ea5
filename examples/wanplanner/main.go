// WAN planner: compare every congestion-free scheme on one network.
//
// The example reproduces a row of the paper's evaluation: it prepares
// a Topology Zoo network with a gravity traffic matrix (optimal MLU in
// [0.6, 0.63]), then reports the guaranteed demand scale of FFC,
// PCF-TF, PCF-LS and PCF-CLS against the network's intrinsic
// capability (the optimal per-failure response).
//
//	go run ./examples/wanplanner [-topology IBM] [-f 1] [-pairs 30]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"pcf/internal/eval"
)

func main() {
	topo := flag.String("topology", "IBM", "Topology Zoo name")
	f := flag.Int("f", 1, "simultaneous link failures to protect against")
	pairs := flag.Int("pairs", 30, "top-K demand pairs (0 = all)")
	withOptimal := flag.Bool("optimal", true, "also compute the intrinsic capability (enumerates scenarios)")
	flag.Parse()

	setup, err := eval.Prepare(eval.Options{
		Topology: *topo, Seed: 3, MaxPairs: *pairs, FailureBudget: *f,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d nodes, %d links, %d demand pairs, f=%d, %s %.3f\n\n",
		*topo, setup.Graph.NumNodes(), setup.Graph.NumLinks(), len(setup.Pairs), *f, setup.MLULabel(), setup.MLU)

	schemes := []string{eval.SchemeFFC, eval.SchemePCFTF, eval.SchemePCFLS, eval.SchemePCFCLS}
	if *withOptimal {
		schemes = append(schemes, eval.SchemeOptimal)
	}
	var ffc float64
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tdemand scale\tvs FFC\tsolve time")
	for _, sch := range schemes {
		r, err := setup.Run(context.Background(), sch)
		if err != nil {
			log.Fatalf("%s: %v", sch, err)
		}
		if sch == eval.SchemeFFC {
			ffc = r.Value
		}
		fmt.Fprintf(w, "%s\t%.4f\t%.2fx\t%v\n", r.Scheme, r.Value, eval.Ratio(r.Value, ffc), r.Time.Round(1e6))
	}
	w.Flush()
	fmt.Println("\nHigher is better: a demand scale of z means z times the full traffic")
	fmt.Println("matrix is guaranteed deliverable under EVERY protected failure scenario.")
}
