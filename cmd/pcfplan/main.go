// pcfplan computes and prints a congestion-free bandwidth plan for one
// topology and traffic matrix, and optionally validates it by replaying
// every protected failure scenario.
//
//	pcfplan -topology Sprint -scheme pcf-tf -f 1 -pairs 20 -validate
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/routing"
	"pcf/internal/telemetry"
	"pcf/internal/tol"
)

// die prints the error and exits with the shared CLI code contract:
// 2 when the -timeout budget expired, 3 when the LP is infeasible,
// 1 otherwise.
func die(err error) {
	log.Print(err)
	os.Exit(eval.ExitCode(err))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcfplan: ")
	topo := flag.String("topology", "Sprint", "Topology Zoo name")
	linksFile := flag.String("links", "", "load the topology from a links file (cmd/topogen format) instead")
	tmFile := flag.String("tm", "", "load the traffic matrix from a file (requires -links)")
	scheme := flag.String("scheme", "pcf-tf", "ffc | pcf-tf | pcf-ls | pcf-cls | best")
	f := flag.Int("f", 1, "simultaneous link failures to protect against")
	pairs := flag.Int("pairs", 20, "top-K demand pairs")
	seed := flag.Int64("seed", 1, "traffic matrix seed")
	timeout := flag.Duration("timeout", 0, "overall solve deadline (0 = none), e.g. 30s")
	validate := flag.Bool("validate", false, "replay every scenario and verify the congestion-free property")
	showRes := flag.Bool("reservations", false, "print per-tunnel reservations")
	srlg := flag.String("srlg", "", "SRLG file: fail shared-risk link groups together instead of single links")
	nodeFail := flag.String("node-failures", "", "fail nodes instead of links: comma-separated ids, or 'transit'")
	telemetryDir := flag.String("telemetry", "", "append a solve record to this telemetry store directory")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	name, ok := schemes[*scheme]
	if !ok {
		log.Fatalf("unknown scheme %q", *scheme)
	}

	setup, err := eval.PrepareFlags(*linksFile, *tmFile, eval.Options{
		Topology: *topo, Seed: *seed, MaxPairs: *pairs, FailureBudget: *f,
	})
	if err != nil {
		die(err)
	}
	if err := setup.ApplyFailureModel(*srlg, *nodeFail); err != nil {
		die(err)
	}
	if *telemetryDir != "" {
		telStore, err := telemetry.Open(*telemetryDir, telemetry.StoreConfig{Logf: log.Printf})
		if err != nil {
			die(err)
		}
		defer telStore.Close()
		setup.Telemetry = telStore
	}
	fmt.Printf("%s: %d nodes, %d links, %d pairs, f=%d (%d scenarios), no-failure MLU %.3f\n",
		setup.Opts.Topology, setup.Graph.NumNodes(), setup.Graph.NumLinks(), len(setup.Pairs),
		setup.Failures.Budget, setup.Failures.NumScenariosExact(), setup.MLU)

	plan, err := solve(ctx, os.Stdout, setup, name)
	if err != nil {
		die(err)
	}
	if *showRes {
		printReservations(plan)
	}
	if *validate {
		if _, err := routing.ValidateStats(ctx, plan, routing.ValidateOptions{}); err != nil {
			die(fmt.Errorf("VALIDATION FAILED: %w", err))
		}
		fmt.Printf("validated: all %d scenarios congestion-free with all admitted demand delivered\n",
			setup.Failures.NumScenariosExact())
	}
}

// schemes maps -scheme to the eval scheme it runs; best is the
// degradation ladder over PCF-CLS → PCF-LS → FFC.
var schemes = map[string]string{
	"ffc":     eval.SchemeFFC,
	"pcf-tf":  eval.SchemePCFTF,
	"pcf-ls":  eval.SchemePCFLS,
	"pcf-cls": eval.SchemePCFCLS,
	"best":    eval.SchemeBest,
}

// solve runs the scheme, prints its result to w and returns the plan
// it printed: -reservations and -validate act on exactly that plan.
func solve(ctx context.Context, w io.Writer, setup *eval.Setup, name string) (*core.Plan, error) {
	res, err := setup.Run(ctx, name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s guaranteed demand scale: %.4f (solved in %v)\n",
		res.Plan.Scheme, res.Value, res.Time.Round(time.Millisecond))
	if res.Stats != "" {
		fmt.Fprintf(w, "lp: %s\n", res.Stats)
	}
	if len(res.Plan.Degraded) > 0 {
		fmt.Fprintf(w, "degraded: abandoned %s\n", strings.Join(res.Plan.Degraded, ", "))
	}
	return res.Plan, nil
}

func printReservations(plan *core.Plan) {
	in := plan.Instance
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "pair\ttunnel path\treservation")
	type row struct {
		pair string
		path string
		res  float64
	}
	var rows []row
	for _, p := range in.Tunnels.Pairs() {
		for _, id := range in.Tunnels.ForPair(p) {
			r := plan.TunnelRes[id]
			if r <= tol.Report {
				continue
			}
			nodes := in.Tunnels.Tunnel(id).Path.Nodes(in.Graph)
			names := make([]string, len(nodes))
			for i, n := range nodes {
				names[i] = in.Graph.NodeName(n)
			}
			rows = append(rows, row{p.String(), fmt.Sprint(names), r})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].res > rows[j].res })
	const maxRows = 40
	for i, r := range rows {
		if i >= maxRows {
			fmt.Fprintf(w, "... (%d more)\n", len(rows)-maxRows)
			break
		}
		fmt.Fprintf(w, "%s\t%s\t%.3f\n", r.pair, r.path, r.res)
	}
	w.Flush()
}
