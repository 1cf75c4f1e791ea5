// pcfd is the plan-serving daemon: it owns a registry of solved
// congestion-free plans and serves solve/realize/validate requests
// over HTTP with admission control, validated atomic hot-swap,
// crash-safe checkpointing, and a per-scheme circuit breaker that
// opens for 30 s after three consecutive solves of a scheme broke down
// on every rung of its ladder.
//
//	pcfd -topology Sprint -pairs 20 -state /var/lib/pcfd
//	curl -X POST 'localhost:8080/v1/solve?scheme=best&timeout=60s'
//	curl -X POST 'localhost:8080/v1/realize?links=3'
//
// With -role the daemon joins a fleet: a planner additionally
// publishes epoch-stamped plan envelopes over /v1/fleet/*, and every
// replica sync there renews that replica's lease; a replica pulls
// validated plans from its planner, re-validates them locally, and
// refuses direct solves. With -advertise the planner pushes each new
// epoch's news to the replica, which only makes it sync at once: a
// plan enters a replica only by its own fetch. The planner pushes only
// to an -advertise URL whose host is the IP address the replica's
// fetches come from. A replica syncs every third of the lease TTL
// its planner grants (-lease-ttl), so each sync renews the lease well
// before it lapses. cmd/pcffe is the matching front end. A
// planner needs -state: one that restarted without its checkpoints
// would publish from epoch 1 again, below what its replicas serve.
//
//	pcfd -role planner  -topology Sprint -state /var/lib/pcfd-planner
//	pcfd -role replica  -topology Sprint -planner http://planner:8080 \
//	     -listen :8081 -advertise http://10.0.0.11:8081 -state /var/lib/pcfd-r1
//
// See DESIGN.md §13 for the serving architecture, §14 for the fleet,
// and README.md for walkthroughs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/fleet"
	"pcf/internal/serve"
)

func die(err error) {
	log.Print(err)
	os.Exit(eval.ExitCode(err))
}

// checkRole refuses a -role the other flags cannot carry out. A
// replica needs its planner's URL. A planner needs -state: without it
// a restart publishes from epoch 1 again, and every replica already
// past that refuses the new epochs as regressions while its lease,
// renewed by each sync, stays fresh.
func checkRole(role, plannerURL, stateDir string) error {
	switch role {
	case "":
	case "planner":
		if stateDir == "" {
			return errors.New("-role planner requires -state")
		}
	case "replica":
		if plannerURL == "" {
			return errors.New("-role replica requires -planner")
		}
	default:
		return fmt.Errorf("unknown -role %q (want planner, replica, or empty)", role)
	}
	return nil
}

// boot readies the server before it listens: it republishes the
// newest valid checkpoint, or, when there is none and solveOnStart is
// set, solves the best row and publishes it through the server's own
// solve path (Server.Solve), so the boot solve leaves the same solve
// and publish records as any POST /v1/solve.
func boot(ctx context.Context, srv *serve.Server, solveOnStart bool) error {
	pub, err := srv.Recover(ctx)
	switch {
	case err == nil:
		log.Printf("recovered epoch %d (scheme %s, value %.4f)", pub.Epoch, pub.Scheme, pub.Value)
		return nil
	case !errors.Is(err, serve.ErrNoSnapshot):
		return fmt.Errorf("recovery: %w", err)
	}
	log.Printf("no checkpoint to recover, starting empty")
	if !solveOnStart {
		return nil
	}
	start := time.Now()
	best, _ := core.LookupScheme(serve.SchemeBest)
	if pub, err = srv.Solve(ctx, best); err != nil {
		return fmt.Errorf("boot solve: %w", err)
	}
	log.Printf("boot solve published epoch %d (scheme %s, value %.4f) in %v",
		pub.Epoch, pub.Scheme, pub.Value, time.Since(start).Round(time.Millisecond))
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcfd: ")
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
	topo := flag.String("topology", "Sprint", "Topology Zoo name")
	linksFile := flag.String("links", "", "load the topology from a links file (cmd/topogen format) instead")
	tmFile := flag.String("tm", "", "load the traffic matrix from a file (requires -links)")
	pairs := flag.Int("pairs", 20, "top-K demand pairs")
	seed := flag.Int64("seed", 1, "traffic matrix seed")
	f := flag.Int("f", 1, "simultaneous link failures to protect against")
	stateDir := flag.String("state", "", "checkpoint directory (empty = no persistence; required with -role planner)")
	telemetryDir := flag.String("telemetry", "", "telemetry record store directory (empty = <state>/telemetry, or memory-only without -state)")
	retainTelemetry := flag.Int("retain-telemetry", 0, "telemetry segments to keep (0 = default, negative = unlimited)")
	solveOnStart := flag.Bool("solve-on-start", true, "solve and publish a plan at boot when no checkpoint recovers")
	realizes := flag.Int("realizes", 0, "max concurrent realizations (0 = NumCPU)")
	queue := flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth per class; beyond it requests are shed")
	solveTimeout := flag.Duration("solve-timeout", serve.DefaultSolveDeadline, "default per-request solve deadline")
	realizeTimeout := flag.Duration("realize-timeout", serve.DefaultRealizeDeadline, "default per-request realize deadline")
	drainTimeout := flag.Duration("drain-timeout", serve.DefaultDrainTimeout, "graceful-shutdown drain budget")
	retain := flag.Int("retain", 0, "checkpoints to keep per class (0 = default, negative = unlimited)")
	role := flag.String("role", "", `fleet role: "planner", "replica", or empty for standalone`)
	plannerURL := flag.String("planner", "", "planner base URL (required with -role replica)")
	advertise := flag.String("advertise", "", "this replica's base URL as the planner reaches it, its host the IP address the replica's fetches come from (lets the planner's push start a sync at once)")
	leaseTTL := flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "planner: lease lifetime granted to replicas")
	flag.Parse()

	if err := checkRole(*role, *plannerURL, *stateDir); err != nil {
		die(err)
	}
	if *role == "replica" {
		// Plans reach a replica only through the planner's distribution
		// path; a boot solve would fork the epoch sequence.
		*solveOnStart = false
	}

	setup, err := eval.Prepare(eval.Options{
		Topology: *topo, LinksFile: *linksFile, TMFile: *tmFile,
		Seed: *seed, MaxPairs: *pairs, FailureBudget: *f,
	})
	if err != nil {
		die(err)
	}
	in, err := setup.CLSInstance()
	if err != nil {
		die(err)
	}
	log.Printf("%s: %d nodes, %d links, %d pairs, f=%d (%d scenarios)",
		setup.Opts.Topology, setup.Graph.NumNodes(), setup.Graph.NumLinks(), len(setup.Pairs),
		setup.Failures.Budget, setup.Failures.NumScenariosExact())

	// Telemetry rides with the checkpoints by default: a daemon given
	// a state dir keeps its record stream next to its plans.
	if *telemetryDir == "" && *stateDir != "" {
		*telemetryDir = filepath.Join(*stateDir, "telemetry")
	}

	srv, err := serve.NewServer(serve.Config{
		Instance:              in,
		StateDir:              *stateDir,
		TelemetryDir:          *telemetryDir,
		RetainTelemetry:       *retainTelemetry,
		MaxConcurrentRealizes: *realizes,
		QueueDepth:            *queue,
		DefaultSolveTimeout:   *solveTimeout,
		DefaultRealizeTimeout: *realizeTimeout,
		DrainTimeout:          *drainTimeout,
		RetainCheckpoints:     *retain,
		Logf:                  log.Printf,
	})
	if err != nil {
		die(err)
	}

	// Recovery before first listen: a restarted daemon serves its last
	// validated epoch immediately, without re-solving.
	if err := boot(context.Background(), srv, *solveOnStart); err != nil {
		die(err)
	}

	// Role wiring: the handler pcfd mounts, plus whatever background
	// loop the role needs.
	handler := http.Handler(srv)
	var planner *fleet.Planner
	ctx, stopLoops := context.WithCancel(context.Background())
	defer stopLoops()
	switch *role {
	case "planner":
		planner = fleet.NewPlanner(srv, fleet.PlannerConfig{LeaseTTL: *leaseTTL, Logf: log.Printf})
		handler = planner
		log.Printf("fleet planner: plan distribution and lease renewal on %s", fleet.PlanPath)
	case "replica":
		rep := fleet.NewReplica(srv, fleet.ReplicaConfig{
			Name:         *listen,
			PlannerURL:   *plannerURL,
			AdvertiseURL: *advertise,
			Logf:         log.Printf,
		})
		handler = rep
		go rep.Run(ctx)
		log.Printf("fleet replica: syncing from %s", *plannerURL)
	}

	httpSrv := &http.Server{Addr: *listen, Handler: handler}
	go func() {
		log.Printf("listening on %s", *listen)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			die(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("received %v, draining (budget %v)", got, *drainTimeout)

	// Drain the serving core first (stops admitting, waits for
	// in-flight work, hard-cancels at the deadline), then close the
	// HTTP listener.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
	defer cancel()
	stopLoops()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if planner != nil {
		planner.Drain()
	}
	// Seal the telemetry store last: the drain above may still emit.
	if err := srv.Close(); err != nil {
		log.Printf("telemetry close: %v", err)
	}
	log.Printf("drained, exiting")
}
