// pcffe is the stateless fleet front end: a health-checking forwarder
// that spreads realize/validate/optimal traffic across pcfd serving
// replicas. It actively probes each backend's /healthz, prefers fresh
// healthy replicas (newest epoch), ejects dead or degraded ones, reads
// each reply whole before answering, and fails idempotent requests
// over to the next backend when a reply does not arrive complete.
//
//	pcffe -listen :8090 \
//	      -backends http://replica1:8081,http://replica2:8082,http://replica3:8083
//
// Its own /healthz reports the routing view (200 while at least one
// backend is routable). See DESIGN.md §14 and the README's "Running a
// fleet" walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pcf/internal/fleet"
	"pcf/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcffe: ")
	listen := flag.String("listen", "127.0.0.1:8090", "HTTP listen address")
	backends := flag.String("backends", "", "comma-separated replica base URLs (required)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "active /healthz probe cadence")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe deadline (0 = probe interval, capped at 2s)")
	telemetryDir := flag.String("telemetry", "", "telemetry record store directory for failover records (empty = discard)")
	flag.Parse()

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		log.Fatal("-backends requires at least one replica URL")
	}

	var sink telemetry.Emitter
	if *telemetryDir != "" {
		store, err := telemetry.Open(*telemetryDir, telemetry.StoreConfig{Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		sink = store
	}

	fe, err := fleet.NewFrontend(fleet.FrontendConfig{
		Backends:      urls,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		Telemetry:     sink,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fe.Run(ctx)

	httpSrv := &http.Server{Addr: *listen, Handler: fe}
	go func() {
		log.Printf("listening on %s, %d backends", *listen, len(urls))
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("received %v, shutting down", got)
	cancel()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("exiting")
}
