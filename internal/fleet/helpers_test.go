package fleet

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/serve"
	"pcf/internal/topology"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// testClient is the HTTP client the fleet tests use against their
// in-process planners, replicas and front ends. Bounded so a wedged
// node fails one request, not the suite.
var testClient = &http.Client{Timeout: 30 * time.Second}

// testInstance builds the same 4-node ring the serve tests use: one
// demand pair, two disjoint tunnels, one unconditional and one
// conditional LS. Every fleet node must be built from its own copy —
// instances are mutated during preparation and must not be shared
// across servers.
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
	planVal  *core.Plan
	planErr  error
)

// testPlan solves the shared instance once per test binary. The plan is
// published into many registries during the tests; each Publish
// revalidates it against the publishing server's own instance, so
// sharing the solved value is safe as long as nobody mutates it.
func testPlan(t *testing.T) *core.Plan {
	t.Helper()
	planOnce.Do(func() {
		planVal, planErr = core.SolveBest(testInstance(), core.SolveOptions{})
	})
	if planErr != nil {
		t.Fatalf("solving shared test plan: %v", planErr)
	}
	return planVal
}

// newCore builds a serving core over a fresh instance copy. stateDir
// may be empty (no persistence).
func newCore(t *testing.T, stateDir string) *serve.Server {
	t.Helper()
	// No Logf: replica sync goroutines publish through the registry and
	// may log a beat after the test body returns; t.Logf would panic.
	srv, err := serve.NewServer(serve.Config{
		Instance:     testInstance(),
		StateDir:     stateDir,
		QueueDepth:   16,
		DrainTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("building serve core: %v", err)
	}
	return srv
}

// newNamedCore is newCore with a fleet identity: records carry the
// node's name as their source and persist under stateDir/telemetry,
// so the telemetry stream survives the kill/restart cycles the chaos
// soak inflicts.
func newNamedCore(t *testing.T, stateDir, name string) *serve.Server {
	t.Helper()
	srv, err := serve.NewServer(serve.Config{
		Instance:     testInstance(),
		StateDir:     stateDir,
		TelemetryDir: filepath.Join(stateDir, "telemetry"),
		Source:       name,
		QueueDepth:   16,
		DrainTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("building serve core: %v", err)
	}
	return srv
}

// publishEpochs republishes the shared plan n times on the server,
// advancing its epoch by n.
func publishEpochs(t *testing.T, srv *serve.Server, n int) uint64 {
	t.Helper()
	plan := testPlan(t)
	var last uint64
	for i := 0; i < n; i++ {
		pub, err := srv.Registry().Publish(context.Background(), plan)
		if err != nil {
			t.Fatalf("publishing epoch: %v", err)
		}
		last = pub.Epoch
	}
	return last
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// listenLocal opens a listener, retrying briefly when rebinding a
// just-closed address (restart paths race the kernel's cleanup).
func listenLocal(t *testing.T, addr string) net.Listener {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var lastErr error
	for i := 0; i < 50; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("listening on %s: %v", addr, lastErr)
	return nil
}

// serveOn runs handler on ln with an http.Server the caller can Close.
func serveOn(ln net.Listener, handler http.Handler) *http.Server {
	hs := &http.Server{Handler: handler}
	go hs.Serve(ln)
	return hs
}
