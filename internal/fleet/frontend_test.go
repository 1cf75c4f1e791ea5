package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryable(t *testing.T) {
	cases := []struct {
		method, path string
		want         bool
	}{
		{"GET", "/v1/plan", true},
		{"GET", "/v1/validate", true},
		{"POST", "/v1/realize", true},
		{"POST", "/v1/optimal", true},
		{"POST", "/v1/solve", false},
		{"DELETE", "/v1/plan", false},
	}
	for _, c := range cases {
		r := httptest.NewRequest(c.method, c.path, nil)
		if got := retryable(r); got != c.want {
			t.Errorf("retryable(%s %s) = %v, want %v", c.method, c.path, got, c.want)
		}
	}
}

func TestFrontendFailsOverOnDeadBackend(t *testing.T) {
	// Two live backends, both at epoch 1.
	var cores []*httptest.Server
	for i := 0; i < 2; i++ {
		srv := newCore(t, "")
		publishEpochs(t, srv, 1)
		cores = append(cores, httptest.NewServer(srv))
	}
	defer cores[1].Close()

	fe, err := NewFrontend(FrontendConfig{
		Backends:      []string{cores[0].URL, cores[1].URL},
		ProbeInterval: time.Hour, // probes only when the test says so
		ProbeTimeout:  time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("building frontend: %v", err)
	}
	fe.ProbeOnce(context.Background())
	for _, b := range fe.Backends() {
		if !b.Alive || b.Degraded || b.Epoch != 1 {
			t.Fatalf("backend after probe = %+v, want alive fresh epoch 1", b)
		}
	}

	fts := httptest.NewServer(fe)
	defer fts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := testClient.Get(fts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if st := get("/v1/plan"); st != http.StatusOK {
		t.Fatalf("plan through frontend: status %d, want 200", st)
	}

	// Kill backend 0 without telling the probe loop. Every subsequent
	// request must still answer 200: the failed dispatch ejects the dead
	// backend and retries on the survivor.
	cores[0].Close()
	for i := 0; i < 8; i++ {
		if st := get("/v1/validate"); st != http.StatusOK {
			t.Fatalf("validate after backend kill (attempt %d): status %d, want 200", i, st)
		}
		resp, err := testClient.Post(fts.URL+"/v1/realize?links=0", "application/json", nil)
		if err != nil {
			t.Fatalf("realize after backend kill: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("realize after backend kill: status %d, want 200", resp.StatusCode)
		}
	}

	// With every backend dead the frontend answers 502/503, not a hang.
	cores[1].Close()
	if st := get("/v1/plan"); st != http.StatusBadGateway && st != http.StatusServiceUnavailable {
		t.Fatalf("plan with no live backends: status %d, want 502/503", st)
	}
}

// TestFleetErrorsAreJSON checks the fleet's own error replies carry the
// content type of their {"error": …} bodies: the planner's plan fetch
// before any publish (404) and a front end with no routable backend
// (503).
func TestFleetErrorsAreJSON(t *testing.T) {
	planner := httptest.NewServer(NewPlanner(newCore(t, ""), PlannerConfig{Logf: t.Logf}))
	defer planner.Close()
	// Never probed, so its one backend is not routable.
	fe, err := NewFrontend(FrontendConfig{Backends: []string{planner.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatalf("building frontend: %v", err)
	}
	fts := httptest.NewServer(fe)
	defer fts.Close()

	for _, c := range []struct {
		url  string
		want int
	}{
		{planner.URL + PlanPath, http.StatusNotFound},
		{fts.URL + "/v1/plan", http.StatusServiceUnavailable},
	} {
		resp, err := testClient.Get(c.url)
		if err != nil {
			t.Fatalf("GET %s: %v", c.url, err)
		}
		var body struct{ Error string }
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET %s: status %d, want %d", c.url, resp.StatusCode, c.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q, want application/json", c.url, ct)
		}
		if derr != nil || body.Error == "" {
			t.Errorf("GET %s: body is not {\"error\": …} (decode err %v)", c.url, derr)
		}
	}
}

// TestFrontendProxyBuffers: a warm realize proxied through the front
// end to a live backend allocates well under one 32 KB copy buffer per
// request, counting everything the process does for it — front end,
// proxy transport and the backend serving it. Without the shared
// BufferPool every proxied response allocated a fresh buffer.
func TestFrontendProxyBuffers(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector's own allocations would count against the budget")
	}
	srv := newCore(t, "")
	publishEpochs(t, srv, 1)
	backend := httptest.NewServer(srv)
	defer backend.Close()
	fe, err := NewFrontend(FrontendConfig{Backends: []string{backend.URL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	fe.ProbeOnce(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/realize?links=0", nil)
	realize := func() {
		w := httptest.NewRecorder()
		fe.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("realize through the front end: status %d: %s", w.Code, w.Body)
		}
	}
	for i := 0; i < 50; i++ {
		realize() // warm the connection, the pools and the engine's caches
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		realize()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	t.Logf("%.1f KB allocated per proxied realize", kb)
	if kb >= 16 {
		t.Fatalf("%.1f KB allocated per proxied realize, want < 16", kb)
	}
}

func TestFrontendPrefersFreshHealthyBackends(t *testing.T) {
	fresh := newCore(t, "")
	publishEpochs(t, fresh, 2)
	stale := newCore(t, "")
	publishEpochs(t, stale, 1)
	empty := newCore(t, "") // no plan → degraded on /healthz

	tsFresh := httptest.NewServer(fresh)
	defer tsFresh.Close()
	tsStale := httptest.NewServer(stale)
	defer tsStale.Close()
	tsEmpty := httptest.NewServer(empty)
	defer tsEmpty.Close()

	fe, err := NewFrontend(FrontendConfig{
		Backends:      []string{tsFresh.URL, tsStale.URL, tsEmpty.URL},
		ProbeInterval: time.Hour,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("building frontend: %v", err)
	}
	fe.ProbeOnce(context.Background())

	fts := httptest.NewServer(fe)
	defer fts.Close()
	// Every request must land on the epoch-2 backend while it is
	// healthy, even though two others are routable.
	for i := 0; i < 12; i++ {
		resp, err := testClient.Get(fts.URL + "/v1/plan")
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-PCF-Epoch"); got != "2" {
			t.Fatalf("request %d served from epoch %q, want 2", i, got)
		}
	}

	// When the fresh backend dies, traffic falls back to the stale
	// healthy one (availability beats freshness) — never the degraded
	// one while a healthy backend lives.
	tsFresh.Close()
	for i := 0; i < 6; i++ {
		resp, err := testClient.Get(fts.URL + "/v1/plan")
		if err != nil {
			t.Fatalf("plan after fresh death: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan after fresh death: status %d, want 200", resp.StatusCode)
		}
		if got := resp.Header.Get("X-PCF-Epoch"); got != "1" {
			t.Fatalf("fallback request served from epoch %q, want 1", got)
		}
	}
}

// TestFrontendServesThroughSingleReplicaKill is the availability
// acceptance bar: realize/validate keep answering 200 through the kill
// and restart of one of three replicas, with the probe loop running at
// its real cadence.
func TestFrontendServesThroughSingleReplicaKill(t *testing.T) {
	type node struct {
		ts  *httptest.Server
		url string
	}
	var nodes []node
	for i := 0; i < 3; i++ {
		srv := newCore(t, "")
		publishEpochs(t, srv, 1)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		nodes = append(nodes, node{ts: ts, url: ts.URL})
	}
	// No Logf: the probe goroutine may outlive the test body by a beat.
	fe, err := NewFrontend(FrontendConfig{
		Backends:      []string{nodes[0].url, nodes[1].url, nodes[2].url},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("building frontend: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fe.ProbeOnce(ctx) // all backends marked alive before traffic starts
	go fe.Run(ctx)
	fts := httptest.NewServer(fe)
	defer fts.Close()

	var sent, killed atomic.Int64
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if sent.Load() == 20 && killed.CompareAndSwap(0, 1) {
			nodes[0].ts.Close() // mid-traffic kill
		}
		resp, err := testClient.Post(fts.URL+"/v1/realize?links=0", "application/json", nil)
		if err != nil {
			t.Fatalf("realize during kill window: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("realize during kill window: status %d, want 200 (after %d requests)",
				resp.StatusCode, sent.Load())
		}
		resp, err = testClient.Get(fts.URL + "/v1/validate")
		if err != nil {
			t.Fatalf("validate during kill window: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("validate during kill window: status %d, want 200", resp.StatusCode)
		}
		sent.Add(1)
	}
	if sent.Load() < 40 || killed.Load() == 0 {
		t.Fatalf("weak run: %d requests, kill=%d — want >=40 requests spanning the kill", sent.Load(), killed.Load())
	}
	// The probe loop must have ejected the corpse within an interval or
	// two; by now it is certainly marked dead.
	waitFor(t, time.Second, "probe loop to eject the killed backend", func() bool {
		for _, b := range fe.Backends() {
			if b.URL == nodes[0].url {
				return !b.Alive
			}
		}
		return false
	})
}
