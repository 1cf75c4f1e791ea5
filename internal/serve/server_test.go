package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pcf/internal/core"
	"pcf/internal/faultinject"
	"pcf/internal/leaktest"
	"pcf/internal/lp"
	"pcf/internal/telemetry"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Instance == nil {
		cfg.Instance = testInstance()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return m
}

func mustPost(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := testClient.Post(url, "", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

// groupCounts runs a grouped telemetry query and returns each group's
// record count.
func groupCounts(t *testing.T, url string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	for _, raw := range decodeBody(t, mustGet(t, url))["buckets"].([]any) {
		b := raw.(map[string]any)
		counts[b["group"].(string)] = int(b["count"].(float64))
	}
	return counts
}

// TestServerSolvePlanRealizeValidate walks the happy path end to end:
// solve publishes epoch 1, plan and realize serve it, validate re-runs
// the sweep, and the record store, /v1/plan and /healthz expose the
// engine statistics.
func TestServerSolvePlanRealizeValidate(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Before the first solve: no plan anywhere.
	resp := mustGet(t, ts.URL+"/v1/plan")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/plan before solve: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	resp = mustPost(t, ts.URL+"/v1/solve")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/solve: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-PCF-Epoch"); got != "1" {
		t.Fatalf("solve epoch header = %q, want 1", got)
	}
	solved := decodeBody(t, resp)
	if solved["scheme"] != "PCF-CLS" {
		t.Fatalf("solved scheme = %v, want PCF-CLS", solved["scheme"])
	}

	resp = mustGet(t, ts.URL+"/v1/plan")
	info := decodeBody(t, resp)
	if int(info["epoch"].(float64)) != 1 {
		t.Fatalf("plan epoch = %v, want 1", info["epoch"])
	}
	if info["validated_scenarios"].(float64) < 1 {
		t.Fatalf("plan served without validated scenarios: %v", info)
	}

	// Full plan body decodes as a plan document.
	resp = mustGet(t, ts.URL+"/v1/plan?full=1")
	full := decodeBody(t, resp)
	if full["scheme"] != "PCF-CLS" {
		t.Fatalf("full plan scheme = %v", full["scheme"])
	}

	// Realize the failure of link 0; the plan is congestion-free, so
	// MLU stays within the guarantee (1/value, plus round-off).
	resp = mustGet(t, ts.URL+"/v1/plan")
	resp.Body.Close()
	resp = mustPost(t, ts.URL+"/v1/realize?links=0")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/realize: status %d: %s", resp.StatusCode, body)
	}
	real := decodeBody(t, resp)
	if int(real["epoch"].(float64)) != 1 {
		t.Fatalf("realize epoch = %v, want 1", real["epoch"])
	}
	if mlu := real["mlu"].(float64); mlu > 1+1e-9 {
		t.Fatalf("realized MLU %g exceeds the congestion-free bound", mlu)
	}

	// Bad scenario ids are a client error.
	resp = mustPost(t, ts.URL+"/v1/realize?links=999")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("realize with bad link: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = mustGet(t, ts.URL+"/v1/validate")
	val := decodeBody(t, resp)
	if val["valid"] != true {
		t.Fatalf("validate = %v, want valid", val)
	}

	// The record store is the only statistics surface. The last
	// successful solve and validation sweep are the newest ok records
	// of their kinds, carrying the engines' Metrics().
	recs, _, err := s.Telemetry().ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lastOK := map[telemetry.Kind]telemetry.Record{}
	for _, r := range recs {
		if r.OutcomeOrOK() == "ok" {
			lastOK[r.Kind] = r
		}
	}
	if _, ok := lastOK[telemetry.KindSolve].Fields["lp_iterations"]; !ok {
		t.Fatalf("last ok solve record carries no solver metrics: %+v", lastOK[telemetry.KindSolve])
	}
	if r := lastOK[telemetry.KindValidate]; r.Name != "exact" || r.Field("scenarios") < 1 {
		t.Fatalf("last ok validate record = %+v, want the exact sweep's metrics", r)
	}
	// Request counts per endpoint, and the denied ones (the bad link id).
	requests := groupCounts(t, ts.URL+"/v1/telemetry/query?kind=request&group_by=name")
	if requests["solve"] != 1 || requests["realize"] != 2 || requests["validate"] != 1 {
		t.Fatalf("request counts = %v, want solve 1, realize 2, validate 1", requests)
	}
	resp = mustGet(t, ts.URL+"/v1/telemetry/query?kind=request&outcome=error")
	denied := decodeBody(t, resp)["buckets"].([]any)
	if len(denied) != 1 || int(denied[0].(map[string]any)["count"].(float64)) != 2 {
		t.Fatalf("denied requests = %v, want the 404 plan read and the bad-link realize", denied)
	}
	// The serving engine's live statistics ride on the plan it serves.
	resp = mustGet(t, ts.URL+"/v1/plan")
	sweep, _ := decodeBody(t, resp)["sweep"].(map[string]any)
	if n, _ := sweep["scenarios"].(float64); n < 1 {
		t.Fatalf("GET /v1/plan sweep = %v, want the realize counted", sweep)
	}
	resp = mustGet(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/vars: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	resp = mustGet(t, ts.URL+"/healthz")
	health := decodeBody(t, resp)
	if health["status"] != "ok" || health["draining"] != false || int(health["epoch"].(float64)) != 1 {
		t.Fatalf("health = %v", health)
	}
	// The gauges no record carries: admission and the store's own counters.
	for _, key := range []string{"admission_shed", "admission_queued_solve", "admission_queued_realize"} {
		if v, ok := health[key].(float64); !ok || v != 0 {
			t.Fatalf("health[%q] = %v, want 0 on an idle server", key, health[key])
		}
	}
	if st, _ := health["telemetry"].(map[string]any); st == nil || st["appended"].(float64) < float64(len(recs)) {
		t.Fatalf("health telemetry = %v, want the store's counters", health["telemetry"])
	}
}

// TestServerUnknownScheme is a client error, not a server failure.
func TestServerUnknownScheme(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := mustPost(t, ts.URL+"/v1/solve?scheme=nonsense")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestServerValidationRollback corrupts every solved plan via the
// MutatePlan fault hook and checks publication is refused with 422,
// the epoch never advances, and the daemon keeps serving the previous
// plan — an unvalidated plan is never visible.
func TestServerValidationRollback(t *testing.T) {
	var corrupt bool
	var mu sync.Mutex
	s, ts := newTestServer(t, Config{
		MutatePlan: func(p *core.Plan) {
			mu.Lock()
			defer mu.Unlock()
			if corrupt {
				// Wreck the reservations: validation must now find an
				// unrealizable or congested scenario.
				for id := range p.TunnelRes {
					//lint:ignore pcflint/mutafterpub fault hook corrupts the plan before publication to prove validation rejects it
					p.TunnelRes[id] = 0
				}
				for id := range p.LSRes {
					//lint:ignore pcflint/mutafterpub second half of the same deliberate pre-publication corruption
					p.LSRes[id] = 0
				}
			}
		},
	})

	resp := mustPost(t, ts.URL+"/v1/solve")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean solve: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	mu.Lock()
	corrupt = true
	mu.Unlock()
	resp = mustPost(t, ts.URL+"/v1/solve")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("corrupted solve: status %d, want 422: %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	if got := s.Registry().Epoch(); got != 1 {
		t.Fatalf("epoch after rejected publish = %d, want 1", got)
	}
	resp = mustGet(t, ts.URL+"/v1/plan")
	info := decodeBody(t, resp)
	if int(info["epoch"].(float64)) != 1 {
		t.Fatalf("served epoch = %v, want the pre-corruption 1", info["epoch"])
	}
}

// TestServerBreakerStepsLadder injects numerical failures into every
// LP start and checks: the "best" scheme degrades internally (the
// ladder still lands on FFC), while repeated failures against the
// fixed PCF-CLS scheme trip its breaker open and later requests are
// rejected fast with 503 + Retry-After.
func TestServerBreakerStepsLadder(t *testing.T) {
	// Fail every PCF-CLS master solve start; FFC's model is the
	// smallest, so let anything with few rows through. Simpler and
	// robust: fail the first two starts of every request (CLS, LS),
	// letting the third (FFC) through — for the ladder. For the fixed
	// scheme, every request has exactly one start, which fails.
	var mu sync.Mutex
	failFirst := 2
	perRequest := 0
	hook := func(ev lp.FaultEvent) error {
		if ev.Point != lp.FaultSolveStart {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		perRequest++
		if perRequest <= failFirst {
			return fmt.Errorf("test: injected numerical breakdown: %w", lp.ErrNumerical)
		}
		return nil
	}
	s, ts := newTestServer(t, Config{
		LPFaultHook:      hook,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // no annealing during the test
	})

	// Ladder request: CLS and LS rungs fail, FFC lands.
	resp := mustPost(t, ts.URL+"/v1/solve?scheme=best")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ladder solve: status %d: %s", resp.StatusCode, body)
	}
	out := decodeBody(t, resp)
	if out["scheme"] != "FFC" {
		t.Fatalf("ladder landed on %v, want FFC", out["scheme"])
	}
	deg, _ := out["degraded"].([]any)
	if len(deg) != 2 {
		t.Fatalf("degraded = %v, want the two failed rungs", out["degraded"])
	}

	// Fixed scheme: each request's single start fails; after
	// BreakerThreshold failures the breaker opens.
	for i := 0; i < 2; i++ {
		mu.Lock()
		perRequest = 0
		failFirst = 1
		mu.Unlock()
		resp := mustPost(t, ts.URL+"/v1/solve?scheme=PCF-CLS")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing fixed solve %d: status %d, want 500", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if lvl := s.breaker("PCF-CLS").Level(); lvl != 1 {
		t.Fatalf("fixed-scheme breaker level = %d, want 1 (open)", lvl)
	}
	resp = mustPost(t, ts.URL+"/v1/solve?scheme=PCF-CLS")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker solve: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("open-breaker response missing Retry-After")
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "circuit breaker") {
		t.Fatalf("open-breaker body = %s", body)
	}
}

// TestServerBreakerUsesFaultinjectLadder proves the serve breaker and
// the faultinject ladder hooks compose: FailFirstNStarts(1, ...) on a
// best solve degrades only the first rung.
func TestServerBreakerUsesFaultinjectLadder(t *testing.T) {
	_, ts := newTestServer(t, Config{
		LPFaultHook: faultinject.FailFirstNStarts(1, lp.ErrNumerical),
	})
	resp := mustPost(t, ts.URL+"/v1/solve")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	out := decodeBody(t, resp)
	if out["scheme"] != "PCF-LS" {
		t.Fatalf("scheme = %v, want PCF-LS after one injected failure", out["scheme"])
	}
}

// TestServerSheddingUnderLoad saturates the single solve worker and
// the depth-1 queue with a blocked solve, then checks the overflow
// request is shed immediately with 503 + Retry-After while the realize
// class keeps serving.
func TestServerSheddingUnderLoad(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var once sync.Once
	hook := func(ev lp.FaultEvent) error {
		if ev.Point == lp.FaultSolveStart {
			select {
			case started <- struct{}{}:
			default:
			}
			<-gate // block the solve until the test releases it
		}
		return nil
	}
	_, ts := newTestServer(t, Config{
		LPFaultHook:         hook,
		MaxConcurrentSolves: 1,
		QueueDepth:          1,
	})
	defer once.Do(func() { close(gate) })

	// First solve occupies the worker (blocked inside the LP).
	errc := make(chan error, 2)
	go func() {
		resp, err := testClient.Post(ts.URL+"/v1/solve", "", nil)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Wait until it is actually inside the solver.
	deadline := time.Now().Add(5 * time.Second)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatalf("first solve never started")
	}
	// Second solve sits in the queue.
	go func() {
		resp, err := testClient.Post(ts.URL+"/v1/solve?timeout=10s", "", nil)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Wait for it to be queued, then overflow with a third.
	for {
		resp := mustGet(t, ts.URL+"/healthz")
		health := decodeBody(t, resp)
		if q, _ := health["admission_queued_solve"].(float64); q >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second solve never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp := mustPost(t, ts.URL+"/v1/solve")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow solve: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response missing Retry-After")
	}
	resp.Body.Close()

	// Unblock and let the stacked solves finish.
	once.Do(func() { close(gate) })
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("stacked solve %d transport error: %v", i, err)
		}
	}
}

// TestServerDeadline checks a request deadline propagates into the
// solver and maps to 504, within a small grace.
func TestServerDeadline(t *testing.T) {
	hook := func(ev lp.FaultEvent) error {
		if ev.Point == lp.FaultIteration {
			time.Sleep(5 * time.Millisecond) // make even a 20-iteration solve outlast the deadline
		}
		return nil
	}
	_, ts := newTestServer(t, Config{LPFaultHook: hook})
	start := time.Now()
	resp := mustPost(t, ts.URL+"/v1/solve?timeout=30ms")
	elapsed := time.Since(start)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline 30ms, request took %v", elapsed)
	}
}

// TestServerDrain checks shutdown semantics: draining rejects new
// requests with 503, waits for in-flight work, and hard-cancels work
// that outlives the drain deadline.
func TestServerDrain(t *testing.T) {
	const drainTimeout = 50 * time.Millisecond
	started := make(chan struct{}, 1)
	// release is closed well after the drain deadline has passed.
	release := make(chan struct{})
	hook := func(ev lp.FaultEvent) error {
		switch ev.Point {
		case lp.FaultSolveStart:
			select {
			case started <- struct{}{}:
			default:
			}
		case lp.FaultIteration:
			// Hold the solve past the drain deadline, however few
			// iterations it needs; the solver's periodic context check
			// then turns the hard-cancel into a prompt abort.
			<-release
		}
		return nil
	}
	s, ts := newTestServer(t, Config{
		LPFaultHook:  hook,
		DrainTimeout: drainTimeout,
	})

	respc := make(chan *http.Response, 1)
	go func() {
		resp, err := testClient.Post(ts.URL+"/v1/solve", "", nil)
		if err != nil {
			respc <- nil
			return
		}
		respc <- resp
	}()
	<-started

	done := make(chan error, 1)
	time.AfterFunc(2*drainTimeout, func() { close(release) })
	go func() { done <- s.Shutdown(context.Background()) }()

	// New work is rejected once draining.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp := mustGet(t, ts.URL+"/healthz")
		h := decodeBody(t, resp)
		if h["draining"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp := mustPost(t, ts.URL+"/v1/solve")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// The slow solve outlives the 50ms drain deadline; Shutdown then
	// hard-cancels its context, the LP aborts at the next iteration
	// checkpoint, and the drain completes.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Shutdown did not complete after drain deadline")
	}
	resp = <-respc
	if resp == nil {
		t.Fatalf("in-flight solve transport error")
	}
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("hard-canceled solve returned 200")
	}
	resp.Body.Close()
}

// TestServerShutdownEndsDrainWaiter: the goroutine Shutdown starts to
// wait out in-flight requests is gone on each of Shutdown's exits: the
// drain finished, the caller's context ended, or the drain deadline
// passed. A held solve stands for a handler that unwinds only once its
// context is canceled.
func TestServerShutdownEndsDrainWaiter(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		held    bool // a solve is in flight, held until canceled
		drain   time.Duration
		ctx     context.Context
		wantErr error
	}{
		{"drained", false, time.Minute, context.Background(), nil},
		{"ctx-done", true, time.Minute, canceled, context.Canceled},
		{"deadline", true, 50 * time.Millisecond, context.Background(), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s *Server
			started := make(chan struct{}, 1)
			release := make(chan struct{})
			hook := func(ev lp.FaultEvent) error {
				if tc.held && ev.Point == lp.FaultIteration {
					select {
					case started <- struct{}{}:
					default:
					}
					select {
					case <-s.baseCtx.Done():
					case <-release: // the test is over
					}
				}
				return nil
			}
			s, ts := newTestServer(t, Config{LPFaultHook: hook, DrainTimeout: tc.drain})
			t.Cleanup(func() { close(release) })

			solved := make(chan struct{})
			go func() {
				defer close(solved)
				if resp, err := testClient.Post(ts.URL+"/v1/solve", "", nil); err == nil {
					resp.Body.Close()
				}
			}()
			if tc.held {
				<-started
			} else {
				<-solved
			}
			shut := make(chan error, 1)
			go func() { shut <- s.Shutdown(tc.ctx) }()
			select {
			case err := <-shut:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Shutdown = %v, want %v", err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Shutdown did not return")
			}
			leaktest.Gone(t, "serve.(*Server).Shutdown.func1")
		})
	}
}

// TestServerOnPublishHoldsOnlyPublishers: OnPublish runs under the
// publication lock. While it is held, Current and Epoch answer at once
// and a second Publish waits for it.
func TestServerOnPublishHoldsOnlyPublishers(t *testing.T) {
	_, plan := testPlan(t)
	reg := NewRegistry(nil, nil)
	if _, err := reg.Publish(context.Background(), plan); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	entered, held := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	t.Cleanup(release)
	reg.OnPublish = func(pub *Published) {
		if pub.Epoch == 2 {
			close(entered)
			<-held
		}
	}
	published := make(chan uint64, 2)
	publish := func() {
		pub, err := reg.Publish(context.Background(), plan)
		if err != nil {
			t.Errorf("publish: %v", err)
			published <- 0
			return
		}
		published <- pub.Epoch
	}
	go publish()
	<-entered

	answered := make(chan uint64, 2)
	go func() {
		if pub, err := reg.Current(); err == nil {
			answered <- pub.Epoch
		} else {
			answered <- 0
		}
		answered <- reg.Epoch()
	}()
	for _, read := range []string{"Current", "Epoch"} {
		select {
		case got := <-answered:
			if got != 2 {
				t.Fatalf("%s answered epoch %d under OnPublish, want 2", read, got)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s blocked behind OnPublish", read)
		}
	}

	go publish()
	select {
	case epoch := <-published:
		t.Fatalf("publish of epoch %d finished while OnPublish held the lock", epoch)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if first, second := <-published, <-published; first != 2 || second != 3 {
		t.Fatalf("publishes finished as epochs %d, %d; want 2, 3", first, second)
	}
}
