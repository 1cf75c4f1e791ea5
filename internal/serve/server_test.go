package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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
	// links=0 is a designed scenario: the publish pass answered it.
	if n, _ := sweep["kept_hits"].(float64); int(n) != 1 {
		t.Fatalf("GET /v1/plan sweep = %v, want the realize counted as one kept hit", sweep)
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

// TestServerUnknownScheme: an unknown scheme is a client error, not a
// server failure: a 400 that lists the scheme table's names.
func TestServerUnknownScheme(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve?scheme=nonsense", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	for _, name := range core.SchemeNames() {
		if !strings.Contains(rec.Body.String(), name) {
			t.Errorf("400 body %s does not list the scheme %s", rec.Body, name)
		}
	}
	// The refused name stays out of the record's scheme dimension, so
	// no client can mint values that group_by=scheme would bucket.
	recs, _, err := s.Telemetry().ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != telemetry.KindRequest || recs[0].Name != "solve" {
		t.Fatalf("records = %+v, want the one solve request record", recs)
	}
	if recs[0].Scheme != "" {
		t.Fatalf("refused scheme recorded as %q", recs[0].Scheme)
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

// breakerRecords collects a server's breaker records.
type breakerRecords struct {
	mu   sync.Mutex
	recs []telemetry.Record
}

func (b *breakerRecords) Emit(r telemetry.Record) {
	if r.Kind == telemetry.KindBreaker {
		b.mu.Lock()
		b.recs = append(b.recs, r)
		b.mu.Unlock()
	}
}

// states lists the records as "scheme open|closed trips".
func (b *breakerRecords) states() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, r := range b.recs {
		state := "closed"
		if r.Field("open") > 0 {
			state = "open"
		}
		out = append(out, fmt.Sprintf("%s %s %g", r.Scheme, state, r.Field("trips")))
	}
	return out
}

// stopClock gives the scheme's breaker a clock that moves only when
// the returned function advances it.
func stopClock(s *Server, name string) func(time.Duration) {
	b := s.breakers[name]
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	b.mu.Lock()
	b.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	b.mu.Unlock()
	return func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
}

// TestServerBreakerStepsLadder: best's breaker counts failures of its
// whole ladder, not of a rung. Two solves on which every LP start
// fails, one on which only the PCF master fails (best answers on FFC)
// and two more failing ones leave it closed, since the success between
// resets the count; the third failure in a row opens it, with one
// breaker record, and the next request is rejected fast with 503 +
// Retry-After.
func TestServerBreakerStepsLadder(t *testing.T) {
	onlyFFC, _, err := faultinject.FailAllButFFC(testInstance(), lp.ErrNumerical)
	if err != nil {
		t.Fatal(err)
	}
	var failAll atomic.Bool
	hook := func(ev lp.FaultEvent) error {
		if failAll.Load() && ev.Point == lp.FaultSolveStart {
			return fmt.Errorf("test: injected numerical breakdown: %w", lp.ErrNumerical)
		}
		return onlyFFC(ev)
	}
	recs := &breakerRecords{}
	_, ts := newTestServer(t, Config{LPFaultHook: hook, BreakerCooldown: time.Hour, Telemetry: recs})
	for i, fail := range []bool{true, true, false, true, true, true} {
		failAll.Store(fail)
		resp := mustPost(t, ts.URL+"/v1/solve?scheme=best")
		want := http.StatusOK
		if fail {
			want = http.StatusInternalServerError
		}
		if resp.StatusCode != want {
			t.Fatalf("best solve %d: status %d, want %d", i, resp.StatusCode, want)
		}
		if out := decodeBody(t, resp); !fail && (out["scheme"] != "FFC" || fmt.Sprint(out["degraded"]) != "[PCF-CLS]") {
			t.Fatalf("best solve %d answered %v degraded %v, want FFC degraded [PCF-CLS]", i, out["scheme"], out["degraded"])
		}
		wantRecs := "[]"
		if i == 5 {
			wantRecs = "[best open 1]"
		}
		if got := fmt.Sprint(recs.states()); got != wantRecs {
			t.Fatalf("breaker records after best solve %d: %s, want %s", i, got, wantRecs)
		}
	}
	resp := mustPost(t, ts.URL+"/v1/solve?scheme=best")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" || !strings.Contains(string(body), "circuit breaker") {
		t.Fatalf("open-breaker solve: status %d, Retry-After %q, body %s; want 503 naming the circuit breaker", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
}

// TestServerBreakerUsesFaultinjectLadder proves the serve breaker and
// the faultinject ladder hooks compose: FailFirstNStarts(1, ...) on a
// best solve fails the PCF master's first start, best answers on FFC
// with PCF-CLS abandoned, and best's breaker stays closed.
func TestServerBreakerUsesFaultinjectLadder(t *testing.T) {
	s, ts := newTestServer(t, Config{
		LPFaultHook: faultinject.FailFirstNStarts(1, lp.ErrNumerical),
	})
	resp := mustPost(t, ts.URL+"/v1/solve")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	out := decodeBody(t, resp)
	if out["scheme"] != "FFC" || fmt.Sprint(out["degraded"]) != "[PCF-CLS]" {
		t.Fatalf("scheme %v degraded %v, want FFC degraded [PCF-CLS] after one injected failure", out["scheme"], out["degraded"])
	}
	if open := s.Health().Breakers[SchemeBest]; open {
		t.Fatal("best's breaker is open after a solve that answered")
	}
}

// TestServerPCFMasterFailsOncePerBest: with every master but FFC's
// failing at its first start, each best solve tries the PCF master
// once and publishes FFC, bit for bit the FFC row's value, with
// PCF-CLS abandoned; best's breaker stays closed and records nothing.
// The PCF-CLS row, whose only rung is the failing one, opens its
// breaker on its third failure, answers 503 while open, and closes
// after the cooldown: one record each way.
func TestServerPCFMasterFailsOncePerBest(t *testing.T) {
	hook, failed, err := faultinject.FailAllButFFC(testInstance(), lp.ErrNumerical)
	if err != nil {
		t.Fatal(err)
	}
	recs := &breakerRecords{}
	s, ts := newTestServer(t, Config{LPFaultHook: hook, BreakerCooldown: time.Minute, Telemetry: recs})
	want, err := core.SolveFFC(testInstance(), core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := core.LookupScheme(SchemeBest)
	const n = 6
	for i := 0; i < n; i++ {
		pub, err := s.Solve(context.Background(), best)
		if err != nil {
			t.Fatalf("best solve %d: %v", i, err)
		}
		if pub.Scheme != core.SchemeFFC || fmt.Sprint(pub.Degraded) != "[PCF-CLS]" || math.Float64bits(pub.Value) != math.Float64bits(want.Value) {
			t.Fatalf("best solve %d published %s %.17g degraded %v, want FFC %.17g degraded [PCF-CLS]", i, pub.Scheme, pub.Value, pub.Degraded, want.Value)
		}
	}
	if got := failed(); got != n {
		t.Fatalf("%d failed PCF-master starts over %d best solves, want %d", got, n, n)
	}
	if s.Health().Breakers[SchemeBest] || len(recs.states()) != 0 {
		t.Fatalf("best's breaker: open %v, records %v; want closed, none", s.Health().Breakers[SchemeBest], recs.states())
	}

	advance := stopClock(s, core.SchemePCFCLS)
	for i := 0; i < breakerThreshold; i++ {
		resp := mustPost(t, ts.URL+"/v1/solve?scheme=PCF-CLS")
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing PCF-CLS solve %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	resp := mustPost(t, ts.URL+"/v1/solve?scheme=PCF-CLS")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !s.Health().Breakers[core.SchemePCFCLS] {
		t.Fatalf("PCF-CLS after %d failures: status %d, open %v; want 503, open", breakerThreshold, resp.StatusCode, s.Health().Breakers[core.SchemePCFCLS])
	}
	advance(time.Minute)
	resp = mustPost(t, ts.URL+"/v1/solve?scheme=PCF-CLS")
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("PCF-CLS after the cooldown: status %d, want 500 (admitted, and failing again)", resp.StatusCode)
	}
	if got := fmt.Sprint(recs.states()); got != "[PCF-CLS open 1 PCF-CLS closed 1]" {
		t.Fatalf("breaker records %s, want [PCF-CLS open 1 PCF-CLS closed 1]", got)
	}
	if got := failed(); got != n+breakerThreshold+1 {
		t.Fatalf("%d failed PCF-master starts, want %d: the open breaker's 503 solves nothing", got, n+breakerThreshold+1)
	}
}

// TestHealthzClosesExpiredBreaker: a breaker whose cooldown has run
// out closes when /healthz reads it, and its close is recorded then,
// with no solve of its scheme in between: the health report and the
// record stream agree that it is closed. Two breakers that expire
// together record their closes in the scheme table's order (FFC
// before PCF-CLS), whatever order they opened in.
func TestHealthzClosesExpiredBreaker(t *testing.T) {
	recs := &breakerRecords{}
	s, ts := newTestServer(t, Config{
		LPFaultHook:     faultinject.FailFirstNStarts(2*breakerThreshold, lp.ErrNumerical),
		BreakerCooldown: time.Minute,
		Telemetry:       recs,
	})
	advanceCLS := stopClock(s, core.SchemePCFCLS)
	advanceFFC := stopClock(s, core.SchemeFFC)
	for _, scheme := range []string{"PCF-CLS", "FFC"} {
		for i := 0; i < breakerThreshold; i++ {
			mustPost(t, ts.URL+"/v1/solve?scheme="+scheme).Body.Close()
		}
	}
	breakers := func() map[string]any {
		t.Helper()
		b, _ := decodeBody(t, mustGet(t, ts.URL+"/healthz"))["breakers"].(map[string]any)
		return b
	}
	b := breakers()
	if b[core.SchemePCFCLS] != true || b[core.SchemeFFC] != true {
		t.Fatalf("/healthz after %d failures each: PCF-CLS open %v, FFC open %v, want both true", breakerThreshold, b[core.SchemePCFCLS], b[core.SchemeFFC])
	}
	advanceCLS(time.Minute)
	advanceFFC(time.Minute)
	b = breakers()
	if b[core.SchemePCFCLS] != false || b[core.SchemeFFC] != false {
		t.Fatalf("/healthz after the cooldown: PCF-CLS open %v, FFC open %v, want both false", b[core.SchemePCFCLS], b[core.SchemeFFC])
	}
	want := "[PCF-CLS open 1 FFC open 1 FFC closed 1 PCF-CLS closed 1]"
	if got := fmt.Sprint(recs.states()); got != want {
		t.Fatalf("breaker records after /healthz %s, want %s", got, want)
	}
	breakers()
	if got := len(recs.states()); got != 4 {
		t.Fatalf("%d breaker records after a second /healthz, want 4: a closed breaker closes once", got)
	}
}

// TestServerBreakerRetryAfter: an open breaker's 503 asks the client to
// come back when it closes, in whole seconds rounded up, at least 1.
func TestServerBreakerRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{
		LPFaultHook:     faultinject.FailFirstNStarts(breakerThreshold, lp.ErrNumerical),
		BreakerCooldown: 30 * time.Second,
	})
	advance := stopClock(s, core.SchemePCFCLS)
	for i := 0; i < breakerThreshold; i++ {
		mustPost(t, ts.URL+"/v1/solve?scheme=PCF-CLS").Body.Close()
	}
	for _, step := range []struct {
		advance time.Duration
		want    string
	}{
		{400 * time.Millisecond, "30"},
		{28 * time.Second, "2"},
		{1500*time.Millisecond - time.Nanosecond, "1"},
	} {
		advance(step.advance)
		resp := mustPost(t, ts.URL+"/v1/solve?scheme=PCF-CLS")
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != step.want {
			t.Fatalf("after %v more: status %d, Retry-After %q; want 503, %s", step.advance, resp.StatusCode, resp.Header.Get("Retry-After"), step.want)
		}
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
		LPFaultHook: hook,
		QueueDepth:  1,
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
	// Epochs 2 and 3 each finish once, in whichever order the two
	// goroutines reach the channel.
	if first, second := <-published, <-published; (first != 2 || second != 3) && (first != 3 || second != 2) {
		t.Fatalf("publishes finished as epochs %d, %d; want 2 and 3 in either order", first, second)
	}
}
