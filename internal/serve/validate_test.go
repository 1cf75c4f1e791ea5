package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcf/internal/linsolve"
	"pcf/internal/routing"
	"pcf/internal/telemetry"
)

// TestServerSampledValidate drives /v1/validate?model=sampled end to
// end: the response carries the explicit coverage bound, the knobs are
// validated, the same seed reproduces the same report, and the
// coverage fields surface through /v1/telemetry/query.
func TestServerSampledValidate(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp := mustPost(t, ts.URL+"/v1/solve")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	const q = "/v1/validate?model=sampled&p=0.05&samples=30&delta=0.05&seed=9"
	resp = mustGet(t, ts.URL+q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled validate: status %d", resp.StatusCode)
	}
	out := decodeBody(t, resp)
	if out["valid"] != true || out["model"] != "sampled" {
		t.Fatalf("sampled validate = %v", out)
	}
	cov, ok := out["coverage"].(map[string]any)
	if !ok {
		t.Fatalf("no coverage report in %v", out)
	}
	for _, key := range []string{"epsilon", "delta", "samples", "tail_mass", "exhaustive"} {
		if _, ok := cov[key]; !ok {
			t.Fatalf("coverage report missing %q: %v", key, cov)
		}
	}
	if int(cov["samples"].(float64)) != 30 {
		t.Fatalf("coverage samples = %v, want 30", cov["samples"])
	}
	summary, _ := out["coverage_summary"].(string)
	if !strings.Contains(summary, "P(unvalidated scenario) <=") {
		t.Fatalf("coverage summary %q does not state the bound", summary)
	}

	// Same seed, byte-identical report.
	resp = mustGet(t, ts.URL+q)
	again := decodeBody(t, resp)
	if again["coverage_summary"] != summary {
		t.Fatalf("same seed diverged:\n got %v\nwant %v", again["coverage_summary"], summary)
	}

	// The validate telemetry record carries the coverage fields and the
	// model name.
	resp = mustGet(t, ts.URL+"/v1/telemetry/query?kind=validate&metric=epsilon&group_by=name")
	tq := decodeBody(t, resp)
	buckets, _ := tq["buckets"].([]any)
	found := false
	for _, raw := range buckets {
		b := raw.(map[string]any)
		if b["group"] == "sampled" && int(b["count"].(float64)) >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("telemetry query shows no sampled validate records with epsilon: %v", tq)
	}

	// The truncation point is reported as the sampler used it: a kcap at
	// its cap, the budget (1 here) + maxKCapOverBudget, is over the unit
	// count, and the report carries the unit count.
	pub, err := s.Registry().Current()
	if err != nil {
		t.Fatal(err)
	}
	units := len(pub.Plan.Instance.Failures.Units)
	resp = mustGet(t, ts.URL+fmt.Sprintf("/v1/validate?model=sampled&p=0.05&samples=10&kcap=%d", 1+maxKCapOverBudget))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled validate at the kcap limit: status %d", resp.StatusCode)
	}
	capped := decodeBody(t, resp)
	if kcap, _ := capped["coverage"].(map[string]any)["kcap"].(float64); units >= 1+maxKCapOverBudget || int(kcap) != units {
		t.Fatalf("kcap %d over %d units reported as %v, want %d", 1+maxKCapOverBudget, units, kcap, units)
	}

	// Knob validation is a client error, not a server failure — and a
	// sample count or a kcap above its cap is refused before anything is
	// sized by it, as is a kcap at or below the plan's failure budget.
	// Each refusal is a request record with outcome error.
	bad := []string{
		"/v1/validate?model=nonsense",
		"/v1/validate?model=sampled&p=2",
		"/v1/validate?model=sampled&samples=abc",
		"/v1/validate?model=sampled&samples=2000000000",
		"/v1/validate?model=sampled&delta=7",
		"/v1/validate?model=sampled&kcap=-3",
		"/v1/validate?model=sampled&kcap=1",
		fmt.Sprintf("/v1/validate?model=sampled&kcap=%d", 2+maxKCapOverBudget),
		"/v1/validate?model=sampled&kcap=1073741824",
	}
	for _, q := range bad {
		resp := mustGet(t, ts.URL+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", q, resp.StatusCode)
		}
		resp.Body.Close()
	}
	refused, err := s.Telemetry().Query(telemetry.Query{Kind: telemetry.KindRequest, Name: "validate", Outcome: "error"})
	if err != nil || len(refused) != 1 || refused[0].Count != len(bad) {
		t.Fatalf("refused validate request records = %v (err %v), want %d", refused, err, len(bad))
	}

	// Degraded scenario realization through the HTTP surface: MLU is
	// computed against the scaled capacity.
	resp = mustPost(t, ts.URL+"/v1/realize?degraded=0@0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded realize: status %d", resp.StatusCode)
	}
	deg := decodeBody(t, resp)
	resp = mustPost(t, ts.URL+"/v1/realize")
	base := decodeBody(t, resp)
	if deg["mlu"].(float64) < base["mlu"].(float64) {
		t.Fatalf("degraded MLU %v below nominal %v", deg["mlu"], base["mlu"])
	}
	resp = mustPost(t, ts.URL+"/v1/realize?degraded=0@1.5")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("degraded with bad alpha: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSampledValidateTailDeadline: a deadline that expires while a
// sampled validation sweeps its draws answers 504, as a deadline does
// anywhere else — not 500, and not a report with the draws it cut short
// counted as failures. One draw's rank-k update stalls past the
// deadline; the designed pass before it is untouched. On Sprint: the
// ring4 plan's draws past the budget that reach a rank-k update all
// fall in designed classes, which the tail does not realize again.
func TestSampledValidateTailDeadline(t *testing.T) {
	in, plan := sprintPlan(t)
	s, err := NewServer(Config{Instance: in, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Registry().Publish(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	get := func(query string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/validate?"+query, nil))
		return w
	}
	const timeout = 300 * time.Millisecond
	var calls, stallAt atomic.Int64
	var stalledAfter atomic.Int64 // since the request began, in ns
	var start time.Time
	routing.SweepUpdateFault = func([]linsolve.RowUpdate) error {
		if calls.Add(1) == stallAt.Load() {
			stalledAfter.Store(int64(time.Since(start)))
			time.Sleep(timeout + 100*time.Millisecond)
		}
		return nil
	}
	defer func() { routing.SweepUpdateFault = nil }()

	// No draws: this request counts the designed pass's rank-k updates.
	if w := get("model=sampled&p=0.3&samples=-1"); w.Code != http.StatusOK {
		t.Fatalf("sampled validate without draws: status %d: %s", w.Code, w.Body)
	}
	designed := calls.Load()
	calls.Store(0)
	stallAt.Store(designed + 1)
	start = time.Now()
	w := get(fmt.Sprintf("model=sampled&p=0.3&samples=200&seed=3&timeout=%s", timeout))
	if calls.Load() <= designed {
		t.Fatal("no draw reached a rank-k update: nothing stalled the tail")
	}
	if d := time.Duration(stalledAfter.Load()); d >= timeout {
		t.Fatalf("the tail began %v into a %v deadline: the designed pass used it up, so the tail was never reached in time", d, timeout)
	}
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline inside the tail sweep: status %d, want 504: %s", w.Code, w.Body)
	}
}
