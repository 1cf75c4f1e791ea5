package serve

import (
	"net/http"
	"strings"
	"testing"

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

	// Knob validation is a client error, not a server failure — and a
	// sample count above the cap is refused before anything is sized by
	// it, as is a kcap at or below the plan's failure budget (1 here).
	// Each refusal is a request record with outcome error.
	bad := []string{
		"/v1/validate?model=nonsense",
		"/v1/validate?model=sampled&p=2",
		"/v1/validate?model=sampled&samples=abc",
		"/v1/validate?model=sampled&samples=2000000000",
		"/v1/validate?model=sampled&delta=7",
		"/v1/validate?model=sampled&kcap=-3",
		"/v1/validate?model=sampled&kcap=1",
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
