package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"pcf/internal/failures"
	"pcf/internal/telemetry"
	"pcf/internal/topology"
)

// lifecycleCase is one request against a fresh server in a given state.
type lifecycleCase struct {
	target  string // "" when the state does not apply to the route
	status  int
	outcome string
	epoch   string // X-PCF-Epoch; "" means absent
}

// TestEndpointLifecycle runs every route through every lifecycle state
// that applies to it — served, draining, no plan, malformed request,
// shed at admission, deadline already passed — and checks the status,
// the content type, X-PCF-Epoch and that exactly one request record
// (none for tail) carries the outcome.
func TestEndpointLifecycle(t *testing.T) {
	type states struct{ ok, draining, noPlan, bad, shed, deadline lifecycleCase }
	shed := func(target string) lifecycleCase { return lifecycleCase{target, 503, "shed", ""} }
	routes := map[string]struct {
		method, name string
		states
	}{
		"healthz": {"GET", "healthz", states{
			ok:       lifecycleCase{"/healthz", 200, "ok", "1"},
			draining: lifecycleCase{"/healthz", 503, "degraded", "1"},
			noPlan:   lifecycleCase{"/healthz", 503, "degraded", "0"},
		}},
		"plan": {"GET", "plan", states{
			ok:       lifecycleCase{"/v1/plan", 200, "ok", "1"},
			draining: shed("/v1/plan"),
			noPlan:   lifecycleCase{"/v1/plan", 404, "error", ""},
		}},
		"solve": {"POST", "solve", states{
			ok:       lifecycleCase{"/v1/solve", 200, "ok", "2"},
			draining: shed("/v1/solve"),
			bad:      lifecycleCase{"/v1/solve?scheme=nonsense", 400, "error", ""},
			shed:     shed("/v1/solve"),
			deadline: lifecycleCase{"/v1/solve", 504, "error", ""},
		}},
		"realize": {"POST", "realize", states{
			ok:       lifecycleCase{"/v1/realize?links=1", 200, "ok", "1"},
			draining: shed("/v1/realize?links=1"),
			noPlan:   lifecycleCase{"/v1/realize?links=1", 404, "error", ""},
			bad:      lifecycleCase{"/v1/realize?links=999", 400, "error", ""},
			shed:     shed("/v1/realize?links=1"),
			deadline: lifecycleCase{"/v1/realize?links=1", 504, "error", ""},
		}},
		"validate": {"GET", "validate", states{
			ok:       lifecycleCase{"/v1/validate", 200, "ok", "1"},
			draining: shed("/v1/validate"),
			noPlan:   lifecycleCase{"/v1/validate", 404, "error", ""},
			bad:      lifecycleCase{"/v1/validate?model=nonsense", 400, "error", ""},
			shed:     shed("/v1/validate"),
			deadline: lifecycleCase{"/v1/validate", 504, "error", ""},
		}},
		"optimal": {"POST", "optimal", states{
			ok:       lifecycleCase{"/v1/optimal", 200, "ok", ""},
			draining: shed("/v1/optimal"),
			bad:      lifecycleCase{"/v1/optimal?timeout=soon", 400, "error", ""},
			shed:     shed("/v1/optimal"),
			deadline: lifecycleCase{"/v1/optimal", 504, "error", ""},
		}},
		// The telemetry surface is not drain-gated; tail emits no record.
		"telemetry_query": {"GET", "telemetry_query", states{
			ok:       lifecycleCase{"/v1/telemetry/query?kind=request", 200, "ok", ""},
			draining: lifecycleCase{"/v1/telemetry/query?kind=request", 200, "ok", ""},
			bad:      lifecycleCase{"/v1/telemetry/query?group_by=nonsense", 400, "error", ""},
		}},
		"tail": {"GET", "", states{
			ok:       lifecycleCase{"/v1/telemetry/tail?wait=0s", 200, "", ""},
			draining: lifecycleCase{"/v1/telemetry/tail?wait=0s", 200, "", ""},
			bad:      lifecycleCase{"/v1/telemetry/tail?limit=0", 400, "", ""},
		}},
	}
	_, plan := testPlan(t)
	for route, rt := range routes {
		for state, c := range map[string]lifecycleCase{
			"ok": rt.ok, "draining": rt.draining, "no plan": rt.noPlan,
			"bad request": rt.bad, "shed": rt.shed, "deadline": rt.deadline,
		} {
			if c.target == "" {
				continue
			}
			t.Run(route+"/"+state, func(t *testing.T) {
				var recs []telemetry.Record
				s, err := NewServer(Config{
					Instance: testInstance(),
					Logf:     t.Logf,
					Telemetry: telemetry.EmitterFunc(func(r telemetry.Record) {
						if r.Kind == telemetry.KindRequest {
							recs = append(recs, r)
						}
					}),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if state != "no plan" {
					if _, err := s.Registry().Publish(context.Background(), plan); err != nil {
						t.Fatal(err)
					}
				}
				switch state {
				case "draining":
					if err := s.Shutdown(context.Background()); err != nil {
						t.Fatal(err)
					}
				case "shed":
					s.adm = NewAdmission(0, 0, 0)
				}
				req := httptest.NewRequest(rt.method, c.target, nil)
				if state == "deadline" {
					ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
					defer cancel()
					req = req.WithContext(ctx)
				}
				recs = nil
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)

				if w.Code != c.status {
					t.Errorf("status %d, want %d: %s", w.Code, c.status, w.Body)
				}
				if ct := w.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type %q, want application/json", ct)
				}
				if got := w.Header().Get("X-PCF-Epoch"); got != c.epoch {
					t.Errorf("X-PCF-Epoch %q, want %q", got, c.epoch)
				}
				if c.outcome == "shed" && w.Header().Get("Retry-After") == "" {
					t.Errorf("shed reply carries no Retry-After")
				}
				if !json.Valid(w.Body.Bytes()) {
					t.Errorf("body is not JSON: %s", w.Body)
				}
				if rt.name == "" {
					if len(recs) != 0 {
						t.Errorf("route emitted %d request records, want none", len(recs))
					}
					return
				}
				if len(recs) != 1 || recs[0].Name != rt.name || recs[0].OutcomeOrOK() != c.outcome {
					t.Errorf("request records %+v, want one %q record with outcome %q", recs, rt.name, c.outcome)
				}
			})
		}
	}
}

// TestRequestTimeoutMalformed: a ?timeout= that is not a positive Go
// duration is the client's error on every route that takes one, not a
// silent fallback to the default.
func TestRequestTimeoutMalformed(t *testing.T) {
	var recs []telemetry.Record
	s, ts := newTestServer(t, Config{Telemetry: telemetry.EmitterFunc(func(r telemetry.Record) {
		if r.Kind == telemetry.KindRequest {
			recs = append(recs, r)
		}
	})})
	_, plan := testPlan(t)
	if _, err := s.Registry().Publish(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct{ method, path string }{
		{"POST", "/v1/solve"}, {"POST", "/v1/realize"}, {"GET", "/v1/validate"}, {"POST", "/v1/optimal"},
	} {
		for _, timeout := range []string{"soon", "10", "0s", "-1s"} {
			req, _ := http.NewRequest(ep.method, ts.URL+ep.path+"?timeout="+timeout, nil)
			resp, err := testClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s?timeout=%s: status %d, want 400", ep.method, ep.path, timeout, resp.StatusCode)
			}
		}
	}
	for _, r := range recs {
		if r.Outcome != "error" {
			t.Errorf("record %+v: outcome %q, want error", r, r.Outcome)
		}
	}
	if len(recs) != 16 {
		t.Errorf("%d request records, want 16", len(recs))
	}
	// A well-formed timeout is still honoured.
	resp := mustPost(t, ts.URL+"/v1/realize?links=1&timeout=5s")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("realize with timeout=5s: status %d", resp.StatusCode)
	}
}

// TestRealizeDeadLinksSorted: the realize reply lists its dead links in
// ascending order, whatever order the request named them in.
func TestRealizeDeadLinksSorted(t *testing.T) {
	in := testInstance()
	// Six links beyond the ring (chords, then parallels) that carry no
	// tunnel, so links 3, 5 and 9 can fail together.
	for _, ends := range [][2]topology.NodeID{{0, 2}, {1, 3}, {0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		in.Graph.AddLink(ends[0], ends[1], 10)
	}
	in.Failures = failures.SingleLinks(in.Graph, 1)
	_, ts := newTestServer(t, Config{Instance: in})
	resp := mustPost(t, ts.URL+"/v1/solve")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	for i := 0; i < 20; i++ {
		resp := mustPost(t, ts.URL+"/v1/realize?links=9,3,5")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("realize: status %d", resp.StatusCode)
		}
		var out struct {
			DeadLinks []int `json:"dead_links"`
		}
		err := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.DeadLinks, []int{3, 5, 9}) {
			t.Fatalf("request %d: dead_links %v, want [3 5 9]", i, out.DeadLinks)
		}
	}
}

// TestRealizeAllocs holds the request path's allocations per realize
// (ServeHTTP, one recorder per call) at or below the 73 it took before
// the route table replaced the per-handler lifecycle copies.
func TestRealizeAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector's own allocations would count against the budget")
	}
	_, plan := testPlan(t)
	s, err := NewServer(Config{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Registry().Publish(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/realize?links=1", nil)
	realize := func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("realize: status %d: %s", w.Code, w.Body)
		}
	}
	realize() // warm the engine's corrector cache for the scenario
	if allocs := testing.AllocsPerRun(100, realize); allocs > 73 {
		t.Fatalf("%.0f allocations per realize request, want <= 73", allocs)
	}
}
