package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"pcf/internal/core"
	"pcf/internal/eval"
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

// reusedWriter is a ResponseWriter one test reuses across requests:
// reset clears its header map and body in place, so what a request
// allocates is the server's, not the recorder's.
type reusedWriter struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (w *reusedWriter) reset() {
	if w.header == nil {
		w.header = http.Header{}
	}
	clear(w.header)
	w.body.Reset()
	w.code = http.StatusOK
}

func (w *reusedWriter) Header() http.Header         { return w.header }
func (w *reusedWriter) WriteHeader(code int)        { w.code = code }
func (w *reusedWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// realizeAllocs is the allocations per warm realize request of one dead
// link (ServeHTTP into one reused writer) on a server publishing plan.
func realizeAllocs(t *testing.T, in *core.Instance, plan *core.Plan) float64 {
	t.Helper()
	allocs, _ := realizeAllocsAt(t, in, plan, "links=1")
	return allocs
}

// realizeAllocsAt is realizeAllocs for the request's query, with the
// number of those requests the published engine answered from its kept
// designed pass.
func realizeAllocsAt(t *testing.T, in *core.Instance, plan *core.Plan, query string) (allocs float64, keptHits int) {
	t.Helper()
	s, err := NewServer(Config{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pub, err := s.Registry().Publish(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/realize?"+query, nil)
	var w reusedWriter
	realize := func() {
		w.reset()
		s.ServeHTTP(&w, req)
		if w.code != http.StatusOK {
			t.Fatalf("realize: status %d: %s", w.code, w.body.String())
		}
	}
	realize() // warm the engine's corrector cache, the call pool and the writer
	allocs = testing.AllocsPerRun(100, realize)
	return allocs, pub.Sweep.Stats().KeptHits
}

// TestRealizeAllocs holds the request path's allocations per realize
// to the one thing it hands on, the request record's Fields map, which
// the telemetry store keeps (its header and its one group of slots):
// the call, its scenario, reply and encoder are pooled, the query is
// read raw, and no context is built for a request nothing waits on.
// It also shows they do not scale with the plan: the engine's Outcome
// allocates nothing, so BTNorthAmerica PCF-TF f=2 (40 pairs) costs what
// the 4-node test plan does. Building a Realization took 60 and 97, and
// the lifecycle before its state was pooled took 26.
func TestRealizeAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's own allocations would count against the budget")
	}
	const budget = 2
	_, plan := testPlan(t)
	small := realizeAllocs(t, testInstance(), plan)
	if small > budget {
		t.Fatalf("%.0f allocations per realize request, want <= %d", small, budget)
	}
	if testing.Short() {
		return
	}
	setup, err := eval.Prepare(eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	}
	btna, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	large := realizeAllocs(t, in, btna)
	t.Logf("%.0f allocations per realize request on the test plan, %.0f on BTNorthAmerica", small, large)
	if math.Abs(large-small) > 2 {
		t.Fatalf("%.0f allocations per BTNorthAmerica realize request, %.0f on the test plan: want within 2", large, small)
	}
}

// TestRealizedRequestAllocs: a realize request the published engine
// cannot answer from its kept designed pass — a dead link beside a
// degraded one — realizes through the engine's Outcome, and costs what
// TestRealizeAllocs' request costs, on the test plan and on
// BTNorthAmerica PCF-TF f=2. The request it times is a designed
// scenario, which the kept pass answers; this one keeps the realizing
// path under the same budget.
func TestRealizedRequestAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's own allocations would count against the budget")
	}
	const budget = 2
	check := func(name string, in *core.Instance, plan *core.Plan) float64 {
		t.Helper()
		kept, hits := realizeAllocsAt(t, in, plan, "links=1")
		if hits == 0 {
			t.Fatalf("%s: the designed request was not answered from the kept pass", name)
		}
		realized, hits := realizeAllocsAt(t, in, plan, "links=1&degraded=0@0.5")
		if hits != 0 {
			t.Fatalf("%s: %d degraded requests were answered from the kept pass", name, hits)
		}
		if realized > budget || kept > budget {
			t.Fatalf("%s: %.0f allocations per realized request, %.0f per kept one, want <= %d", name, realized, kept, budget)
		}
		return realized
	}
	_, plan := testPlan(t)
	small := check("test plan", testInstance(), plan)
	if testing.Short() {
		return
	}
	setup, err := eval.Prepare(eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	}
	btna, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if large := check("BTNorthAmerica", in, btna); math.Abs(large-small) > 2 {
		t.Fatalf("%.0f allocations per realized BTNorthAmerica request, %.0f on the test plan: want within 2", large, small)
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, whose own allocations would count against a budget.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestRealizeReplyBytes: the typed realize reply encodes byte for byte
// as the map[string]any it replaced, with and without dead links.
func TestRealizeReplyBytes(t *testing.T) {
	for _, r := range []realizeReply{
		{DeadLinks: []int{3, 5, 9}, Epoch: 7, MaxU: 0.6123456789012345, MLU: 0.54, Pairs: 20, Scheme: "PCF-CLS"},
		{Epoch: 1, MaxU: 1, MLU: 0, Pairs: 1, Scheme: "PCF-TF"},
		{DeadLinks: []int{0}, Epoch: 18446744073709551615, MaxU: 1e-21, MLU: 3.5e21, Scheme: `"quoted" <tf>`},
	} {
		legacy := map[string]any{
			"epoch":      r.Epoch,
			"scheme":     r.Scheme,
			"dead_links": r.DeadLinks,
			"pairs":      r.Pairs,
			"max_u":      r.MaxU,
			"mlu":        r.MLU,
		}
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(got, r)
		writeJSON(want, legacy)
		if got.Body.String() != want.Body.String() {
			t.Fatalf("typed reply encodes\n%s\nthe map encodes\n%s", got.Body, want.Body)
		}
	}
}

// TestRealizeUnrealizable: a scenario the plan cannot carry is the
// client's scenario at fault, not the server — 422, outcome error. On
// the test plan every 3-link set leaves the demand pair no live
// reservation or a singular system.
func TestRealizeUnrealizable(t *testing.T) {
	var recs []telemetry.Record
	s, err := NewServer(Config{Instance: testInstance(), Telemetry: telemetry.EmitterFunc(func(r telemetry.Record) {
		if r.Kind == telemetry.KindRequest && r.Name == "realize" {
			recs = append(recs, r)
		}
	})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, plan := testPlan(t)
	if _, err := s.Registry().Publish(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	links := s.inst.Graph.NumLinks()
	sets := 0
	for a := 0; a < links; a++ {
		for b := a + 1; b < links; b++ {
			for c := b + 1; c < links; c++ {
				sets++
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/realize?links=%d,%d,%d", a, b, c), nil))
				var body struct{ Error string }
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
					t.Errorf("links %d,%d,%d: body %s is not {\"error\": …}", a, b, c, w.Body)
				}
				if w.Code != http.StatusUnprocessableEntity {
					t.Errorf("links %d,%d,%d: status %d, want 422: %s", a, b, c, w.Code, body.Error)
				}
			}
		}
	}
	if sets == 0 || len(recs) != sets {
		t.Fatalf("%d realize records for %d 3-link sets", len(recs), sets)
	}
	for _, r := range recs {
		if r.Outcome != "error" {
			t.Errorf("record %+v: outcome %q, want error", r, r.Outcome)
		}
	}
}
