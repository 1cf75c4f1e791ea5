package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pcf/internal/serve"
)

func TestPlannerPlanAndLeaseEndpoints(t *testing.T) {
	srv := newCore(t, "")
	p := NewPlanner(srv, PlannerConfig{LeaseTTL: time.Second, Logf: t.Logf})
	ts := httptest.NewServer(p)
	defer ts.Close()

	resp, err := testClient.Get(ts.URL + PlanPath)
	if err != nil {
		t.Fatalf("fetching plan before publish: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("plan fetch before publish: status %d, want 404", resp.StatusCode)
	}

	publishEpochs(t, srv, 1)
	resp, err = testClient.Get(ts.URL + PlanPath)
	if err != nil {
		t.Fatalf("fetching plan: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan fetch: status %d, want 200", resp.StatusCode)
	}
	env, err := serve.DecodeEnvelope(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding fetched envelope: %v", err)
	}
	if env.Epoch != 1 {
		t.Fatalf("envelope epoch = %d, want 1", env.Epoch)
	}

	// Conditional fetch: a replica already at epoch 1 gets a 304.
	resp, err = testClient.Get(ts.URL + PlanPath + "?after=1")
	if err != nil {
		t.Fatalf("conditional fetch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional fetch: status %d, want 304", resp.StatusCode)
	}

	// Heartbeat → lease with the newest epoch stamped in.
	hb, _ := json.Marshal(map[string]any{"replica": "r1", "epoch": 0})
	resp, err = testClient.Post(ts.URL+LeasePath, "application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	var lease Lease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatalf("decoding lease: %v", err)
	}
	resp.Body.Close()
	if lease.Term == 0 || lease.Epoch != 1 || lease.Replica != "r1" {
		t.Fatalf("lease = %+v, want term>0 epoch=1 replica=r1", lease)
	}

	// A nameless heartbeat is malformed.
	resp, err = testClient.Post(ts.URL+LeasePath, "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatalf("bad heartbeat: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless heartbeat: status %d, want 400", resp.StatusCode)
	}
}

// TestPlanFetchAfter: the conditional fetch answers 304 at or past the
// current epoch, the envelope below it, and 400 to an after that is not
// an epoch, rather than treating it as no condition.
func TestPlanFetchAfter(t *testing.T) {
	srv := newCore(t, "")
	ts := httptest.NewServer(NewPlanner(srv, PlannerConfig{LeaseTTL: time.Second, Logf: t.Logf}))
	defer ts.Close()
	current := publishEpochs(t, srv, 2)
	for _, tc := range []struct {
		after string
		want  int
	}{
		{"garbage", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
		{"1.5", http.StatusBadRequest},
		{fmt.Sprint(current), http.StatusNotModified},
		{fmt.Sprint(current + 1), http.StatusNotModified},
		{fmt.Sprint(current - 1), http.StatusOK},
	} {
		resp, err := testClient.Get(ts.URL + PlanPath + "?after=" + tc.after)
		if err != nil {
			t.Fatalf("after=%s: %v", tc.after, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("after=%s: status %d, want %d", tc.after, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusOK {
			env, err := serve.DecodeEnvelope(buf.Bytes())
			if err != nil {
				t.Fatalf("after=%s: %v", tc.after, err)
			}
			if env.Epoch != current {
				t.Fatalf("after=%s: envelope epoch %d, want %d", tc.after, env.Epoch, current)
			}
		}
	}
}

func TestReplicaPullSyncAndLeaseHealth(t *testing.T) {
	plannerCore := newCore(t, "")
	planner := NewPlanner(plannerCore, PlannerConfig{LeaseTTL: 500 * time.Millisecond, Logf: t.Logf})
	pts := httptest.NewServer(planner)
	defer pts.Close()

	repCore := newCore(t, "")
	// No Logf: the Run goroutine may outlive the test body by a beat,
	// and t.Logf after test completion panics.
	rep := NewReplica(repCore, ReplicaConfig{
		Name:       "r1",
		PlannerURL: pts.URL,
		Interval:   15 * time.Millisecond,
		BackoffMin: 10 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rep.Run(ctx)

	publishEpochs(t, plannerCore, 1)
	waitFor(t, 5*time.Second, "replica to sync epoch 1", func() bool {
		return repCore.Registry().Epoch() == 1
	})
	publishEpochs(t, plannerCore, 2)
	waitFor(t, 5*time.Second, "replica to sync epoch 3", func() bool {
		return repCore.Registry().Epoch() == 3
	})
	if got := rep.Applied(); got < 2 {
		t.Fatalf("Applied() = %d, want >= 2", got)
	}

	rts := httptest.NewServer(rep)
	defer rts.Close()

	// With a plan installed and a fresh lease, the replica is ready.
	waitFor(t, 2*time.Second, "replica healthz ok", func() bool {
		resp, err := testClient.Get(rts.URL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var h serve.Health
		json.NewDecoder(resp.Body).Decode(&h)
		return resp.StatusCode == http.StatusOK && h.Status == "ok" && h.Checks["lease"].OK
	})

	// Solve never lands on a replica.
	resp, err := testClient.Post(rts.URL+"/v1/solve", "application/json", nil)
	if err != nil {
		t.Fatalf("solve on replica: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("solve on replica: status %d, want 403", resp.StatusCode)
	}

	// Realize does: the distributed plan serves traffic.
	resp, err = testClient.Post(rts.URL+"/v1/realize?links=0", "application/json", nil)
	if err != nil {
		t.Fatalf("realize on replica: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("realize on replica: status %d, want 200", resp.StatusCode)
	}

	// Once the planner goes away the lease expires and the replica
	// reports degraded — but keeps serving its last validated plan.
	pts.Close()
	waitFor(t, 5*time.Second, "replica to degrade after planner loss", func() bool {
		resp, err := testClient.Get(rts.URL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	resp, err = testClient.Post(rts.URL+"/v1/realize?links=0", "application/json", nil)
	if err != nil {
		t.Fatalf("realize on degraded replica: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded replica stopped serving: status %d, want 200", resp.StatusCode)
	}
	if repCore.Registry().Epoch() != 3 {
		t.Fatalf("degraded replica regressed to epoch %d", repCore.Registry().Epoch())
	}
}

func TestPlannerPushesToAdvertisedReplica(t *testing.T) {
	plannerCore := newCore(t, "")
	planner := NewPlanner(plannerCore, PlannerConfig{LeaseTTL: 10 * time.Second})
	defer planner.Drain()
	pts := httptest.NewServer(planner)
	defer pts.Close()

	repCore := newCore(t, "")
	ln := listenLocal(t, "")
	repURL := "http://" + ln.Addr().String()
	rep := NewReplica(repCore, ReplicaConfig{
		Name:         "r1",
		PlannerURL:   pts.URL,
		AdvertiseURL: repURL,
		// A long interval isolates push from pull: after the first
		// heartbeat registers the URL, only pushes can move the epoch
		// within the test's horizon.
		Interval: time.Hour,
	})
	hs := serveOn(ln, rep)
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rep.Run(ctx)

	waitFor(t, 5*time.Second, "replica to register with planner", func() bool {
		return len(planner.Granter().PushTargets(time.Hour)) == 1
	})
	publishEpochs(t, plannerCore, 1)
	planner.Drain()
	waitFor(t, 5*time.Second, "push to install epoch 1", func() bool {
		return repCore.Registry().Epoch() == 1
	})

	// Re-pushing the same epoch is refused as a regression (409), and
	// the replica's plan is untouched.
	pub, err := plannerCore.Registry().Current()
	if err != nil {
		t.Fatalf("planner lost its plan: %v", err)
	}
	env, err := serve.NewEnvelope(pub.Epoch, serve.Fingerprint(plannerCore.Instance()), pub.Plan)
	if err != nil {
		t.Fatalf("building envelope: %v", err)
	}
	data, _ := env.Encode()
	resp, err := testClient.Post(repURL+PlanPath, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("re-push: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-push of epoch %d: status %d, want 409", pub.Epoch, resp.StatusCode)
	}
	if got := rep.RejectedRegressed(); got < 1 {
		t.Fatalf("RejectedRegressed() = %d, want >= 1", got)
	}
}

// corruptGrants rebuilds an envelope whose plan decodes cleanly but
// over-promises: every granted demand is scaled 10× past what the
// reservations can carry, so local validation must refuse it.
func corruptGrants(t *testing.T, env *serve.Envelope) *serve.Envelope {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(env.Plan, &doc); err != nil {
		t.Fatalf("unpacking plan for corruption: %v", err)
	}
	demands, ok := doc["demands"].([]any)
	if !ok || len(demands) == 0 {
		t.Fatal("plan JSON carries no demands to corrupt")
	}
	for _, d := range demands {
		dm := d.(map[string]any)
		dm["granted"] = dm["granted"].(float64) * 10
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("re-marshaling corrupted plan: %v", err)
	}
	return &serve.Envelope{
		Epoch:       env.Epoch,
		Fingerprint: env.Fingerprint,
		SavedAt:     env.SavedAt,
		Scheme:      env.Scheme,
		Plan:        raw,
	}
}

func TestReplicaRefusesBadEnvelopes(t *testing.T) {
	repCore := newCore(t, "")
	rep := NewReplica(repCore, ReplicaConfig{
		Name:       "r1",
		PlannerURL: "http://127.0.0.1:0", // never dialed in this test
		Interval:   time.Hour,
		Logf:       t.Logf,
	})
	rts := httptest.NewServer(rep)
	defer rts.Close()

	plan := testPlan(t)
	fp := serve.Fingerprint(repCore.Instance())
	good, err := serve.NewEnvelope(1, fp, plan)
	if err != nil {
		t.Fatalf("building envelope: %v", err)
	}

	push := func(body []byte) int {
		t.Helper()
		resp, err := testClient.Post(rts.URL+PlanPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("push: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Torn JSON fails at envelope decode.
	goodData, _ := good.Encode()
	if st := push(goodData[:len(goodData)/2]); st != http.StatusUnprocessableEntity {
		t.Fatalf("torn envelope: status %d, want 422", st)
	}
	// Wrong-instance envelope fails the fingerprint gate.
	foreign := &serve.Envelope{Epoch: 1, Fingerprint: "deadbeef", Scheme: good.Scheme, Plan: good.Plan}
	fd, _ := foreign.Encode()
	if st := push(fd); st != http.StatusUnprocessableEntity {
		t.Fatalf("foreign envelope: status %d, want 422", st)
	}
	// A decodable but invalid plan fails local re-validation: the wire
	// is never trusted, even when the envelope is well-formed.
	cd, _ := corruptGrants(t, good).Encode()
	if st := push(cd); st != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt-grants envelope: status %d, want 422", st)
	}
	if repCore.Registry().Epoch() != 0 {
		t.Fatalf("a refused envelope moved the epoch to %d", repCore.Registry().Epoch())
	}
	if got := rep.RejectedInvalid(); got < 3 {
		t.Fatalf("RejectedInvalid() = %d, want >= 3", got)
	}

	// The intact envelope then installs fine.
	if st := push(goodData); st != http.StatusOK {
		t.Fatalf("good envelope: status %d, want 200", st)
	}
	if repCore.Registry().Epoch() != 1 {
		t.Fatalf("good envelope did not install: epoch %d", repCore.Registry().Epoch())
	}
}
