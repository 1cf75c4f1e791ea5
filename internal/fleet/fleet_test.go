package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pcf/internal/serve"
	"pcf/internal/telemetry"
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

	if got := resp.Header.Get(leaseTTLHeader); got != "" {
		t.Fatalf("anonymous fetch carried a lease TTL %q", got)
	}
	if reps := p.granter.snapshot(); len(reps) != 0 {
		t.Fatalf("anonymous fetch registered replicas %+v", reps)
	}

	// A named sync is a conditional fetch that renews the lease and
	// records the replica, its served epoch and advertised URL, whose
	// host is the address the fetch came from.
	resp, err = testClient.Get(ts.URL + PlanPath + "?after=1&replica=r1&url=http://127.0.0.1:1")
	if err != nil {
		t.Fatalf("named sync: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("named sync: status %d, want 304", resp.StatusCode)
	}
	if got := resp.Header.Get(leaseTTLHeader); got != "1000" {
		t.Fatalf("named sync: %s = %q, want 1000", leaseTTLHeader, got)
	}
	reps := p.granter.snapshot()
	if len(reps) != 1 || reps[0].Replica != "r1" || reps[0].Epoch != 1 || reps[0].URL != "http://127.0.0.1:1" {
		t.Fatalf("replica table = %+v, want r1 at epoch 1 on http://127.0.0.1:1", reps)
	}
}

// TestPlanFetchCannotAimWakes: a fetch registers the url it advertises
// as a push target only when the url's host is the address the fetch
// came from. An anonymous fetch naming a server on another address gets
// that server no wake on any publish; a fetch advertising its own
// address gets one per publish.
func TestPlanFetchCannotAimWakes(t *testing.T) {
	srv := newCore(t, "")
	p := NewPlanner(srv, PlannerConfig{LeaseTTL: 10 * time.Second, Logf: t.Logf})
	ts := httptest.NewServer(p) // fetches reach it from 127.0.0.1
	defer ts.Close()
	counter := func(n *atomic.Int64) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			n.Add(1)
			w.WriteHeader(http.StatusAccepted)
		})
	}
	var foreign, own atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.2:0")
	if err != nil {
		t.Skipf("no second loopback address to stand for another host: %v", err)
	}
	other := httptest.NewUnstartedServer(counter(&foreign))
	other.Listener.Close()
	other.Listener = ln
	other.Start()
	defer other.Close()
	self := httptest.NewServer(counter(&own))
	defer self.Close()
	for name, advertise := range map[string]string{"nobody": other.URL, "r1": self.URL} {
		resp, err := testClient.Get(ts.URL + PlanPath + "?replica=" + name + "&url=" + url.QueryEscape(advertise))
		if err != nil {
			t.Fatalf("fetch naming %s: %v", advertise, err)
		}
		resp.Body.Close()
	}
	publishEpochs(t, srv, 3)
	p.Drain()
	if got, want := foreign.Load(), int64(0); got != want {
		t.Fatalf("the server an anonymous fetch named on another address received %d wakes, want %d", got, want)
	}
	if got, want := own.Load(), int64(3); got != want {
		t.Fatalf("the fetch's own address received %d wakes over 3 publishes, want %d", got, want)
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
		// sync registers the URL, only pushes can move the epoch
		// within the test's horizon.
		Interval: time.Hour,
	})
	hs := serveOn(ln, rep)
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rep.Run(ctx)

	waitFor(t, 5*time.Second, "replica to register with planner", func() bool {
		return len(planner.granter.pushTargets(time.Hour)) == 1
	})
	// Each publish's push wakes the sync loop, which fetches the new
	// epoch within the hour's wait.
	for want := uint64(1); want <= 3; want++ {
		publishEpochs(t, plannerCore, 1)
		waitFor(t, 5*time.Second, fmt.Sprintf("push to wake the install of epoch %d", want), func() bool {
			return repCore.Registry().Epoch() == want
		})
	}
	planner.Drain()
	if ok, failed := planner.pushOK.Load(), planner.pushFailed.Load(); ok != 3 || failed != 0 {
		t.Fatalf("push_ok %d, push_failed %d; want 3 and 0", ok, failed)
	}
}

// TestReplicaServesOnlyPlannerEpochs: a plan enters a replica only by
// its own fetch from its planner. An envelope of the served plan,
// stamped with an epoch the planner never published and POSTed to the
// replica directly or through a front end, installs nothing; the POST
// at most wakes a sync. The replica then follows the planner's next
// publish, which a forged epoch 1000 would have made it refuse as a
// regression while its lease stayed fresh.
func TestReplicaServesOnlyPlannerEpochs(t *testing.T) {
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
		Interval:     time.Hour, // only the first round and wakes sync
	})
	hs := serveOn(ln, rep)
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rep.Run(ctx)
	waitFor(t, 5*time.Second, "replica to register with planner", func() bool {
		return len(planner.granter.pushTargets(time.Hour)) == 1
	})
	publishEpochs(t, plannerCore, 1)
	waitFor(t, 5*time.Second, "replica to install epoch 1", func() bool {
		return repCore.Registry().Epoch() == 1
	})

	fe, err := NewFrontend(FrontendConfig{Backends: []string{repURL}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	fe.ProbeOnce(context.Background())
	fts := httptest.NewServer(fe)
	defer fts.Close()

	pub, err := plannerCore.Registry().Current()
	if err != nil {
		t.Fatalf("planner lost its plan: %v", err)
	}
	forged, err := serve.NewEnvelope(1000, serve.Fingerprint(plannerCore.Instance()), pub.Plan)
	if err != nil {
		t.Fatalf("building envelope: %v", err)
	}
	data, _ := forged.Encode()
	// plannerEpochs holds when the replica serves an epoch its planner
	// published. The replica is read first: the planner's epoch only
	// grows.
	plannerEpochs := func() bool {
		e := repCore.Registry().Epoch()
		return e >= 1 && e <= plannerCore.Registry().Epoch()
	}
	for _, base := range []string{repURL, fts.URL} {
		resp, err := testClient.Post(base+PlanPath, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s%s: %v", base, PlanPath, err)
		}
		drainBody(resp)
		if !plannerEpochs() {
			t.Fatalf("after a forged POST to %s the replica serves epoch %d; its planner published %d",
				base, repCore.Registry().Epoch(), plannerCore.Registry().Epoch())
		}
	}

	want := publishEpochs(t, plannerCore, 1)
	waitFor(t, 5*time.Second, fmt.Sprintf("replica to install the planner's epoch %d", want), func() bool {
		return repCore.Registry().Epoch() == want
	})
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
	fp := serve.Fingerprint(repCore.Instance())
	good, err := serve.NewEnvelope(1, fp, testPlan(t))
	if err != nil {
		t.Fatalf("building envelope: %v", err)
	}
	goodData, _ := good.Encode()
	foreign := &serve.Envelope{Epoch: 1, Fingerprint: "deadbeef", Scheme: good.Scheme, Plan: good.Plan}
	foreignData, _ := foreign.Encode()
	corruptData, _ := corruptGrants(t, good).Encode()

	// A planner stub serves one envelope per sync, in this order.
	bodies := [][]byte{goodData[:len(goodData)/2], foreignData, corruptData, goodData}
	var served atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != PlanPath {
			http.NotFound(w, r)
			return
		}
		w.Write(bodies[served.Add(1)-1])
	}))
	defer stub.Close()
	rep := NewReplica(repCore, ReplicaConfig{Name: "r1", PlannerURL: stub.URL, Logf: t.Logf})

	for _, c := range []struct {
		what   string
		refuse func(error) bool
	}{
		// Torn JSON fails at envelope decode.
		{"torn", func(err error) bool { return strings.Contains(err.Error(), "decoding envelope") }},
		// A wrong-instance envelope fails the fingerprint gate.
		{"foreign", func(err error) bool { return strings.Contains(err.Error(), "fingerprint mismatch") }},
		// A decodable but invalid plan fails local re-validation: the
		// wire is never trusted, even when the envelope is well-formed.
		{"corrupt-grants", func(err error) bool { return errors.Is(err, serve.ErrValidation) }},
	} {
		err := rep.syncOnce(context.Background())
		if err == nil || !c.refuse(err) {
			t.Fatalf("%s envelope: sync error %v, want its refusal", c.what, err)
		}
		if e := repCore.Registry().Epoch(); e != 0 {
			t.Fatalf("the %s envelope moved the epoch to %d", c.what, e)
		}
	}

	// The intact envelope then installs fine.
	if err := rep.syncOnce(context.Background()); err != nil {
		t.Fatalf("good envelope: %v", err)
	}
	if e := repCore.Registry().Epoch(); e != 1 {
		t.Fatalf("good envelope did not install: epoch %d", e)
	}
}

// leaseFresh reports whether the replica at base answers /healthz 200
// with its lease check passing.
func leaseFresh(base string) bool {
	resp, err := testClient.Get(base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK && h.Checks["lease"].OK
}

// TestReplicaLeaseSurvivesPlannerRestart: a restarted planner renews a
// replica's lease on its next sync, however long the replica synced
// with the planner before it. Two TTLs after the restart the lease the
// old planner renewed has lapsed, so a fresh lease then can only come
// from the new planner.
func TestReplicaLeaseSurvivesPlannerRestart(t *testing.T) {
	const ttl = 100 * time.Millisecond
	plannerCore := newCore(t, "")
	publishEpochs(t, plannerCore, 1)
	var planner atomic.Pointer[Planner]
	planner.Store(NewPlanner(plannerCore, PlannerConfig{LeaseTTL: ttl}))
	pts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		planner.Load().ServeHTTP(w, r)
	}))
	defer pts.Close()

	repCore := newCore(t, "")
	rep := NewReplica(repCore, ReplicaConfig{
		Name:       "r1",
		PlannerURL: pts.URL,
		Interval:   5 * time.Millisecond,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
	})
	rts := httptest.NewServer(rep)
	defer rts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	waitFor(t, 5*time.Second, "replica to sync epoch 1 under a fresh lease", func() bool {
		return repCore.Registry().Epoch() == 1 && leaseFresh(rts.URL)
	})
	time.Sleep(20 * ttl)
	planner.Store(NewPlanner(plannerCore, PlannerConfig{LeaseTTL: ttl}))
	time.Sleep(2 * ttl)
	waitFor(t, ttl, "the restarted planner to keep the replica's lease fresh", func() bool {
		return leaseFresh(rts.URL)
	})
}

// TestReplicaDefaultCadenceFollowsLeaseTTL: a replica left at the
// default cadence syncs every third of the TTL its planner grants, so
// under a sub-second TTL its lease reads fresh on every probe over
// five TTLs. A cadence fixed at a third of the default TTL lets it
// lapse within one.
func TestReplicaDefaultCadenceFollowsLeaseTTL(t *testing.T) {
	const ttl = 400 * time.Millisecond
	plannerCore := newCore(t, "")
	publishEpochs(t, plannerCore, 1)
	pts := httptest.NewServer(NewPlanner(plannerCore, PlannerConfig{LeaseTTL: ttl}))
	defer pts.Close()

	repCore := newCore(t, "")
	rep := NewReplica(repCore, ReplicaConfig{Name: "r1", PlannerURL: pts.URL})
	rts := httptest.NewServer(rep)
	defer rts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	waitFor(t, 5*time.Second, "replica to sync epoch 1 under a fresh lease", func() bool {
		return repCore.Registry().Epoch() == 1 && leaseFresh(rts.URL)
	})
	probes, stale := 0, 0
	for end := time.Now().Add(5 * ttl); time.Now().Before(end); time.Sleep(ttl / 10) {
		probes++
		if !leaseFresh(rts.URL) {
			stale++
		}
	}
	if stale > 0 {
		t.Fatalf("lease read stale on %d of %d probes over %v at a %v TTL", stale, probes, 5*ttl, ttl)
	}
}

// TestReplicaSyncIsOneRequest: a sync round is one request to the
// planner, both when the replica is behind (the answer brings the
// envelope) and when it is current (a 304).
func TestReplicaSyncIsOneRequest(t *testing.T) {
	plannerCore := newCore(t, "")
	publishEpochs(t, plannerCore, 2)
	planner := NewPlanner(plannerCore, PlannerConfig{LeaseTTL: time.Second})
	var requests atomic.Int64
	pts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		planner.ServeHTTP(w, r)
	}))
	defer pts.Close()

	repCore := newCore(t, "")
	// An hour's interval: Run makes its first round at once and then
	// waits, so stopping it after that round's record ends it there.
	rep := NewReplica(repCore, ReplicaConfig{Name: "r1", PlannerURL: pts.URL, Interval: time.Hour})
	rts := httptest.NewServer(rep)
	defer rts.Close()
	syncs := func() int64 {
		t.Helper()
		resp, err := testClient.Get(rts.URL + "/v1/telemetry/query?kind=sync")
		if err != nil {
			t.Fatalf("querying sync records: %v", err)
		}
		defer resp.Body.Close()
		var out struct {
			Buckets []telemetry.Bucket `json:"buckets"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding sync records: %v", err)
		}
		var n int64
		for _, b := range out.Buckets {
			n += int64(b.Count)
		}
		return n
	}
	round := func(what string) int64 {
		t.Helper()
		before, sent := syncs(), requests.Load()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			rep.Run(ctx)
		}()
		waitFor(t, 5*time.Second, what, func() bool { return syncs() > before })
		cancel()
		<-done
		return requests.Load() - sent
	}

	if n := round("a round behind the planner"); n != 1 {
		t.Fatalf("a round behind the planner made %d requests, want 1", n)
	}
	if got := repCore.Registry().Epoch(); got != 2 {
		t.Fatalf("replica at epoch %d after its round, want 2", got)
	}
	if n := round("a round at the planner's epoch"); n != 1 {
		t.Fatalf("a current round made %d requests, want 1", n)
	}
}
