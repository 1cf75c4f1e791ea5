package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pcf/internal/faultinject"
	"pcf/internal/serve"
	"pcf/internal/telemetry"
)

// soakNode is one restartable serving replica: a stable address, a
// persistent state dir, and a chaos transport that survives restarts
// so partitions and tears stay configured across a kill.
type soakNode struct {
	t          *testing.T
	name       string
	dir        string
	plannerURL string
	chaos      *faultinject.ChaosTransport

	mu     sync.Mutex
	addr   string // stable across restarts
	core   *serve.Server
	hs     *http.Server
	cancel context.CancelFunc
	alive  bool
}

func (n *soakNode) url() string { return "http://" + n.addr }

// start boots (or reboots) the node: recover from the state dir, then
// serve and sync on the remembered address.
func (n *soakNode) start() {
	n.t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.alive {
		return
	}
	ln := listenLocal(n.t, n.addr)
	n.addr = ln.Addr().String()
	core := newNamedCore(n.t, n.dir, n.name)
	if _, err := core.Recover(context.Background()); err != nil && !errors.Is(err, serve.ErrNoSnapshot) {
		n.t.Fatalf("%s: recovering: %v", n.name, err)
	}
	rep := NewReplica(core, ReplicaConfig{
		Name:         n.name,
		PlannerURL:   n.plannerURL,
		AdvertiseURL: "http://" + n.addr,
		Client:       &http.Client{Transport: n.chaos, Timeout: 2 * time.Second},
		Interval:     20 * time.Millisecond,
		BackoffMin:   15 * time.Millisecond,
		BackoffMax:   120 * time.Millisecond,
		JitterSeed:   int64(len(n.name)) * 7919,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go rep.Run(ctx)
	n.core, n.cancel = core, cancel
	n.hs = serveOn(ln, rep)
	n.alive = true
}

// kill stops the node hard: sync loop canceled, listener closed,
// in-flight connections dropped. State dir and address survive. The
// telemetry store is released so the restarted core is the
// directory's only writer (mid-segment crash salvage has its own
// unit tests in internal/telemetry).
func (n *soakNode) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	n.cancel()
	n.hs.Close()
	if err := n.core.Close(); err != nil {
		n.t.Errorf("%s: closing telemetry store: %v", n.name, err)
	}
	n.alive = false
}

// epoch reads the served epoch of the current (or last) core.
func (n *soakNode) epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.core == nil {
		return 0
	}
	return n.core.Registry().Epoch()
}

func (n *soakNode) isAlive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// TestFleetChaosSoak is the executable spec of the fleet guarantee:
// under killed replicas, a partitioned planner, torn envelopes,
// dropped responses and POSTed corrupt or forged envelopes — all while
// epochs keep advancing — no replica ever serves an unvalidated or
// epoch-regressed plan, or an epoch its planner did not publish, and
// once the faults stop the whole fleet converges to the newest
// validated epoch. Run with -race; -short keeps the fault count
// at the floor instead of piling on.
func TestFleetChaosSoak(t *testing.T) {
	plannerCore := newNamedCore(t, filepath.Join(t.TempDir(), "planner"), "planner")
	defer plannerCore.Close()
	planner := NewPlanner(plannerCore, PlannerConfig{
		LeaseTTL:    300 * time.Millisecond,
		PushTimeout: 500 * time.Millisecond,
	})
	defer planner.Drain()
	pts := httptest.NewServer(planner)
	defer pts.Close()
	plannerHost := mustHost(t, pts.URL)

	nodes := make([]*soakNode, 3)
	for i := range nodes {
		nodes[i] = &soakNode{
			t:          t,
			name:       fmt.Sprintf("replica-%d", i),
			dir:        filepath.Join(t.TempDir(), fmt.Sprintf("r%d", i)),
			plannerURL: pts.URL,
			chaos:      faultinject.NewChaosTransport(nil),
		}
		nodes[i].start()
		defer nodes[i].kill()
	}

	// The stateless front end gets a memory-only record sink: failover
	// decisions are queryable like any other telemetry, they just
	// don't survive the (stateless) process.
	feStore, err := telemetry.Open("", telemetry.StoreConfig{})
	if err != nil {
		t.Fatalf("opening frontend telemetry store: %v", err)
	}
	defer feStore.Close()
	fe, err := NewFrontend(FrontendConfig{
		Backends:      []string{nodes[0].url(), nodes[1].url(), nodes[2].url()},
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  300 * time.Millisecond,
		Telemetry:     feStore,
	})
	if err != nil {
		t.Fatalf("building frontend: %v", err)
	}
	feCtx, feCancel := context.WithCancel(context.Background())
	defer feCancel()
	go fe.Run(feCtx)
	fts := httptest.NewServer(fe)
	defer fts.Close()

	// Fault accounting: scheduled events plus every transport-level
	// fault that actually fired.
	scheduled := 0
	kills := 0
	forgedPosts := 0
	totalFaults := func() int {
		n := scheduled
		for _, nd := range nodes {
			st := nd.chaos.Stats()
			n += int(st.Blocked + st.Dropped + st.Torn)
		}
		return n
	}

	// Epoch-monotonicity watermarks, per node. Checkpoints make the
	// watermark hold across restarts too: recovery republishes the
	// newest validated snapshot, which is the last epoch served. Every
	// epoch a node serves is also one its planner published: the node
	// is read first, and the planner's epoch only grows.
	watermark := make([]uint64, len(nodes))
	checkMonotone := func(round int) {
		t.Helper()
		for i, nd := range nodes {
			if !nd.isAlive() {
				continue
			}
			e := nd.epoch()
			if e < watermark[i] {
				t.Fatalf("round %d: %s regressed from epoch %d to %d",
					round, nd.name, watermark[i], e)
			}
			if published := plannerCore.Registry().Epoch(); e > published {
				t.Fatalf("round %d: %s serves epoch %d, its planner published %d",
					round, nd.name, e, published)
			}
			watermark[i] = e
		}
	}

	// postForged POSTs the node two envelopes 100 epochs past the
	// planner's: one of the served plan (forged) and one of it with
	// its grants corrupted. A push carries no plan, so neither may move
	// the node's epoch; checkMonotone holds it to its planner's.
	postForged := func(round int, nd *soakNode) {
		t.Helper()
		pub, err := plannerCore.Registry().Current()
		if err != nil {
			return
		}
		env, err := serve.NewEnvelope(pub.Epoch+100, serve.Fingerprint(plannerCore.Instance()), pub.Plan)
		if err != nil {
			t.Fatalf("building envelope to forge: %v", err)
		}
		forged, _ := env.Encode()
		corrupt, _ := corruptGrants(t, env).Encode()
		for _, data := range [][]byte{forged, corrupt} {
			resp, err := testClient.Post(nd.url()+PlanPath, "application/json", bytes.NewReader(data))
			if err != nil {
				continue // node may be dead; the attempt still counts
			}
			drainBody(resp)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("round %d: a POSTed envelope to %s: status %d, want 202", round, nd.name, resp.StatusCode)
			}
		}
		checkMonotone(round)
	}

	client := &http.Client{Timeout: 2 * time.Second}
	feRequests, feOK := 0, 0
	hitFrontend := func() {
		for _, path := range []string{"/v1/realize?links=0", "/v1/validate"} {
			method := http.MethodPost
			if path == "/v1/validate" {
				method = http.MethodGet
			}
			req, _ := http.NewRequest(method, fts.URL+path, nil)
			resp, err := client.Do(req)
			feRequests++
			if err == nil {
				if resp.StatusCode == http.StatusOK {
					feOK++
				}
				drainBody(resp)
			}
		}
	}

	minFaults := 60
	minRounds, maxRounds := 18, 40
	if !testing.Short() {
		minFaults = 150
		minRounds, maxRounds = 42, 90
	}
	for round := 0; round < maxRounds && (round < minRounds || totalFaults() < minFaults); round++ {
		nd := nodes[round%len(nodes)]
		switch round % 6 {
		case 0: // partition this replica away from the planner
			nd.chaos.SetPartition(plannerHost, true)
			scheduled++
		case 1: // tear every other response this replica receives
			nd.chaos.SetTearEveryN(2)
			scheduled++
		case 2: // heal the partition, keep the tearing one more round
			nd.chaos.SetPartition(plannerHost, false)
		case 3: // drop responses; stop tearing on the previous victim
			nodes[(round-2)%len(nodes)].chaos.SetTearEveryN(0)
			nd.chaos.SetDropEveryN(3)
			scheduled++
		case 4: // kill mid-publish: the push to this node races its death
			publishEpochs(t, plannerCore, 1)
			nd.kill()
			kills++
			scheduled++
		case 5: // restart everything dead, stop dropping, POST forgeries
			nodes[(round-2)%len(nodes)].chaos.SetDropEveryN(0)
			for _, other := range nodes {
				other.start()
			}
			postForged(round, nd)
			forgedPosts++
			scheduled++
		}
		publishEpochs(t, plannerCore, 1)
		time.Sleep(60 * time.Millisecond)
		checkMonotone(round)
		hitFrontend()
	}

	// Heal the world: no partitions, no tears, no drops, everyone up.
	for _, nd := range nodes {
		nd.chaos.SetPartition(plannerHost, false)
		nd.chaos.SetTearEveryN(0)
		nd.chaos.SetDropEveryN(0)
		nd.start()
	}
	final := publishEpochs(t, plannerCore, 1)
	for i, nd := range nodes {
		nd := nd
		waitFor(t, 15*time.Second, fmt.Sprintf("%s to converge to epoch %d", nd.name, final), func() bool {
			return nd.epoch() == final
		})
		watermark[i] = final
	}

	// The front end, after a probe round, sees three fresh healthy
	// backends and serves from the newest epoch.
	waitFor(t, 5*time.Second, "frontend to see all backends fresh", func() bool {
		fe.ProbeOnce(context.Background())
		for _, b := range fe.Backends() {
			if !b.Alive || b.Degraded || b.Epoch != final {
				return false
			}
		}
		return true
	})
	resp, err := client.Post(fts.URL+"/v1/realize?links=0", "application/json", nil)
	if err != nil {
		t.Fatalf("post-convergence realize: %v", err)
	}
	drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-convergence realize: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-PCF-Epoch"); got != fmt.Sprint(final) {
		t.Fatalf("post-convergence realize served epoch %s, want %d", got, final)
	}

	// The control plane narrated itself into the same telemetry tier
	// the data plane uses, and the streams survived every kill: sync
	// records on the replicas (queried through the front end's proxy,
	// which exercises the query endpoint as fleet traffic), lease
	// renewals and push attempts on the planner, failover decisions at
	// the front end.
	queryCount := func(base, params string) float64 {
		t.Helper()
		resp, err := client.Get(base + "/v1/telemetry/query?" + params)
		if err != nil {
			t.Fatalf("telemetry query %q: %v", params, err)
		}
		defer drainBody(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("telemetry query %q: status %d", params, resp.StatusCode)
		}
		var out struct {
			Buckets []telemetry.Bucket `json:"buckets"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding telemetry query %q: %v", params, err)
		}
		var n float64
		for _, b := range out.Buckets {
			n += float64(b.Count)
		}
		return n
	}
	syncRecs := queryCount(fts.URL, "kind=sync")
	if syncRecs == 0 {
		t.Error("no sync records queryable through the frontend")
	}
	var syncErrs float64
	for _, nd := range nodes {
		syncErrs += queryCount(nd.url(), "kind=sync&outcome=error")
	}
	if syncErrs == 0 {
		t.Error("partitions fired but no sync round recorded an error")
	}
	grantRecs := queryCount(pts.URL, "kind=lease")
	if grantRecs == 0 {
		t.Error("planner recorded no lease grants")
	}
	pushRecs := queryCount(pts.URL, "kind=push")
	if pushRecs == 0 {
		t.Error("planner recorded no envelope pushes")
	}
	feBuckets, err := feStore.Query(telemetry.Query{Kind: telemetry.KindFailover, GroupBy: "outcome"})
	if err != nil {
		t.Fatalf("querying frontend failover records: %v", err)
	}
	var failovers float64
	for _, b := range feBuckets {
		failovers += float64(b.Count)
	}
	if failovers == 0 {
		t.Error("replicas died but the frontend recorded no failover decisions")
	}

	// The soak must actually have hurt: enough faults fired, at least
	// one envelope arrived torn, partitions actually blocked traffic,
	// replicas died, forgeries were offered — and none of it broke the
	// serving guarantee.
	faults := totalFaults()
	if faults < minFaults {
		t.Fatalf("only %d fault injections fired, want >= %d", faults, minFaults)
	}
	var torn, blocked int64
	for _, nd := range nodes {
		st := nd.chaos.Stats()
		torn += st.Torn
		blocked += st.Blocked
	}
	if torn == 0 {
		t.Error("no response was ever torn; the soak did not exercise envelope tearing")
	}
	if blocked == 0 {
		t.Error("no request was ever blocked; the soak did not exercise partitions")
	}
	if kills < 2 {
		t.Errorf("only %d replica kills, want >= 2", kills)
	}
	if forgedPosts == 0 {
		t.Error("no forged envelope was ever POSTed")
	}
	t.Logf("soak: %d faults (%d scheduled, %d torn, %d blocked, %d kills, %d forged posts), "+
		"%d/%d frontend requests OK, converged at epoch %d; "+
		"telemetry: %g syncs (%g failed), %g grants, %g pushes, %g failovers",
		faults, scheduled, torn, blocked, kills, forgedPosts, feOK, feRequests, final,
		syncRecs, syncErrs, grantRecs, pushRecs, failovers)
}

func mustHost(t *testing.T, raw string) string {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatalf("parsing URL %q: %v", raw, err)
	}
	return u.Host
}
