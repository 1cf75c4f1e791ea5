package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"pcf/internal/telemetry"
)

// TestServerTelemetryEndpoints drives the query and tail HTTP surface:
// a solve produces solve/validate/publish records, requests produce
// request records, and both endpoints serve them back.
func TestServerTelemetryEndpoints(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{TelemetryDir: dir})

	resp := mustPost(t, ts.URL+"/v1/solve")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()
	resp = mustPost(t, ts.URL+"/v1/realize?links=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("realize: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// One publish record, epoch 1.
	resp = mustGet(t, ts.URL+"/v1/telemetry/query?kind=publish&group_by=epoch")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	out := decodeBody(t, resp)
	buckets, _ := out["buckets"].([]any)
	if len(buckets) != 1 {
		t.Fatalf("publish buckets = %v, want one epoch group", out)
	}
	b := buckets[0].(map[string]any)
	if b["group"] != "1" || int(b["count"].(float64)) != 1 {
		t.Fatalf("publish bucket = %v, want epoch 1 count 1", b)
	}

	// Request records grouped by endpoint include the solve and the
	// realize.
	groups := groupCounts(t, ts.URL+"/v1/telemetry/query?kind=request&group_by=name")
	if groups["solve"] != 1 || groups["realize"] != 1 {
		t.Fatalf("request groups = %v, want solve and realize counted", groups)
	}

	// The solve record carries the engine metrics schema.
	resp = mustGet(t, ts.URL+"/v1/telemetry/query?kind=solve&metric=lp_iterations")
	out = decodeBody(t, resp)
	buckets, _ = out["buckets"].([]any)
	if len(buckets) != 1 || int(buckets[0].(map[string]any)["count"].(float64)) != 1 {
		t.Fatalf("solve metric buckets = %v, want one record with lp_iterations", out)
	}

	// Tail returns the backlog with a resumable cursor.
	resp = mustGet(t, ts.URL+"/v1/telemetry/tail?after=0&wait=0s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail: status %d", resp.StatusCode)
	}
	out = decodeBody(t, resp)
	recs, _ := out["records"].([]any)
	if len(recs) == 0 {
		t.Fatalf("tail returned no records: %v", out)
	}
	cursor := out["cursor"].(float64)
	if cursor < float64(len(recs)) {
		t.Fatalf("cursor %v below record count %d", cursor, len(recs))
	}
	// Resuming from the cursor with no wait is an empty poll.
	resp = mustGet(t, ts.URL+fmt.Sprintf("/v1/telemetry/tail?after=%d&wait=0s", int(cursor)))
	out = decodeBody(t, resp)
	if n := len(out["records"].([]any)); n != 0 {
		t.Fatalf("tail past the cursor returned %d records, want 0", n)
	}

	// Bad parameters are client errors.
	for _, q := range []string{
		"/v1/telemetry/query?group_by=nonsense",
		"/v1/telemetry/query?group_by=rung",
		"/v1/telemetry/query?bucket=nonsense",
		"/v1/telemetry/query?since=nonsense",
		"/v1/telemetry/tail?after=-1",
		"/v1/telemetry/tail?limit=0",
	} {
		resp := mustGet(t, ts.URL+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", q, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestHealthTelemetryWritable checks the readiness report gains the
// telemetry-store probe: present and true for a healthy persistent
// store, absent for a memory-only one, degrading when the store dir
// stops accepting writes.
func TestHealthTelemetryWritable(t *testing.T) {
	dir := t.TempDir()
	telDir := dir + "/telemetry"
	_, ts := newTestServer(t, Config{TelemetryDir: telDir})

	resp := mustPost(t, ts.URL+"/v1/solve")
	resp.Body.Close()
	resp = mustGet(t, ts.URL+"/healthz")
	h := decodeBody(t, resp)
	if h["telemetry_dir_writable"] != true {
		t.Fatalf("healthy store: telemetry_dir_writable = %v, want true", h["telemetry_dir_writable"])
	}
	if h["status"] != "ok" {
		t.Fatalf("status = %v, want ok: %v", h["status"], h)
	}

	// Remove the store directory out from under the server: the probe
	// fails (even for root, unlike chmod) and the node degrades.
	if err := os.RemoveAll(telDir); err != nil {
		t.Fatal(err)
	}
	resp = mustGet(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead telemetry dir: status %d, want 503", resp.StatusCode)
	}
	h = decodeBody(t, resp)
	if h["telemetry_dir_writable"] != false || h["status"] != "degraded" {
		t.Fatalf("degraded report = %v, want telemetry_dir_writable false", h)
	}

	// Memory-only servers have no probe to report.
	_, ts2 := newTestServer(t, Config{})
	resp = mustPost(t, ts2.URL+"/v1/solve")
	resp.Body.Close()
	resp = mustGet(t, ts2.URL+"/healthz")
	h = decodeBody(t, resp)
	if _, present := h["telemetry_dir_writable"]; present {
		t.Fatalf("memory-only server reports a telemetry probe: %v", h)
	}
}

// TestTelemetryEpochConsistency hammers the server with realize and
// plan requests while epochs publish concurrently, and asserts — at
// emit time, synchronously in the record path — that no request record
// ever carries an epoch newer than the registry's published epoch.
// Registry epochs only advance and publish records emit after the
// swap, so a violation here would mean a record described a plan that
// was not yet the served one. /v1/telemetry/query reads the store
// concurrently throughout, and at the end the store must hold exactly
// the request records the emit path saw.
func TestTelemetryEpochConsistency(t *testing.T) {
	var violations, emitted atomic.Int64
	var s *Server
	check := telemetry.EmitterFunc(func(r telemetry.Record) {
		if r.Kind != telemetry.KindRequest {
			return
		}
		emitted.Add(1)
		if r.Epoch == 0 {
			return
		}
		if cur := s.Registry().Epoch(); r.Epoch > cur {
			violations.Add(1)
			t.Errorf("request record carries epoch %d, registry only at %d", r.Epoch, cur)
		}
	})
	s, tsrv := newTestServer(t, Config{Telemetry: check})

	resp := mustPost(t, tsrv.URL+"/v1/solve")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed solve: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	_, plan := testPlan(t)

	const readers = 4
	const publishes = 5
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := testClient.Post(tsrv.URL+"/v1/realize?links=0", "", nil)
				if err == nil {
					resp.Body.Close()
				}
				// What the store serves back obeys the same bound: every
				// epoch a stored request record names is already published.
				resp2, err := testClient.Get(tsrv.URL + "/v1/telemetry/query?kind=request&group_by=epoch")
				if err != nil {
					continue
				}
				var out struct{ Buckets []telemetry.Bucket }
				err = json.NewDecoder(resp2.Body).Decode(&out)
				resp2.Body.Close()
				if err != nil {
					t.Errorf("decoding query response: %v", err)
					return
				}
				cur := s.Registry().Epoch()
				for _, b := range out.Buckets {
					if epoch, _ := strconv.ParseUint(b.Group, 10, 64); epoch > cur {
						violations.Add(1)
						t.Errorf("query serves request records of epoch %d, registry only at %d", epoch, cur)
					}
				}
			}
		}()
	}
	for i := 0; i < publishes; i++ {
		if _, err := s.Registry().Publish(context.Background(), plan); err != nil {
			t.Errorf("publish %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if violations.Load() != 0 {
		t.Fatalf("%d records outran the registry epoch", violations.Load())
	}
	if got := s.Registry().Epoch(); got != 1+publishes {
		t.Fatalf("final epoch = %d, want %d", got, 1+publishes)
	}

	// The store is the stream: it holds every request record emitted.
	buckets, err := s.Telemetry().Query(telemetry.Query{Kind: telemetry.KindRequest})
	if err != nil {
		t.Fatal(err)
	}
	var stored int
	if len(buckets) == 1 {
		stored = buckets[0].Count
	}
	if int64(stored) != emitted.Load() {
		t.Fatalf("store holds %d request records, %d were emitted", stored, emitted.Load())
	}
}
