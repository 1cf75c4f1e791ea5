package serve

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcf/internal/core"
	"pcf/internal/lp"
)

// TestChaosSoak drives the daemon the way a bad week does: concurrent
// solve/realize/validate clients, seeded LP faults that break random
// rungs, a plan-corruption hook that sabotages a fraction of solved
// plans before validation, an undersized admission queue, and repeated
// kill-restart cycles (one of which tears the newest snapshot on
// disk). Throughout, three invariants must hold:
//
//  1. no unvalidated plan is ever served — every successful realize
//     stays within the congestion-free MLU bound, and every served
//     epoch is one that was published (validated) or recovered;
//  2. no request outlives its deadline by more than a grace;
//  3. each restart recovers the last good epoch: the newest published
//     one, or the one before it when the newest snapshot was torn —
//     with the torn file quarantined, not crash-looped on.
func TestChaosSoak(t *testing.T) {
	cycles, cycleLen := 3, 800*time.Millisecond
	if testing.Short() {
		cycles, cycleLen = 2, 300*time.Millisecond
	}

	dir := t.TempDir()
	telDir := filepath.Join(dir, "telemetry")
	inst := testInstance()

	// Seeded, switchable fault plan: while enabled, every third LP
	// start breaks numerically and every seventh exhausts its pivot
	// budget — both degradable, so ladder solves usually still land.
	var faultsOn, corruptOn atomic.Bool
	var starts, corruptions atomic.Int64
	hook := func(ev lp.FaultEvent) error {
		if ev.Point != lp.FaultSolveStart || !faultsOn.Load() {
			return nil
		}
		switch n := starts.Add(1); {
		case n%3 == 0:
			return fmt.Errorf("chaos: start %d: %w", n, lp.ErrNumerical)
		case n%7 == 0:
			return fmt.Errorf("chaos: start %d: %w", n, lp.ErrIterLimit)
		}
		return nil
	}
	mutate := func(p *core.Plan) {
		if !corruptOn.Load() {
			return
		}
		if corruptions.Add(1)%3 != 0 {
			return
		}
		// Triple the admitted fractions: the plan now promises more
		// traffic than its reservations carry, so some protected
		// scenario must overload an arc. Validation has to catch the
		// congestion and refuse publication.
		for pair := range p.Z {
			//lint:ignore pcflint/mutafterpub chaos corruptor wrecks a pre-publication copy; validation must reject it
			p.Z[pair] *= 3
		}
	}

	newServer := func() (*Server, *httptest.Server) {
		s, err := NewServer(Config{
			Instance:        inst,
			StateDir:        dir,
			TelemetryDir:    telDir,
			QueueDepth:      1, // undersized on purpose: shedding is part of the chaos
			LPFaultHook:     hook,
			MutatePlan:      mutate,
			BreakerCooldown: 50 * time.Millisecond,
			Logf:            t.Logf,
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		return s, httptest.NewServer(s)
	}

	// Shared chaos ledger.
	var mu sync.Mutex
	published := map[uint64]bool{} // epochs that passed validation
	var servedEpochs []uint64      // epochs realize/plan responses claimed
	var shed, okSolves, failedSolves, okRealizes int

	const grace = 2 * time.Second
	allowed := map[int]bool{200: true, 400: true, 404: true, 422: true, 500: true, 503: true, 504: true}

	check := func(t *testing.T, resp *http.Response, timeout time.Duration, elapsed time.Duration) map[string]any {
		t.Helper()
		if !allowed[resp.StatusCode] {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
			return nil
		}
		if elapsed > timeout+grace {
			t.Errorf("request outlived its %v deadline by %v", timeout, elapsed-timeout)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("503 without Retry-After")
			}
			mu.Lock()
			shed++
			mu.Unlock()
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		return decodeBody(t, resp)
	}

	var lastGood uint64
	for cycle := 0; cycle < cycles; cycle++ {
		s, ts := newServer()

		// Recovery first: a restarted daemon must come back with the
		// last good epoch before accepting chaos again.
		pub, err := s.Recover(context.Background())
		if cycle == 0 {
			if err == nil {
				t.Fatalf("cycle 0 recovered epoch %d from an empty dir", pub.Epoch)
			}
		} else {
			if err != nil {
				t.Fatalf("cycle %d: recovery failed: %v", cycle, err)
			}
			if pub.Epoch != lastGood {
				t.Fatalf("cycle %d: recovered epoch %d, want last good %d", cycle, pub.Epoch, lastGood)
			}
			mu.Lock()
			published[pub.Epoch] = true
			mu.Unlock()
		}

		// Two clean solves so every cycle publishes at least two
		// epochs — the torn-snapshot fallback below always has an
		// older good epoch in the same directory.
		faultsOn.Store(false)
		corruptOn.Store(false)
		for i := 0; i < 2; i++ {
			resp := mustPost(t, ts.URL+"/v1/solve?timeout=30s")
			if body := check(t, resp, 30*time.Second, 0); body != nil {
				mu.Lock()
				published[uint64(body["epoch"].(float64))] = true
				okSolves++
				mu.Unlock()
			} else {
				t.Fatalf("cycle %d: clean solve %d failed", cycle, i)
			}
		}
		faultsOn.Store(true)
		corruptOn.Store(true)

		// Chaos clients.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		client := func(f func(r *rand.Rand)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(cycle)*100 + rand.Int63n(1000)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					f(r)
				}
			}()
		}
		for i := 0; i < 2; i++ {
			client(func(r *rand.Rand) {
				const timeout = 10 * time.Second
				start := time.Now()
				resp, err := testClient.Post(ts.URL+"/v1/solve?timeout=10s", "", nil)
				if err != nil {
					return
				}
				body := check(t, resp, timeout, time.Since(start))
				mu.Lock()
				if body != nil {
					published[uint64(body["epoch"].(float64))] = true
					okSolves++
				} else {
					failedSolves++
				}
				mu.Unlock()
			})
		}
		for i := 0; i < 4; i++ {
			client(func(r *rand.Rand) {
				links := ""
				if r.Intn(4) > 0 {
					links = fmt.Sprintf("&links=%d", r.Intn(inst.Graph.NumLinks()))
				}
				const timeout = 5 * time.Second
				start := time.Now()
				resp, err := testClient.Post(ts.URL+"/v1/realize?timeout=5s"+links, "", nil)
				if err != nil {
					return
				}
				if body := check(t, resp, timeout, time.Since(start)); body != nil {
					mlu := body["mlu"].(float64)
					if mlu > 1+1e-6 {
						t.Errorf("served realization violates the congestion-free bound: MLU %g", mlu)
					}
					mu.Lock()
					servedEpochs = append(servedEpochs, uint64(body["epoch"].(float64)))
					okRealizes++
					mu.Unlock()
				}
			})
		}
		client(func(r *rand.Rand) {
			const timeout = 10 * time.Second
			start := time.Now()
			resp, err := testClient.Get(ts.URL + "/v1/validate?timeout=10s")
			if err != nil {
				return
			}
			if body := check(t, resp, timeout, time.Since(start)); body != nil {
				if body["valid"] != true {
					t.Errorf("validate of a published plan reported invalid: %v", body)
				}
				mu.Lock()
				servedEpochs = append(servedEpochs, uint64(body["epoch"].(float64)))
				mu.Unlock()
			}
			time.Sleep(10 * time.Millisecond)
		})

		time.Sleep(cycleLen)
		close(stop)
		wg.Wait()

		// Kill without drain: the httptest server goes away, nothing
		// is flushed beyond what Save already fsync'd. Record the
		// newest published epoch as the recovery target. The telemetry
		// store is released so the next cycle's server is the directory's
		// only writer (mid-segment crash salvage has its own unit tests
		// in internal/telemetry).
		lastGood = s.Registry().Epoch()
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("cycle %d: closing telemetry store: %v", cycle, err)
		}

		// Between the second-to-last and last cycle, tear the newest
		// snapshot: recovery must quarantine it and fall back.
		if cycle == cycles-2 {
			newest := filepath.Join(dir, fmt.Sprintf("plan-%012d.json", lastGood))
			if err := os.WriteFile(newest, []byte(`{"epoch":`), 0o644); err != nil {
				t.Fatalf("tearing snapshot: %v", err)
			}
			lastGood--
		}
	}

	// Every epoch a client was served came from a validated
	// publication or recovery.
	mu.Lock()
	defer mu.Unlock()
	for _, e := range servedEpochs {
		if !published[e] {
			t.Errorf("served epoch %d was never validated+published", e)
		}
	}
	if okSolves < cycles {
		t.Errorf("only %d successful solves across %d cycles", okSolves, cycles)
	}
	if okRealizes == 0 {
		t.Errorf("no successful realizations during the soak")
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil || len(quarantined) == 0 {
		t.Errorf("torn snapshot was not quarantined (found %v, err %v)", quarantined, err)
	}

	// The soak's telemetry survived every kill and is queryable over
	// the HTTP API: request traffic was recorded, and every epoch a
	// surviving publish record names was actually validated+published.
	faultsOn.Store(false)
	corruptOn.Store(false)
	s, ts := newServer()
	defer func() {
		ts.Close()
		s.Close()
	}()
	resp := mustGet(t, ts.URL+"/v1/telemetry/query?kind=request&group_by=name")
	reqGroups := decodeBody(t, resp)
	reqCount := 0.0
	for _, raw := range reqGroups["buckets"].([]any) {
		reqCount += raw.(map[string]any)["count"].(float64)
	}
	if reqCount == 0 {
		t.Errorf("soak produced no queryable request records")
	}
	resp = mustGet(t, ts.URL+"/v1/telemetry/query?kind=publish&outcome=ok&group_by=epoch")
	pubGroups := decodeBody(t, resp)
	pubBuckets, _ := pubGroups["buckets"].([]any)
	if len(pubBuckets) == 0 {
		t.Errorf("soak produced no queryable publish records")
	}
	for _, raw := range pubBuckets {
		g := raw.(map[string]any)["group"].(string)
		var e uint64
		fmt.Sscanf(g, "%d", &e)
		if !published[e] {
			t.Errorf("telemetry holds a publish record for epoch %s that was never validated+published", g)
		}
	}

	t.Logf("chaos: %d ok solves, %d failed solves, %d ok realizes, %d shed, %d corruptions attempted, %d epochs published, %g request records",
		okSolves, failedSolves, okRealizes, shed, corruptions.Load(), len(published), reqCount)
}
