package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pcf/internal/leaktest"
)

// quietPeer is a peer that accepts every request and answers none
// until the request's context ends or the test is over. arrived counts
// the requests that reached it.
func quietPeer(t *testing.T) (url string, arrived *atomic.Int64) {
	t.Helper()
	arrived = new(atomic.Int64)
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Add(1)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(func() {
		close(release)
		hs.Close()
	})
	return hs.URL, arrived
}

// TestPlannerDrainEndsPushes: a push to a replica that never answers
// ends within PushTimeout, Drain waits for it, and after Drain no push
// goroutine is left.
func TestPlannerDrainEndsPushes(t *testing.T) {
	target, arrived := quietPeer(t)
	plannerCore := newCore(t, "")
	planner := NewPlanner(plannerCore, PlannerConfig{
		LeaseTTL: 10 * time.Second,
		// No client timeout: PushTimeout alone must bound the push.
		PushClient:  &http.Client{},
		PushTimeout: 100 * time.Millisecond,
	})
	planner.granter.grant("r1", target, 0)
	publishEpochs(t, plannerCore, 1)
	waitFor(t, 5*time.Second, "the push to reach the replica", func() bool { return arrived.Load() == 1 })

	failedAtDrain := make(chan int64, 1)
	go func() {
		planner.Drain()
		failedAtDrain <- planner.pushFailed.Load()
	}()
	leaktest.Gone(t, "fleet.(*Planner).pushAll")
	if got := <-failedAtDrain; got != 1 {
		t.Fatalf("push_failed = %d when Drain returned, want 1 (the timed-out push)", got)
	}
}

// TestFrontendProbesEndWithContext: a probe of a backend that never
// answers ends when its context does; ProbeOnce and Run wait for it, so
// none outlives them. ProbeTimeout is far out of reach: only the
// context can end these probes.
func TestFrontendProbesEndWithContext(t *testing.T) {
	backend, arrived := quietPeer(t)
	fe, err := NewFrontend(FrontendConfig{
		Backends:      []string{backend},
		ProbeInterval: time.Hour,
		ProbeTimeout:  time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		name string
		run  func(context.Context)
	}{
		{"ProbeOnce", fe.ProbeOnce},
		{"Run", fe.Run},
	} {
		t.Run(probe.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			before := arrived.Load()
			returned := make(chan struct{})
			go func() {
				probe.run(ctx)
				close(returned)
			}()
			waitFor(t, 5*time.Second, "the probe to reach the backend", func() bool { return arrived.Load() > before })
			select {
			case <-returned:
				t.Fatalf("%s returned with its probe in flight", probe.name)
			default:
			}
			cancel()
			leaktest.Gone(t, "fleet.(*Frontend).probe")
			select {
			case <-returned:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s did not return after cancel", probe.name)
			}
		})
	}
}
