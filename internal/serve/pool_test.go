package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcf/internal/failures"
	"pcf/internal/telemetry"
	"pcf/internal/topology"
)

// idTimeout encodes a request id in its ?timeout=: id seconds plus
// 999 ms. The request record's deadline_slack_ms then lies in
// (id·1000, id·1000 + 999] for any request that takes under 999 ms, so
// its floor over 1000 names the request.
func idTimeout(id int) string { return fmt.Sprintf("%dms", id*1000+999) }

func recordID(r telemetry.Record) (int, bool) {
	slack, ok := r.Fields["deadline_slack_ms"]
	return int(math.Floor(slack / 1000)), ok
}

// realizeCase is one concurrent realize: its scenario, what the
// published engine answers for it, and what the server replied.
type realizeCase struct {
	dead     []int
	degraded map[int]float64
	want     realizeReply

	status int
	header string
	got    realizeReply
}

func (c *realizeCase) query(id int) string {
	var links, degraded []string
	for _, l := range c.dead {
		links = append(links, strconv.Itoa(l))
	}
	for l, alpha := range c.degraded {
		degraded = append(degraded, fmt.Sprintf("%d@%g", l, alpha))
	}
	return fmt.Sprintf("/v1/realize?links=%s&degraded=%s&timeout=%s",
		strings.Join(links, ","), strings.Join(degraded, ","), idTimeout(id))
}

// TestServerPooledStateStaysPerRequest: concurrent realizes with
// distinct dead and degraded link sets, sampled validates and solves
// that publish new epochs share the pooled per-request state, and no
// request sees another's. Each realize reply carries its own dead links
// and the numbers the published engine gives its own scenario; each
// reply's body epoch, X-PCF-Epoch and request record epoch agree; and
// each realize record's fields are its own request's.
func TestServerPooledStateStaysPerRequest(t *testing.T) {
	// Six links beyond the ring (chords, then parallels, ids 4–9) carry
	// no tunnel, so any set of them can fail alongside one ring link.
	in := testInstance()
	for _, ends := range [][2]topology.NodeID{{0, 2}, {1, 3}, {0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		in.Graph.AddLink(ends[0], ends[1], 10)
	}
	in.Failures = failures.SingleLinks(in.Graph, 1)
	var mu sync.Mutex
	records := map[int]telemetry.Record{}
	s, ts := newTestServer(t, Config{
		Instance:              in,
		MaxConcurrentRealizes: 4,
		QueueDepth:            64,
		Telemetry: telemetry.EmitterFunc(func(r telemetry.Record) {
			if r.Kind != telemetry.KindRequest {
				return
			}
			if id, ok := recordID(r); ok {
				mu.Lock()
				defer mu.Unlock()
				records[id] = r
			}
		}),
	})
	resp := mustPost(t, ts.URL+"/v1/solve")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	pub, err := s.Registry().Current()
	if err != nil {
		t.Fatal(err)
	}

	// The cases, each answered first by the published engine on a
	// scenario of its own: up to three spare links and at most one ring
	// link dead, up to two other links degraded.
	rng := rand.New(rand.NewSource(1))
	const realizes = 160
	cases := make([]realizeCase, realizes)
	for i := range cases {
		c := &cases[i]
		sc := failures.Scenario{Dead: map[topology.LinkID]bool{}}
		for _, l := range rng.Perm(6)[:rng.Intn(4)] {
			c.dead = append(c.dead, 4+l)
		}
		if ring := rng.Intn(6); ring < 4 {
			c.dead = append(c.dead, ring)
		}
		for _, l := range c.dead {
			sc.Dead[topology.LinkID(l)] = true
		}
		for _, l := range rng.Perm(10)[:rng.Intn(3)] {
			if c.degraded == nil {
				c.degraded = map[int]float64{}
				sc.Degraded = map[topology.LinkID]float64{}
			}
			alpha := []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
			c.degraded[l] = alpha
			if !sc.Dead[topology.LinkID(l)] {
				sc.Degraded[topology.LinkID(l)] = alpha
			}
		}
		out, err := pub.Sweep.Outcome(sc)
		if err != nil {
			t.Fatalf("case %d (dead %v, degraded %v): %v", i, c.dead, c.degraded, err)
		}
		c.want = realizeReply{MLU: out.MLU, MaxU: out.MaxU, Pairs: out.Pairs, Scheme: pub.Scheme}
		if len(c.dead) > 0 {
			c.want.DeadLinks = slices.Clone(c.dead)
			slices.Sort(c.want.DeadLinks)
		}
	}

	// One id per request: realizes take 1..realizes, validates and
	// solves the ids after them. Each validate and solve waits for its
	// share of the realizes to be answered, so new epochs publish and
	// validates run all through the realize traffic.
	const workers, validates, solves = 6, 12, 4
	var answered atomic.Int64
	type otherReply struct {
		status int
		header string
		epoch  uint64
	}
	others := make([]otherReply, validates+solves)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < realizes; i += workers {
				c := &cases[i]
				resp, err := testClient.Post(ts.URL+c.query(i+1), "", nil)
				if err != nil {
					t.Errorf("realize %d: %v", i, err)
					continue
				}
				c.status, c.header = resp.StatusCode, resp.Header.Get("X-PCF-Epoch")
				err = json.NewDecoder(resp.Body).Decode(&c.got)
				resp.Body.Close()
				if err != nil {
					t.Errorf("realize %d: decoding: %v", i, err)
				}
				answered.Add(1)
			}
		}(w)
	}
	for j := range others {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			id := realizes + 1 + j
			method, path := http.MethodGet, "/v1/validate?model=sampled&p=0.05&samples=20&seed="+strconv.Itoa(j)
			share := realizes * j / validates
			if j >= validates {
				method, path = http.MethodPost, "/v1/solve?scheme=PCF-CLS"
				share = realizes * (j - validates) / solves
			}
			for answered.Load() < int64(share) {
				time.Sleep(100 * time.Microsecond)
			}
			req, err := http.NewRequestWithContext(context.Background(), method, ts.URL+path+"&timeout="+idTimeout(id), nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := testClient.Do(req)
			if err != nil {
				t.Errorf("%s %s: %v", method, path, err)
				return
			}
			var body struct{ Epoch uint64 }
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("%s %s: decoding: %v", method, path, err)
			}
			others[j] = otherReply{resp.StatusCode, resp.Header.Get("X-PCF-Epoch"), body.Epoch}
		}(j)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	epochs := map[uint64]int{}
	for i := range cases {
		c := &cases[i]
		if c.status != http.StatusOK {
			t.Errorf("realize %d: status %d", i, c.status)
			continue
		}
		want := c.want
		want.Epoch = c.got.Epoch
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("realize %d (dead %v, degraded %v): reply %+v, want %+v", i, c.dead, c.degraded, c.got, want)
		}
		rec, ok := records[i+1]
		if !ok {
			t.Errorf("realize %d: no request record", i)
			continue
		}
		if c.header != strconv.FormatUint(c.got.Epoch, 10) || rec.Epoch != c.got.Epoch {
			t.Errorf("realize %d: body epoch %d, X-PCF-Epoch %q, record epoch %d", i, c.got.Epoch, c.header, rec.Epoch)
		}
		fields := maps.Clone(rec.Fields)
		delete(fields, "deadline_slack_ms")
		wantFields := map[string]float64{"mlu": want.MLU, "max_u": want.MaxU, "dead_links": float64(len(want.DeadLinks))}
		if rec.Name != "realize" || !reflect.DeepEqual(fields, wantFields) {
			t.Errorf("realize %d: record %s fields %v, want %v", i, rec.Name, fields, wantFields)
		}
		epochs[c.got.Epoch]++
	}
	t.Logf("realizes answered per epoch: %v", epochs)
	newest := s.Registry().Epoch()
	if newest < 1+solves {
		t.Errorf("registry at epoch %d after %d solves, want >= %d", newest, solves, 1+solves)
	}
	for j, o := range others {
		rec, ok := records[realizes+1+j]
		if o.status != http.StatusOK || !ok {
			t.Errorf("request %d: status %d, record %v", realizes+1+j, o.status, ok)
			continue
		}
		if o.header != strconv.FormatUint(o.epoch, 10) || rec.Epoch != o.epoch {
			t.Errorf("%s %d: body epoch %d, X-PCF-Epoch %q, record epoch %d", rec.Name, j, o.epoch, o.header, rec.Epoch)
		}
	}
}

// TestServerQueuedRealizeDeadline: a realize queued behind a full
// realize class answers 504 once its ?timeout= passes; one still queued
// when Shutdown's drain deadline expires answers 503, the hard cancel
// reaching the context the queue built for it.
func TestServerQueuedRealizeDeadline(t *testing.T) {
	for _, tc := range []struct {
		name, timeout string
		drain         bool
		status        int
	}{
		{"timeout", "50ms", false, http.StatusGatewayTimeout},
		{"drain", "10s", true, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{MaxConcurrentRealizes: 1, DrainTimeout: 50 * time.Millisecond})
			_, plan := testPlan(t)
			if _, err := s.Registry().Publish(context.Background(), plan); err != nil {
				t.Fatal(err)
			}
			// The realize class's one slot is held for the whole test.
			if !s.adm.Take(ClassRealize) {
				t.Fatal("the realize slot is taken")
			}
			defer s.adm.Release(ClassRealize)
			type result struct {
				status int
				body   string
			}
			done := make(chan result, 1)
			go func() {
				resp, err := testClient.Post(ts.URL+"/v1/realize?links=1&timeout="+tc.timeout, "", nil)
				if err != nil {
					done <- result{body: err.Error()}
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				done <- result{resp.StatusCode, string(body)}
			}()
			deadline := time.Now().Add(5 * time.Second)
			for s.adm.Queued(ClassRealize) != 1 {
				if time.Now().After(deadline) {
					t.Fatal("the realize never queued")
				}
				time.Sleep(time.Millisecond)
			}
			if tc.drain {
				if err := s.Shutdown(context.Background()); err != nil {
					t.Fatalf("Shutdown: %v", err)
				}
			}
			var r result
			select {
			case r = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("the queued realize is still waiting after 5 s")
			}
			if r.status != tc.status {
				t.Fatalf("queued realize: status %d, want %d: %s", r.status, tc.status, r.body)
			}
			if q := s.adm.Queued(ClassRealize); q != 0 {
				t.Fatalf("%d realizes still queued", q)
			}
		})
	}
}
