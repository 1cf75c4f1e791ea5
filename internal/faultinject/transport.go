package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// ChaosTransport is an http.RoundTripper that injects fleet-transport
// faults between a client and its backends: per-host partitions
// (connection-level failure before any bytes move), dropped
// responses, and torn response bodies (truncated mid-envelope, so
// decoders see invalid JSON the way a killed connection would leave
// it). The fleet chaos soak wires it under the
// replica sync client to prove that no torn or withheld
// envelope ever becomes a served plan.
//
// All knobs are safe for concurrent use; counters report how often
// each fault actually fired.
type ChaosTransport struct {
	// Base performs the real round trips; nil means
	// http.DefaultTransport.
	Base http.RoundTripper

	mu          sync.Mutex
	partitioned map[string]bool // host:port → unreachable
	dropEveryN  int             // every Nth response vanishes
	tearEveryN  int             // every Nth response body is truncated

	reqs    int64
	blocked int64
	dropped int64
	torn    int64
}

// ChaosTransportStats is a point-in-time snapshot of fault counters.
type ChaosTransportStats struct {
	Requests int64 // round trips attempted through the transport
	Blocked  int64 // failed by an active partition
	Dropped  int64 // responses discarded after delivery
	Torn     int64 // response bodies truncated mid-envelope
}

// NewChaosTransport builds a transport with all faults off; base nil
// selects http.DefaultTransport.
func NewChaosTransport(base http.RoundTripper) *ChaosTransport {
	return &ChaosTransport{Base: base, partitioned: map[string]bool{}}
}

// SetPartition makes the host (a "host:port" URL host) unreachable
// (on=true) or heals it. A partitioned host fails at connect time:
// the request never reaches the backend.
func (t *ChaosTransport) SetPartition(host string, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if on {
		t.partitioned[host] = true
	} else {
		delete(t.partitioned, host)
	}
}

// SetDropEveryN drops every nth successful response (n <= 0 disables).
func (t *ChaosTransport) SetDropEveryN(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropEveryN = n
}

// SetTearEveryN truncates the body of every nth successful response at
// its midpoint (n <= 0 disables).
func (t *ChaosTransport) SetTearEveryN(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tearEveryN = n
}

// Stats snapshots the fault counters.
func (t *ChaosTransport) Stats() ChaosTransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ChaosTransportStats{Requests: t.reqs, Blocked: t.blocked, Dropped: t.dropped, Torn: t.torn}
}

// RoundTrip implements http.RoundTripper with the configured faults.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.reqs++
	n := t.reqs
	blocked := t.partitioned[req.URL.Host]
	drop := t.dropEveryN > 0 && n%int64(t.dropEveryN) == 0
	tear := t.tearEveryN > 0 && n%int64(t.tearEveryN) == 0
	if blocked {
		t.blocked++
	}
	t.mu.Unlock()

	if blocked {
		return nil, fmt.Errorf("faultinject: host %s partitioned", req.URL.Host)
	}

	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if drop {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.mu.Lock()
		t.dropped++
		t.mu.Unlock()
		return nil, fmt.Errorf("faultinject: response from %s dropped", req.URL.Host)
	}
	if tear {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, fmt.Errorf("faultinject: tearing response: %w", rerr)
		}
		t.mu.Lock()
		t.torn++
		t.mu.Unlock()
		// Half the payload, with the framing headers cleared: the
		// client reads a clean EOF mid-document, exactly like a
		// connection that died between two TCP segments.
		resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
		resp.ContentLength = int64(len(body) / 2)
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}
