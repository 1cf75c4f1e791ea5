package fleet

import (
	"testing"
	"time"
)

func TestHolderExpiry(t *testing.T) {
	h := newHolder()
	if h.fresh() || !h.expiry().IsZero() {
		t.Fatal("empty holder reports a lease")
	}
	now := time.Unix(1000, 0)
	h.now = func() time.Time { return now }
	h.renew(100 * time.Millisecond)
	if !h.fresh() {
		t.Fatal("lease not fresh immediately after renewal")
	}
	now = now.Add(99 * time.Millisecond)
	if !h.fresh() {
		t.Fatal("lease expired before its TTL")
	}
	now = now.Add(2 * time.Millisecond)
	if h.fresh() {
		t.Fatal("lease still fresh past its TTL")
	}
	// An expired lease is still remembered — the replica keeps serving
	// on it, degraded.
	if h.expiry().IsZero() {
		t.Fatal("expired lease dropped entirely; want held-but-stale")
	}
}

func TestPushTargetsHorizon(t *testing.T) {
	g := newGranter(time.Second)
	now := time.Unix(2000, 0)
	g.now = func() time.Time { return now }
	g.grant("old", "http://old:1", 0)
	now = now.Add(10 * time.Second)
	g.grant("fresh", "http://fresh:1", 0)
	g.grant("mute", "", 0) // never advertised a URL
	got := g.pushTargets(2 * time.Second)
	if len(got) != 1 || got[0] != "http://fresh:1" {
		t.Fatalf("pushTargets = %v, want only http://fresh:1", got)
	}
	if reps := g.snapshot(); len(reps) != 3 || reps[0].Replica != "fresh" || reps[2].Replica != "old" {
		t.Fatalf("snapshot = %+v, want fresh, mute, old in name order", reps)
	}
}
