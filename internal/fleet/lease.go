package fleet

import (
	"sort"
	"sync"
	"time"
)

// leaseTTLHeader carries the lease lifetime, in milliseconds, on every
// answer to a named sync. A replica that receives it holds a lease for
// that long from receipt. The lease does NOT gate serving — a replica
// whose lease lapsed keeps serving its last locally validated plan
// read-only — it gates freshness: a lapsed lease means the replica can
// no longer prove it is tracking the newest epoch, so it reports itself
// degraded and front ends deprioritize it.
const leaseTTLHeader = "X-PCF-Lease-TTL-Ms"

// ReplicaStatus is the planner's view of one syncing replica.
type ReplicaStatus struct {
	Replica  string    `json:"replica"`
	URL      string    `json:"url,omitempty"` // advertised base URL, for push
	Epoch    uint64    `json:"epoch"`         // last epoch the replica reported serving
	LastSeen time.Time `json:"last_seen"`
}

// granter is the planner-side lease authority: the TTL it grants and a
// last-seen table of the replicas that synced.
type granter struct {
	mu       sync.Mutex
	ttl      time.Duration
	now      func() time.Time
	replicas map[string]*ReplicaStatus
}

// newGranter builds a granter; ttl <= 0 selects the default.
func newGranter(ttl time.Duration) *granter {
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	return &granter{ttl: ttl, now: time.Now, replicas: map[string]*ReplicaStatus{}}
}

// grant records a sync from replica: the epoch it reports serving and
// (when non-empty) its advertised URL.
func (g *granter) grant(replica, url string, replicaEpoch uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.replicas[replica]
	if st == nil {
		st = &ReplicaStatus{Replica: replica}
		g.replicas[replica] = st
	}
	st.Epoch = replicaEpoch
	st.LastSeen = g.now()
	if url != "" {
		st.URL = url
	}
}

// snapshot returns the fleet view, sorted by replica name.
func (g *granter) snapshot() []ReplicaStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ReplicaStatus, 0, len(g.replicas))
	for _, st := range g.replicas {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Replica < out[j].Replica })
	return out
}

// pushTargets lists the advertised URLs of replicas seen within the
// given horizon — the planner pushes fresh envelopes to these.
func (g *granter) pushTargets(horizon time.Duration) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	cutoff := g.now().Add(-horizon)
	var urls []string
	for _, st := range g.replicas {
		if st.URL != "" && st.LastSeen.After(cutoff) {
			urls = append(urls, st.URL)
		}
	}
	sort.Strings(urls)
	return urls
}

// holder is the replica-side lease state: when the latest renewal
// expires, and the TTL it granted. Renewals need no ordering: the
// replica syncs serially, so every renewal it sees is the newest.
type holder struct {
	mu      sync.Mutex
	now     func() time.Time
	expires time.Time     // zero until the first renewal
	ttl     time.Duration // zero until the first renewal
}

func newHolder() *holder { return &holder{now: time.Now} }

// renew extends the lease to ttl from now.
func (h *holder) renew(ttl time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.expires = h.now().Add(ttl)
	h.ttl = ttl
}

// granted returns the TTL of the latest renewal, or the default TTL
// before the first.
func (h *holder) granted() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ttl <= 0 {
		return defaultLeaseTTL
	}
	return h.ttl
}

// fresh reports whether the holder has an unexpired lease.
func (h *holder) fresh() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.now().Before(h.expires)
}

// expiry returns when the latest renewal expires; zero means no lease
// was ever held.
func (h *holder) expiry() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.expires
}
