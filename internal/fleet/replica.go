package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pcf/internal/serve"
	"pcf/internal/telemetry"
)

// ReplicaConfig parameterizes a Replica.
type ReplicaConfig struct {
	// Name identifies this replica to the planner (lease table, logs).
	Name string
	// PlannerURL is the planner's base URL (scheme://host:port).
	PlannerURL string
	// AdvertiseURL, when non-empty, is this replica's base URL as the
	// planner should see it; advertising enables envelope pushes.
	AdvertiseURL string
	// Client performs heartbeats and fetches; nil builds one with a
	// 10s timeout. Chaos tests install a faultinject.ChaosTransport
	// here.
	Client *http.Client
	// Interval is the steady-state heartbeat/sync cadence (0 = a third
	// of the default lease TTL).
	Interval time.Duration
	// BackoffMin/BackoffMax bound the exponential retry backoff after
	// failed heartbeats or fetches (0 = Interval / 10×Interval).
	BackoffMin, BackoffMax time.Duration
	// JitterSeed seeds the backoff jitter; fixed seeds make chaos runs
	// reproducible.
	JitterSeed int64
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c ReplicaConfig) withDefaults() ReplicaConfig {
	if c.Name == "" {
		c.Name = "replica"
	}
	if c.Interval <= 0 {
		c.Interval = defaultLeaseTTL / 3
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = c.Interval
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * c.Interval
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = c.BackoffMin
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Replica wraps a serve.Server into a fleet serving replica: it pulls
// epoch-stamped envelopes from the planner (and accepts pushes),
// re-validates every plan locally before hot-swapping it in, and
// heartbeats for a lease. Solve traffic is refused — plans enter a
// replica only through the distribution path, which funnels into the
// registry's validating, epoch-monotone PublishExternal.
type Replica struct {
	srv         *serve.Server
	cfg         ReplicaConfig
	holder      *Holder
	mux         *http.ServeMux
	fingerprint string

	jitterMu sync.Mutex
	jitter   *rand.Rand

	applied           atomic.Int64 // envelopes validated and installed
	rejectedInvalid   atomic.Int64 // failed decode or local validation
	rejectedRegressed atomic.Int64 // non-advancing epochs refused
}

// NewReplica builds the replica role around a serving core and
// registers its lease-freshness readiness check on the core's
// /healthz.
func NewReplica(srv *serve.Server, cfg ReplicaConfig) *Replica {
	cfg = cfg.withDefaults()
	r := &Replica{
		srv:         srv,
		cfg:         cfg,
		holder:      NewHolder(),
		fingerprint: serve.Fingerprint(srv.Instance()),
		jitter:      rand.New(rand.NewSource(cfg.JitterSeed)),
	}
	srv.AddHealthCheck("lease", r.leaseCheck)
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST "+PlanPath, r.handlePush)
	r.mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, req *http.Request) {
		writeError(w, http.StatusForbidden, ErrReplicaReadOnly.Error())
	})
	r.mux.Handle("/", srv)
	return r
}

// ServeHTTP implements http.Handler: the push endpoint and the solve
// guard first, everything else to the serving core.
func (r *Replica) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// Holder exposes the replica's lease state.
func (r *Replica) Holder() *Holder { return r.holder }

// emit stamps a record with this replica's name and hands it to the
// core's sink, so fleet sync/lease records land in the same store (and
// snapshot, and query API) as the node's own request records.
func (r *Replica) emit(rec telemetry.Record) {
	rec.Source = r.cfg.Name
	r.srv.Emitter().Emit(rec)
}

// Applied reports how many envelopes were validated and installed.
func (r *Replica) Applied() int64 { return r.applied.Load() }

// RejectedInvalid reports envelopes refused by decode or local
// validation.
func (r *Replica) RejectedInvalid() int64 { return r.rejectedInvalid.Load() }

// RejectedRegressed reports envelopes refused for epoch regression.
func (r *Replica) RejectedRegressed() int64 { return r.rejectedRegressed.Load() }

// leaseCheck is the /healthz readiness contribution: a replica whose
// lease expired keeps serving read-only but reports itself degraded.
func (r *Replica) leaseCheck() serve.HealthCheck {
	lease, expires, held := r.holder.Current()
	switch {
	case !held:
		return serve.HealthCheck{OK: false, Detail: "no lease held yet"}
	case !r.holder.Fresh():
		return serve.HealthCheck{OK: false,
			Detail: fmt.Sprintf("lease term %d expired %s ago", lease.Term, time.Since(expires).Round(time.Millisecond))}
	default:
		return serve.HealthCheck{OK: true,
			Detail: fmt.Sprintf("lease term %d fresh for %s", lease.Term, time.Until(expires).Round(time.Millisecond))}
	}
}

// Apply decodes an envelope against the local instance and offers the
// plan to the validating registry. The wire is never trusted: a plan
// that fails the local congestion-free sweep is refused (wrapping
// serve.ErrValidation), and an epoch that does not advance the local
// registry is refused (serve.ErrEpochRegression).
func (r *Replica) Apply(ctx context.Context, env *serve.Envelope) (*serve.Published, error) {
	plan, err := env.DecodePlan(r.srv.Instance(), r.fingerprint)
	if err != nil {
		r.rejectedInvalid.Add(1)
		return nil, fmt.Errorf("fleet: envelope for epoch %d undecodable: %w", env.Epoch, err)
	}
	pub, err := r.srv.Registry().PublishExternal(ctx, env.Epoch, plan)
	switch {
	case err == nil:
		r.applied.Add(1)
		r.cfg.Logf("fleet: %s installed epoch %d (scheme %s)", r.cfg.Name, pub.Epoch, pub.Scheme)
	case errors.Is(err, serve.ErrEpochRegression):
		r.rejectedRegressed.Add(1)
	default:
		r.rejectedInvalid.Add(1)
	}
	return pub, err
}

// handlePush accepts a planner-pushed envelope. Statuses: 200
// installed, 409 epoch did not advance (the replica is already
// current — convergence, not failure), 422 failed decode or local
// validation.
func (r *Replica) handlePush(w http.ResponseWriter, req *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading push body")
		return
	}
	env, err := serve.DecodeEnvelope(data)
	if err != nil {
		r.rejectedInvalid.Add(1)
		writeError(w, http.StatusUnprocessableEntity, "undecodable envelope")
		return
	}
	pub, err := r.Apply(req.Context(), env)
	w.Header().Set("Content-Type", "application/json")
	switch {
	case err == nil:
		w.Header().Set("X-PCF-Epoch", strconv.FormatUint(pub.Epoch, 10))
		json.NewEncoder(w).Encode(map[string]any{"installed": pub.Epoch})
	case errors.Is(err, serve.ErrEpochRegression):
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "epoch": r.srv.Registry().Epoch()})
	default:
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
	}
}

// Run drives the heartbeat/sync loop until ctx ends: each round
// heartbeats the planner (renewing the lease and learning the newest
// epoch), then fetches and applies the newest envelope if the local
// registry is behind. Failed rounds back off exponentially with
// seeded jitter between BackoffMin and BackoffMax; a successful round
// resets the cadence to Interval.
func (r *Replica) Run(ctx context.Context) {
	delay := time.Duration(0) // first round immediately
	backoff := r.cfg.BackoffMin
	for {
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return
		}
		if err := r.syncOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			r.cfg.Logf("fleet: %s sync: %v", r.cfg.Name, err)
			delay = r.withJitter(backoff)
			backoff = min(2*backoff, r.cfg.BackoffMax)
		} else {
			delay = r.withJitter(r.cfg.Interval)
			backoff = r.cfg.BackoffMin
		}
	}
}

// withJitter spreads d by ±25% so a fleet of replicas does not
// heartbeat in lockstep.
func (r *Replica) withJitter(d time.Duration) time.Duration {
	r.jitterMu.Lock()
	defer r.jitterMu.Unlock()
	if d <= 0 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(int64(d) - half/2 + r.jitter.Int63n(half+1))
}

// syncOnce is one heartbeat + conditional fetch round. Every round —
// success or failure — leaves a sync record behind; each lease grant
// observed leaves a lease record with its accept/stale outcome.
func (r *Replica) syncOnce(ctx context.Context) (err error) {
	start := time.Now()
	defer func() {
		rec := telemetry.Record{
			Kind:  telemetry.KindSync,
			Name:  "sync",
			Epoch: r.srv.Registry().Epoch(),
			Dur:   time.Since(start),
		}
		if err != nil {
			rec.Outcome = "error"
		}
		r.emit(rec)
	}()
	lease, err := r.heartbeat(ctx)
	if err != nil {
		return fmt.Errorf("heartbeat: %w", err)
	}
	leaseRec := telemetry.Record{
		Kind:  telemetry.KindLease,
		Name:  "observe",
		Epoch: lease.Epoch,
		Fields: map[string]float64{
			"term":   float64(lease.Term),
			"ttl_ms": float64(lease.TTLMillis),
		},
	}
	if oerr := r.holder.Observe(lease); oerr != nil {
		// A stale term is suspicious but not fatal to syncing: refuse
		// the grant, keep the newer lease we already hold.
		leaseRec.Outcome = "stale"
		r.cfg.Logf("fleet: %s refused lease: %v", r.cfg.Name, oerr)
	}
	r.emit(leaseRec)
	if lease.Epoch > r.srv.Registry().Epoch() {
		if err := r.fetchAndApply(ctx); err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
	}
	return nil
}

// heartbeat posts the replica's identity and served epoch; the
// response is the next lease grant.
func (r *Replica) heartbeat(ctx context.Context) (Lease, error) {
	hb := heartbeat{Replica: r.cfg.Name, URL: r.cfg.AdvertiseURL, Epoch: r.srv.Registry().Epoch()}
	body, err := json.Marshal(hb)
	if err != nil {
		return Lease{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.PlannerURL+LeasePath, bytes.NewReader(body))
	if err != nil {
		return Lease{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return Lease{}, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return Lease{}, fmt.Errorf("planner lease status %d", resp.StatusCode)
	}
	var lease Lease
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&lease); err != nil {
		return Lease{}, fmt.Errorf("decoding lease: %w", err)
	}
	return lease, nil
}

// fetchAndApply pulls the newest envelope (conditional on the local
// epoch) and applies it. A torn response fails envelope decoding and
// surfaces as a retriable fetch error — the registry is untouched.
func (r *Replica) fetchAndApply(ctx context.Context) error {
	url := fmt.Sprintf("%s%s?after=%d", r.cfg.PlannerURL, PlanPath, r.srv.Registry().Epoch())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer drainBody(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotModified, http.StatusNotFound:
		return nil // already current, or the planner has nothing yet
	default:
		return fmt.Errorf("planner plan status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("reading envelope: %w", err)
	}
	env, err := serve.DecodeEnvelope(data)
	if err != nil {
		return err
	}
	_, err = r.Apply(ctx, env)
	if errors.Is(err, serve.ErrEpochRegression) {
		return nil // raced with a concurrent push; the newer epoch won
	}
	return err
}
