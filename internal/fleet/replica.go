package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"pcf/internal/serve"
	"pcf/internal/telemetry"
)

// ReplicaConfig parameterizes a Replica.
type ReplicaConfig struct {
	// Name identifies this replica to the planner (replica table, logs).
	Name string
	// PlannerURL is the planner's base URL (scheme://host:port).
	PlannerURL string
	// AdvertiseURL, when non-empty, is this replica's base URL as the
	// planner should see it; advertising enables envelope pushes.
	AdvertiseURL string
	// Client performs the sync requests; nil builds one with a 10s
	// timeout. Chaos tests install a faultinject.ChaosTransport
	// here.
	Client *http.Client
	// Interval is the steady-state sync cadence; each sync renews the
	// lease (0 = a third of the lease TTL the planner last granted, of
	// the default TTL before the first grant).
	Interval time.Duration
	// BackoffMin/BackoffMax bound the exponential retry backoff after
	// failed syncs (0 = the cadence / 10× the cadence).
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
// renews its lease with every sync. Solve traffic is refused — plans
// enter a replica only through the distribution path, which funnels
// into the registry's validating, epoch-monotone PublishExternal.
type Replica struct {
	srv         *serve.Server
	cfg         ReplicaConfig
	holder      *holder
	mux         *http.ServeMux
	fingerprint string

	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// NewReplica builds the replica role around a serving core and
// registers its lease-freshness readiness check on the core's
// /healthz.
func NewReplica(srv *serve.Server, cfg ReplicaConfig) *Replica {
	cfg = cfg.withDefaults()
	r := &Replica{
		srv:         srv,
		cfg:         cfg,
		holder:      newHolder(),
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

// emit stamps a record with this replica's name and hands it to the
// core's sink, so fleet sync records land in the same store (and
// snapshot, and query API) as the node's own request records.
func (r *Replica) emit(rec telemetry.Record) {
	rec.Source = r.cfg.Name
	r.srv.Emitter().Emit(rec)
}

// leaseCheck is the /healthz readiness contribution: a replica whose
// lease expired keeps serving read-only but reports itself degraded.
func (r *Replica) leaseCheck() serve.HealthCheck {
	expires := r.holder.expiry()
	switch {
	case expires.IsZero():
		return serve.HealthCheck{OK: false, Detail: "no lease held yet"}
	case !r.holder.fresh():
		return serve.HealthCheck{OK: false,
			Detail: fmt.Sprintf("lease expired %s ago", time.Since(expires).Round(time.Millisecond))}
	default:
		return serve.HealthCheck{OK: true,
			Detail: fmt.Sprintf("lease fresh for %s", time.Until(expires).Round(time.Millisecond))}
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
		return nil, fmt.Errorf("fleet: envelope for epoch %d undecodable: %w", env.Epoch, err)
	}
	pub, err := r.srv.Registry().PublishExternal(ctx, env.Epoch, plan)
	if err == nil {
		r.cfg.Logf("fleet: %s installed epoch %d (scheme %s)", r.cfg.Name, pub.Epoch, pub.Scheme)
	}
	return pub, err
}

// handlePush accepts a planner-pushed envelope. Statuses: 200
// installed, 409 epoch did not advance (the replica is already
// current — convergence, not failure), 422 failed decode or local
// validation.
func (r *Replica) handlePush(w http.ResponseWriter, req *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading push body")
		return
	}
	env, err := serve.DecodeEnvelope(data)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "undecodable envelope")
		return
	}
	pub, err := r.Apply(req.Context(), env)
	w.Header().Set("Content-Type", "application/json")
	switch {
	case err == nil:
		w.Header().Set(serve.EpochHeader, strconv.FormatUint(pub.Epoch, 10))
		json.NewEncoder(w).Encode(map[string]any{"installed": pub.Epoch})
	case errors.Is(err, serve.ErrEpochRegression):
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "epoch": r.srv.Registry().Epoch()})
	default:
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
	}
}

// Run drives the sync loop until ctx ends: each round is one
// conditional fetch that renews the lease and, when the local registry
// is behind, brings the newest envelope to apply. Failed rounds back
// off exponentially with seeded jitter between the backoff bounds; a
// successful round resets the cadence (see cadence).
func (r *Replica) Run(ctx context.Context) {
	delay := time.Duration(0)   // first round immediately
	backoff := time.Duration(0) // 0: the next failure waits the least
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
		err := r.syncOnce(ctx)
		interval, backoffMin, backoffMax := r.cadence()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			r.cfg.Logf("fleet: %s sync: %v", r.cfg.Name, err)
			backoff = max(backoff, backoffMin)
			delay = r.withJitter(backoff)
			backoff = min(2*backoff, backoffMax)
		} else {
			delay = r.withJitter(interval)
			backoff = 0
		}
	}
}

// cadence returns the sync interval and the backoff bounds: the
// configured values, else a third of the lease TTL last granted, so
// two consecutive lost syncs still renew in time, and backoff from
// that interval to ten times it.
func (r *Replica) cadence() (interval, backoffMin, backoffMax time.Duration) {
	interval = r.cfg.Interval
	if interval <= 0 {
		interval = r.holder.granted() / 3
	}
	backoffMin, backoffMax = r.cfg.BackoffMin, r.cfg.BackoffMax
	if backoffMin <= 0 {
		backoffMin = interval
	}
	if backoffMax <= 0 {
		backoffMax = 10 * interval
	}
	return interval, backoffMin, max(backoffMin, backoffMax)
}

// withJitter spreads d by ±25% so a fleet of replicas does not
// sync in lockstep.
func (r *Replica) withJitter(d time.Duration) time.Duration {
	r.jitterMu.Lock()
	defer r.jitterMu.Unlock()
	if d <= 0 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(int64(d) - half/2 + r.jitter.Int63n(half+1))
}

// syncOnce is one sync round: GET the plan after the served epoch,
// naming this replica. Any answer that carries the lease TTL renews
// the lease — the planner saw the sync — even if the envelope then
// fails to decode; a torn envelope surfaces as a retriable error and
// leaves the registry untouched. Every round, success or failure,
// leaves a sync record behind.
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
	u := fmt.Sprintf("%s%s?after=%d&replica=%s", r.cfg.PlannerURL, PlanPath,
		r.srv.Registry().Epoch(), url.QueryEscape(r.cfg.Name))
	if r.cfg.AdvertiseURL != "" {
		u += "&url=" + url.QueryEscape(r.cfg.AdvertiseURL)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer drainBody(resp)
	if ms, err := strconv.ParseInt(resp.Header.Get(leaseTTLHeader), 10, 64); err == nil {
		r.holder.renew(time.Duration(ms) * time.Millisecond)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotModified, http.StatusNotFound:
		return nil // already current, or the planner has nothing yet
	default:
		return fmt.Errorf("planner plan status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
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
