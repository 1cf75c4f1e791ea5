package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pcf/internal/serve"
	"pcf/internal/telemetry"
)

// PlannerConfig parameterizes a Planner.
type PlannerConfig struct {
	// LeaseTTL is the lease lifetime granted to syncing replicas
	// (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// PushClient sends the pushes that wake advertised replicas after
	// a publish; nil builds a client with PushTimeout. A push carries
	// no plan, and pushes are an optimization — replicas converge by
	// pulling even if every push is lost.
	PushClient *http.Client
	// PushTimeout bounds each push request (0 = 5s).
	PushTimeout time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Planner wraps a serve.Server with the fleet control plane: it
// publishes epoch-stamped envelopes of every validated plan over
// /v1/fleet/plan, renews the lease of every replica that syncs there,
// and best-effort pushes a wake to replicas that advertised a URL, so
// they fetch a new epoch at once. Plans still enter the world only
// through the server's validating registry — the planner adds
// distribution, not a second publication path.
type Planner struct {
	srv         *serve.Server
	granter     *granter
	mux         *http.ServeMux
	cfg         PlannerConfig
	fingerprint string

	// cachedEnv memoizes the encoded envelope of the newest epoch so
	// N replicas polling does not mean N re-serializations.
	cachedEnv atomic.Pointer[encodedEnvelope]

	pushWG     sync.WaitGroup
	pushOK     atomic.Int64
	pushFailed atomic.Int64
}

type encodedEnvelope struct {
	epoch uint64
	data  []byte
}

// NewPlanner builds the planner role around a serving core and hooks
// itself into the registry's publish path so every new epoch is
// offered to the fleet immediately.
func NewPlanner(srv *serve.Server, cfg PlannerConfig) *Planner {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.PushTimeout <= 0 {
		cfg.PushTimeout = 5 * time.Second
	}
	if cfg.PushClient == nil {
		cfg.PushClient = &http.Client{Timeout: cfg.PushTimeout}
	}
	p := &Planner{
		srv:         srv,
		granter:     newGranter(cfg.LeaseTTL),
		cfg:         cfg,
		fingerprint: serve.Fingerprint(srv.Instance()),
	}
	srv.Registry().OnPublish = p.onPublish
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("GET "+PlanPath, p.handlePlanFetch)
	p.mux.HandleFunc("GET "+StatusPath, p.handleStatus)
	p.mux.Handle("/", srv)
	return p
}

// emit stamps a record as the planner's and hands it to the core's
// sink, so syncs and pushes are queryable next to solve/publish
// records on the same node.
func (p *Planner) emit(rec telemetry.Record) {
	rec.Source = "planner"
	p.srv.Emitter().Emit(rec)
}

// ServeHTTP implements http.Handler: fleet control-plane endpoints
// first, everything else to the serving core.
func (p *Planner) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mux.ServeHTTP(w, r)
}

// envelopeFor returns the encoded envelope of the published epoch,
// re-encoding only when the epoch moved.
func (p *Planner) envelopeFor(pub *serve.Published) ([]byte, error) {
	if c := p.cachedEnv.Load(); c != nil && c.epoch == pub.Epoch {
		return c.data, nil
	}
	env, err := serve.NewEnvelope(pub.Epoch, p.fingerprint, pub.Plan)
	if err != nil {
		return nil, err
	}
	data, err := env.Encode()
	if err != nil {
		return nil, err
	}
	p.cachedEnv.Store(&encodedEnvelope{epoch: pub.Epoch, data: data})
	return data, nil
}

// handlePlanFetch serves the newest envelope. ?after=<epoch> turns the
// fetch conditional: 304 when the replica is already current, so the
// steady-state poll costs a header exchange, not a plan transfer. An
// after that is not an epoch is a 400.
//
// A fetch that names a replica (?replica=<name>[&url=<advertise>]) is
// that replica's whole sync round: the planner records it in its table
// — after is the epoch it serves — and every answer carries the lease
// TTL, which renews the replica's lease.
func (p *Planner) handlePlanFetch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	raw := q.Get("after")
	after, perr := strconv.ParseUint(raw, 10, 64)
	if raw != "" && perr != nil {
		writeError(w, http.StatusBadRequest, "bad after "+strconv.Quote(raw)+" (want an epoch)")
		return
	}
	if name := q.Get("replica"); name != "" {
		p.granter.grant(name, q.Get("url"), after)
		p.emit(telemetry.Record{
			Kind:   telemetry.KindLease,
			Name:   name,
			Epoch:  p.srv.Registry().Epoch(),
			Fields: map[string]float64{"replica_epoch": float64(after)},
		})
		w.Header().Set(leaseTTLHeader, strconv.FormatInt(p.granter.ttl.Milliseconds(), 10))
	}
	pub, err := p.srv.Registry().Current()
	if err != nil {
		writeError(w, http.StatusNotFound, "no plan published")
		return
	}
	if raw != "" && pub.Epoch <= after {
		w.Header().Set(serve.EpochHeader, strconv.FormatUint(pub.Epoch, 10))
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, err := p.envelopeFor(pub)
	if err != nil {
		p.cfg.Logf("fleet: encoding envelope for epoch %d: %v", pub.Epoch, err)
		writeError(w, http.StatusInternalServerError, "envelope encoding failed")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(serve.EpochHeader, strconv.FormatUint(pub.Epoch, 10))
	w.Write(data)
}

// handleStatus reports the planner's fleet view.
func (p *Planner) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"newest_epoch": p.srv.Registry().Epoch(),
		"lease_ttl_ms": p.granter.ttl.Milliseconds(),
		"replicas":     p.granter.snapshot(),
		"push_ok":      p.pushOK.Load(),
		"push_failed":  p.pushFailed.Load(),
	})
}

// onPublish runs (under the registry's publication lock) after every
// swap. It encodes the envelope, so the fetches the pushes wake hit
// the cache, and kicks the pushing onto a goroutine so publication
// latency never waits on replica sockets.
func (p *Planner) onPublish(pub *serve.Published) {
	targets := p.granter.pushTargets(2 * p.granter.ttl)
	if len(targets) == 0 {
		return
	}
	if _, err := p.envelopeFor(pub); err != nil {
		p.cfg.Logf("fleet: push skipped, envelope encoding failed: %v", err)
		return
	}
	p.pushWG.Add(1)
	go func() {
		defer p.pushWG.Done()
		p.pushAll(pub.Epoch, targets)
	}()
}

// pushAll wakes each target once. A wake returns before the replica
// fetches, so the replicas re-validate side by side. Failures are
// logged and counted, never retried here: the replica's pull loop is
// the delivery guarantee, push is latency icing.
func (p *Planner) pushAll(epoch uint64, targets []string) {
	for _, base := range targets {
		start := time.Now()
		outcome := p.pushOne(epoch, base)
		if outcome == "" {
			p.pushOK.Add(1)
		} else {
			p.pushFailed.Add(1)
		}
		p.emit(telemetry.Record{
			Kind:    telemetry.KindPush,
			Name:    base,
			Epoch:   epoch,
			Outcome: outcome,
			Dur:     time.Since(start),
		})
	}
}

// pushOne sends an empty POST that wakes a single target's sync loop;
// the returned outcome is empty on success and "error" otherwise.
func (p *Planner) pushOne(epoch uint64, base string) string {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.PushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+PlanPath, nil)
	if err != nil {
		return "error"
	}
	resp, err := p.cfg.PushClient.Do(req)
	if err != nil {
		p.cfg.Logf("fleet: push of epoch %d to %s failed: %v", epoch, base, err)
		return "error"
	}
	defer drainBody(resp)
	if resp.StatusCode >= 300 {
		p.cfg.Logf("fleet: push of epoch %d to %s: status %d", epoch, base, resp.StatusCode)
		return "error"
	}
	return ""
}

// Drain waits for in-flight pushes; call on shutdown.
func (p *Planner) Drain() { p.pushWG.Wait() }

// drainBody consumes and closes a response body so the connection
// returns to the keep-alive pool.
func drainBody(resp *http.Response) {
	if resp.Body != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
