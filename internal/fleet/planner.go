package fleet

import (
	"bytes"
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

// heartbeat is the replica→planner lease request body.
type heartbeat struct {
	Replica string `json:"replica"`
	// URL, when non-empty, advertises where the planner can push fresh
	// envelopes (the replica's base URL).
	URL string `json:"url,omitempty"`
	// Epoch is the epoch the replica currently serves.
	Epoch uint64 `json:"epoch"`
}

// PlannerConfig parameterizes a Planner.
type PlannerConfig struct {
	// LeaseTTL is the lease lifetime granted to heartbeating replicas
	// (0 = default).
	LeaseTTL time.Duration
	// PushClient performs envelope pushes to advertised replica URLs;
	// nil builds a client with PushTimeout. Pushes are an optimization
	// — replicas converge by pulling even if every push is lost.
	PushClient *http.Client
	// PushTimeout bounds each push request (0 = 5s).
	PushTimeout time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Planner wraps a serve.Server with the fleet control plane: it
// publishes epoch-stamped envelopes of every validated plan over
// /v1/fleet/plan, grants monotone leases over /v1/fleet/lease, and
// best-effort pushes fresh envelopes to replicas that advertised a
// URL. Plans still enter the world only through the server's
// validating registry — the planner adds distribution, not a second
// publication path.
type Planner struct {
	srv         *serve.Server
	granter     *Granter
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
		granter:     NewGranter(cfg.LeaseTTL),
		cfg:         cfg,
		fingerprint: serve.Fingerprint(srv.Instance()),
	}
	srv.Registry().OnPublish = p.onPublish
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("GET "+PlanPath, p.handlePlanFetch)
	p.mux.HandleFunc("POST "+LeasePath, p.handleLease)
	p.mux.HandleFunc("GET "+StatusPath, p.handleStatus)
	p.mux.Handle("/", srv)
	return p
}

// Granter exposes the lease authority (tests and /v1/fleet/status).
func (p *Planner) Granter() *Granter { return p.granter }

// emit stamps a record as the planner's and hands it to the core's
// sink, so grants and pushes are queryable next to solve/publish
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
func (p *Planner) handlePlanFetch(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("after")
	after, perr := strconv.ParseUint(raw, 10, 64)
	if raw != "" && perr != nil {
		writeError(w, http.StatusBadRequest, "bad after "+strconv.Quote(raw)+" (want an epoch)")
		return
	}
	pub, err := p.srv.Registry().Current()
	if err != nil {
		writeError(w, http.StatusNotFound, "no plan published")
		return
	}
	if raw != "" && pub.Epoch <= after {
		w.Header().Set("X-PCF-Epoch", strconv.FormatUint(pub.Epoch, 10))
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
	w.Header().Set("X-PCF-Epoch", strconv.FormatUint(pub.Epoch, 10))
	w.Write(data)
}

// handleLease grants the next monotone lease to a heartbeating
// replica.
func (p *Planner) handleLease(w http.ResponseWriter, r *http.Request) {
	var hb heartbeat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&hb); err != nil || hb.Replica == "" {
		writeError(w, http.StatusBadRequest, "bad heartbeat")
		return
	}
	lease := p.granter.Grant(hb.Replica, hb.URL, hb.Epoch, p.srv.Registry().Epoch())
	p.emit(telemetry.Record{
		Kind:  telemetry.KindLease,
		Name:  hb.Replica,
		Epoch: lease.Epoch,
		Fields: map[string]float64{
			"term":          float64(lease.Term),
			"replica_epoch": float64(hb.Epoch),
		},
	})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(lease)
}

// handleStatus reports the planner's fleet view.
func (p *Planner) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"newest_epoch": p.srv.Registry().Epoch(),
		"lease_ttl_ms": p.granter.TTL().Milliseconds(),
		"replicas":     p.granter.Replicas(),
		"push_ok":      p.pushOK.Load(),
		"push_failed":  p.pushFailed.Load(),
	})
}

// onPublish runs (under the registry's publication lock) after every
// swap; it kicks the actual pushing onto a goroutine so publication
// latency never waits on replica sockets.
func (p *Planner) onPublish(pub *serve.Published) {
	targets := p.granter.PushTargets(2 * p.granter.TTL())
	if len(targets) == 0 {
		return
	}
	data, err := p.envelopeFor(pub)
	if err != nil {
		p.cfg.Logf("fleet: push skipped, envelope encoding failed: %v", err)
		return
	}
	p.pushWG.Add(1)
	go func() {
		defer p.pushWG.Done()
		p.pushEnvelope(pub.Epoch, data, targets)
	}()
}

// pushEnvelope offers the envelope to each target once. Failures are
// logged and counted, never retried here: the replica's pull loop is
// the delivery guarantee, push is latency icing.
func (p *Planner) pushEnvelope(epoch uint64, data []byte, targets []string) {
	for _, base := range targets {
		start := time.Now()
		outcome := p.pushOne(epoch, data, base)
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

// pushOne offers the envelope to a single target; the returned outcome
// is empty on success (including 409 convergence) and "error"
// otherwise.
func (p *Planner) pushOne(epoch uint64, data []byte, base string) string {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.PushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+PlanPath, bytes.NewReader(data))
	if err != nil {
		return "error"
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.cfg.PushClient.Do(req)
	if err != nil {
		p.cfg.Logf("fleet: push of epoch %d to %s failed: %v", epoch, base, err)
		return "error"
	}
	defer drainBody(resp)
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusConflict {
		// 409 means the replica already moved past this epoch —
		// that is convergence, not failure.
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
