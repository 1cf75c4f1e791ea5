package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pcf/internal/serve"
	"pcf/internal/telemetry"
)

// FrontendConfig parameterizes a Frontend.
type FrontendConfig struct {
	// Backends are replica base URLs (scheme://host:port).
	Backends []string
	// ProbeInterval is the active /healthz probe cadence (0 = 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe (0 = ProbeInterval, capped at 2s).
	ProbeTimeout time.Duration
	// Transport carries both proxied requests and probes; nil means
	// http.DefaultTransport. Chaos tests inject faults here.
	Transport http.RoundTripper
	// Telemetry receives a failover record per routing decision that
	// departs from the happy path: a backend ejected, a request retried
	// on the next backend, or a request refused for lack of any
	// routable backend. Nil discards them — the front end is stateless
	// and has no store of its own.
	Telemetry telemetry.Emitter
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// backend is the front end's view of one replica.
type backend struct {
	base  string
	url   *url.URL
	proxy *httputil.ReverseProxy

	alive    atomic.Bool
	degraded atomic.Bool
	epoch    atomic.Uint64
}

// BackendStatus is a probe-loop snapshot of one backend, as reported
// on the front end's own /healthz.
type BackendStatus struct {
	URL      string `json:"url"`
	Alive    bool   `json:"alive"`
	Degraded bool   `json:"degraded"`
	Epoch    uint64 `json:"epoch"`
}

// copyBuffers is the httputil.BufferPool every backend's proxy copies
// response bodies through, so a proxied response reuses a buffer
// instead of allocating a fresh 32 KB one.
type copyBuffers struct{ pool sync.Pool }

func (p *copyBuffers) Get() []byte {
	if buf, ok := p.pool.Get().(*[]byte); ok {
		return *buf
	}
	return make([]byte, 32<<10)
}

func (p *copyBuffers) Put(buf []byte) { p.pool.Put(&buf) }

// proxyErrKey carries a per-attempt error slot through the request
// context so the shared ErrorHandler can report transport failures
// back to the attempt loop without touching the ResponseWriter.
type proxyErrKey struct{}

// Frontend is the stateless fleet entry point: a reverse proxy that
// spreads read traffic (realize/validate/optimal) across serving
// replicas. An active probe loop tracks which backends are alive,
// degraded, and at which epoch; routing prefers fresh healthy
// backends, falls back to healthy-but-stale ones (availability beats
// strict freshness during plan propagation), and ejects dead ones
// within one probe interval. Idempotent requests that fail before any
// response byte is written fail over to the next backend.
type Frontend struct {
	cfg      FrontendConfig
	backends []*backend
	rr       atomic.Uint64 // round-robin cursor within a tier

	probeClient *http.Client

	retries  atomic.Int64 // failover re-dispatches performed
	noRoutes atomic.Int64 // requests refused with ErrNoBackend
}

// NewFrontend builds a front end over the given replica URLs. All
// backends start unprobed (not alive); call Run or ProbeOnce before
// serving traffic.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fleet: frontend needs at least one backend")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = min(cfg.ProbeInterval, 2*time.Second)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.Discard
	}
	f := &Frontend{
		cfg:         cfg,
		probeClient: &http.Client{Transport: cfg.Transport, Timeout: cfg.ProbeTimeout},
	}
	buffers := &copyBuffers{}
	for _, base := range cfg.Backends {
		u, err := url.Parse(base)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("fleet: bad backend URL %q", base)
		}
		b := &backend{base: base, url: u}
		b.proxy = &httputil.ReverseProxy{
			Rewrite: func(pr *httputil.ProxyRequest) {
				pr.SetURL(u)
				pr.Out.Host = u.Host
			},
			Transport:  cfg.Transport,
			BufferPool: buffers,
			ErrorLog:   log.New(io.Discard, "", 0),
			ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
				if slot, ok := r.Context().Value(proxyErrKey{}).(*error); ok {
					*slot = err
					return
				}
				w.WriteHeader(http.StatusBadGateway)
			},
		}
		f.backends = append(f.backends, b)
	}
	return f, nil
}

// failover emits one routing-departure record: outcome is "eject",
// "retry" or "no_backend"; name is the backend involved (empty for
// no_backend — there was none).
func (f *Frontend) failover(outcome, backend string) {
	f.cfg.Telemetry.Emit(telemetry.Record{
		Kind:    telemetry.KindFailover,
		Source:  "frontend",
		Name:    backend,
		Outcome: outcome,
	})
}

// Run drives the probe loop until ctx ends.
func (f *Frontend) Run(ctx context.Context) {
	ticker := time.NewTicker(f.cfg.ProbeInterval)
	defer ticker.Stop()
	f.ProbeOnce(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			f.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce probes every backend concurrently and waits for the round
// to finish; tests call it directly for deterministic state. Rounds
// are self-contained, so a test-driven round may overlap the Run
// loop's without coordination.
func (f *Frontend) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range f.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			f.probe(ctx, b)
		}(b)
	}
	wg.Wait()
}

// probe marks the backend from one /healthz exchange. Any parseable
// response — including a 503 — counts as alive; degraded tracks the
// report's status field. No response at all means dead.
func (f *Frontend) probe(ctx context.Context, b *backend) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		b.alive.Store(false)
		return
	}
	resp, err := f.probeClient.Do(req)
	if err != nil {
		if b.alive.CompareAndSwap(true, false) {
			f.cfg.Logf("fleet: frontend ejecting %s: %v", b.base, err)
			f.failover("eject", b.base)
		}
		return
	}
	defer drainBody(resp)
	var health serve.Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&health); err != nil {
		// Responding but unintelligible: treat as degraded-alive so it
		// remains a last-resort target rather than flapping dead.
		b.alive.Store(true)
		b.degraded.Store(true)
		return
	}
	b.alive.Store(true)
	b.degraded.Store(health.Status != "ok")
	b.epoch.Store(health.Epoch)
}

// Backends snapshots the probe state, sorted by URL.
func (f *Frontend) Backends() []BackendStatus {
	out := make([]BackendStatus, 0, len(f.backends))
	for _, b := range f.backends {
		out = append(out, BackendStatus{
			URL: b.base, Alive: b.alive.Load(), Degraded: b.degraded.Load(), Epoch: b.epoch.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// pick orders candidate backends for one request: fresh healthy
// backends first (newest epoch among the healthy), then stale healthy
// ones, then degraded-but-alive as a last resort. Within each tier the
// round-robin cursor spreads load.
func (f *Frontend) pick() []*backend {
	var fresh, stale, lastResort []*backend
	var newest uint64
	for _, b := range f.backends {
		if b.alive.Load() && !b.degraded.Load() {
			if e := b.epoch.Load(); e > newest {
				newest = e
			}
		}
	}
	for _, b := range f.backends {
		switch {
		case !b.alive.Load():
		case b.degraded.Load():
			lastResort = append(lastResort, b)
		case b.epoch.Load() == newest:
			fresh = append(fresh, b)
		default:
			stale = append(stale, b)
		}
	}
	offset := int(f.rr.Add(1))
	rotate := func(tier []*backend) []*backend {
		if len(tier) > 1 {
			k := offset % len(tier)
			tier = append(tier[k:], tier[:k]...)
		}
		return tier
	}
	out := rotate(fresh)
	out = append(out, rotate(stale)...)
	return append(out, rotate(lastResort)...)
}

// retryable reports whether a failed dispatch of this request may be
// re-sent to another backend. Reads always; the pure-computation POST
// endpoints (realize/validate/optimal evaluate a published plan, they
// mutate nothing) also; anything else — solve above all — never.
func retryable(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		return true
	case http.MethodPost:
		switch r.URL.Path {
		case "/v1/realize", "/v1/validate", "/v1/optimal":
			return true
		}
	}
	return false
}

// writeRecorder tracks whether any response byte or header reached
// the client — the line past which failover is impossible.
type writeRecorder struct {
	http.ResponseWriter
	wroteHeader bool
}

func (w *writeRecorder) WriteHeader(code int) {
	w.wroteHeader = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(p)
}

// Flush keeps the proxy's streaming path working through the wrapper.
func (w *writeRecorder) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// ServeHTTP implements http.Handler: /healthz reports the front end's
// own routing view; everything else is dispatched across the backend
// tiers with failover.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" && (r.Method == http.MethodGet || r.Method == http.MethodHead) {
		f.handleHealth(w)
		return
	}
	candidates := f.pick()
	if len(candidates) == 0 {
		f.noRoutes.Add(1)
		f.failover("no_backend", "")
		writeError(w, http.StatusServiceUnavailable, ErrNoBackend.Error())
		return
	}
	// Buffer the body once so a failed attempt can be replayed
	// byte-identically against the next backend. A request without one
	// (every realize) replays as it came: the clone keeps http.NoBody.
	var body []byte
	hasBody := r.Body != nil && r.Body != http.NoBody
	if hasBody {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading request body")
			return
		}
	}
	rec := &writeRecorder{ResponseWriter: w}
	canRetry := retryable(r)
	for i, b := range candidates {
		var attemptErr error
		ctx := context.WithValue(r.Context(), proxyErrKey{}, &attemptErr)
		req := r.Clone(ctx)
		if hasBody {
			req.Body = io.NopCloser(bytes.NewReader(body))
			req.ContentLength = int64(len(body))
		}
		f.dispatch(b, rec, req, &attemptErr)
		if attemptErr == nil {
			return
		}
		// The backend failed without a byte reaching the client. Eject
		// it immediately — the next probe round re-admits it if it
		// recovered — and fail over when the request allows it.
		b.alive.Store(false)
		f.failover("eject", b.base)
		f.cfg.Logf("fleet: frontend attempt %d to %s failed: %v", i+1, b.base, attemptErr)
		if rec.wroteHeader || !canRetry || i == len(candidates)-1 {
			break
		}
		f.retries.Add(1)
		f.failover("retry", b.base)
	}
	if !rec.wroteHeader {
		writeError(w, http.StatusBadGateway, "all backends failed")
	}
}

// dispatch runs one proxy attempt, converting a mid-body abort (the
// proxy panics with ErrAbortHandler when the backend dies while
// streaming) into an attempt error when no byte was written yet.
func (f *Frontend) dispatch(b *backend, rec *writeRecorder, req *http.Request, attemptErr *error) {
	defer func() {
		if p := recover(); p != nil {
			if p == http.ErrAbortHandler && !rec.wroteHeader {
				*attemptErr = fmt.Errorf("fleet: backend %s aborted before responding", b.base)
				return
			}
			//lint:ignore pcflint/nopanic re-raising a foreign panic (or a mid-stream abort) from a recover is the only correct move
			panic(p)
		}
	}()
	b.proxy.ServeHTTP(rec, req)
}

// handleHealth reports the front end's routing view: ok while at
// least one backend is routable, degraded (503) otherwise.
func (f *Frontend) handleHealth(w http.ResponseWriter) {
	backends := f.Backends()
	routable := 0
	for _, b := range backends {
		if b.Alive {
			routable++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if routable == 0 {
		status = "degraded"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{
		"status":   status,
		"routable": routable,
		"backends": backends,
		"retries":  f.retries.Load(),
	})
}
