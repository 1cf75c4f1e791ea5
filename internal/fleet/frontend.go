package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"slices"
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
	// Transport carries both forwarded requests and probes; nil means
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
	base string
	url  *url.URL

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

// maxBody bounds a request body the front end keeps for replay and a
// reply it reads before answering.
const maxBody = 64 << 20

// replyBuffer is a buffer a reply is read into, with the reader that
// bounds that read.
type replyBuffer struct {
	bytes.Buffer
	limit io.LimitedReader
}

// replyBuffers holds the buffers replies are read into, so a forwarded
// reply reuses one instead of growing a fresh one.
var replyBuffers = sync.Pool{New: func() any { return new(replyBuffer) }}

// maxPooledReply bounds the buffers replyBuffers keeps. One that grew
// past it on a large reply (a full plan, a long telemetry tail) is
// dropped, so realize traffic does not keep it alive.
const maxPooledReply = 64 << 10

// putReplyBuffer returns buf to replyBuffers unless it outgrew
// maxPooledReply.
func putReplyBuffer(buf *replyBuffer) {
	if buf.Cap() <= maxPooledReply {
		replyBuffers.Put(buf)
	}
}

// hopHeaders are the headers that belong to one connection (RFC 9110
// §7.6.1): they are forwarded in neither direction.
var hopHeaders = [...]string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// dropHopHeaders deletes the hop-by-hop headers from h.
func dropHopHeaders(h http.Header) {
	for _, k := range hopHeaders {
		h.Del(k)
	}
}

// endToEnd is h without its hop-by-hop headers: h itself when it
// carries none, a copy otherwise. A RoundTripper does not modify the
// request, so an outbound request may share the client's header.
func endToEnd(h http.Header) http.Header {
	for _, k := range hopHeaders {
		if _, ok := h[k]; ok {
			h = h.Clone()
			dropHopHeaders(h)
			return h
		}
	}
	return h
}

// Frontend is the stateless fleet entry point: a forwarder that
// spreads read traffic (realize/validate/optimal) across serving
// replicas. An active probe loop tracks which backends are alive,
// degraded, and at which epoch; routing prefers fresh healthy
// backends, falls back to healthy-but-stale ones (availability beats
// strict freshness during plan propagation), and ejects dead ones
// within one probe interval. Every reply is one bounded JSON value, so
// each is read whole before the client sees a byte of it: an
// idempotent request whose reply does not arrive complete fails over
// to the next backend.
type Frontend struct {
	cfg      FrontendConfig
	backends []*backend
	rr       atomic.Uint64 // round-robin cursor within a tier

	probeClient *http.Client

	retries atomic.Int64 // failover re-dispatches performed
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
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	f := &Frontend{
		cfg:         cfg,
		probeClient: &http.Client{Transport: cfg.Transport, Timeout: cfg.ProbeTimeout},
	}
	for _, base := range cfg.Backends {
		u, err := url.Parse(base)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("fleet: bad backend URL %q", base)
		}
		f.backends = append(f.backends, &backend{base: base, url: u})
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
		// A round cancelled by shutdown says nothing about the backend.
		if ctx.Err() == nil && b.alive.CompareAndSwap(true, false) {
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

// pick appends to out the candidate backends for one request, in
// order: fresh healthy backends first (newest epoch among the healthy),
// then stale healthy ones, then degraded-but-alive as a last resort.
// Within each tier the round-robin cursor spreads load. Each backend's
// state is read once, so it lands in one tier.
func (f *Frontend) pick(out []*backend) []*backend {
	var newest uint64
	for _, b := range f.backends {
		if b.alive.Load() && !b.degraded.Load() {
			if e := b.epoch.Load(); e > newest {
				newest = e
			}
		}
	}
	// ends[t] is one past the last backend of tier t in out.
	var ends [3]int
	for _, b := range f.backends {
		var tier int
		switch {
		case !b.alive.Load():
			continue
		case b.degraded.Load():
			tier = 2
		case b.epoch.Load() == newest:
			tier = 0
		default:
			tier = 1
		}
		out = slices.Insert(out, ends[tier], b)
		for t := tier; t < len(ends); t++ {
			ends[t]++
		}
	}
	offset := f.rr.Add(1)
	start := 0
	for _, end := range ends {
		// Rotate the tier left by offset: three reversals, in place.
		if tier := out[start:end]; len(tier) > 1 {
			k := int(offset % uint64(len(tier)))
			slices.Reverse(tier[:k])
			slices.Reverse(tier[k:])
			slices.Reverse(tier)
		}
		start = end
	}
	return out
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

// ServeHTTP implements http.Handler: /healthz reports the front end's
// own routing view; everything else is forwarded across the backend
// tiers with failover.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" && (r.Method == http.MethodGet || r.Method == http.MethodHead) {
		f.handleHealth(w)
		return
	}
	var routable [8]*backend
	candidates := f.pick(routable[:0])
	if len(candidates) == 0 {
		f.failover("no_backend", "")
		writeError(w, http.StatusServiceUnavailable, ErrNoBackend.Error())
		return
	}
	// Buffer the body once so a failed attempt can be replayed
	// byte-identically against the next backend. A request without one
	// (every realize) replays as it came: the copy keeps http.NoBody.
	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading request body")
			return
		}
	}
	header := endToEnd(r.Header)
	buf := replyBuffers.Get().(*replyBuffer)
	defer putReplyBuffer(buf)
	canRetry := retryable(r)
	for i, b := range candidates {
		resp, err := f.forward(b, r, header, body, buf)
		if err == nil {
			maps.Copy(w.Header(), resp.Header)
			w.WriteHeader(resp.StatusCode)
			w.Write(buf.Bytes())
			return
		}
		if r.Context().Err() != nil {
			// The client hung up: the failure is its own, not the
			// backend's, and nobody is left to answer.
			return
		}
		// The backend's reply did not arrive complete. Eject it
		// immediately — the next probe round re-admits it if it
		// recovered — and fail over when the request allows it.
		b.alive.Store(false)
		f.failover("eject", b.base)
		f.cfg.Logf("fleet: frontend attempt %d to %s failed: %v", i+1, b.base, err)
		if !canRetry || i == len(candidates)-1 {
			break
		}
		f.retries.Add(1)
		f.failover("retry", b.base)
	}
	writeError(w, http.StatusBadGateway, "all backends failed")
}

// outbound is one attempt's request and the URL it is sent to, in one
// allocation.
type outbound struct {
	req http.Request
	url url.URL
}

// forward sends one attempt of r, with header (r's end-to-end headers),
// to b's scheme and host and reads the whole reply, whatever its
// status, into buf. The attempt is a shallow copy of r: the transport
// reads the request and does not modify it, so only what differs is
// replaced. The returned response carries the status and the
// end-to-end headers; its body is spent. An error means no complete
// reply came back.
func (f *Frontend) forward(b *backend, r *http.Request, header http.Header, body []byte, buf *replyBuffer) (*http.Response, error) {
	out := &outbound{req: *r, url: *r.URL}
	out.url.Scheme, out.url.Host = b.url.Scheme, b.url.Host
	out.req.URL, out.req.Host, out.req.Header = &out.url, b.url.Host, header
	out.req.RequestURI, out.req.Close = "", false
	if body != nil {
		out.req.Body = io.NopCloser(bytes.NewReader(body))
		out.req.ContentLength = int64(len(body))
	}
	resp, err := f.cfg.Transport.RoundTrip(&out.req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	buf.limit = io.LimitedReader{R: resp.Body, N: maxBody + 1}
	_, err = buf.ReadFrom(&buf.limit)
	buf.limit.R = nil
	if err != nil {
		return nil, err
	}
	if buf.Len() > maxBody {
		return nil, fmt.Errorf("fleet: reply from %s exceeds %d bytes", b.base, maxBody)
	}
	dropHopHeaders(resp.Header)
	return resp, nil
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
