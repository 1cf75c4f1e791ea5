package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/mcf"
	"pcf/internal/routing"
	"pcf/internal/telemetry"
	"pcf/internal/topology"
)

// Schemes the daemon can solve on demand. "best" runs the SolveBest
// degradation ladder (under the breaker's current skip level); the
// fixed schemes solve exactly one formulation and fail rather than
// degrade.
const (
	SchemeBest = "best"
)

// fixedSchemes maps a request's scheme name to its solver. PCF-LS is
// deliberately absent: it requires a conditional-free instance, which
// the ladder derives internally (core.SolveBestFrom rung 1 covers it).
var fixedSchemes = map[string]func(*core.Instance, core.SolveOptions) (*core.Plan, error){
	"PCF-CLS": core.SolvePCFCLS,
	"PCF-TF":  core.SolvePCFTF,
	"FFC":     core.SolveFFC,
}

// Server is the pcfd serving core: admission gate, breaker bank, plan
// registry, and HTTP surface. It implements http.Handler; cmd/pcfd
// mounts it on an http.Server.
type Server struct {
	cfg  Config
	inst *core.Instance
	reg  *Registry
	adm  *Admission

	breakerMu sync.Mutex
	breakers  map[string]*Breaker

	// baseCtx is canceled when the drain deadline expires, hard-
	// canceling every in-flight request context.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	mux *http.ServeMux

	// tel is the telemetry store (memory-only without a TelemetryDir),
	// emit the fan-out every producer writes to: the store plus the
	// configured extra sink.
	tel  *telemetry.Store
	emit telemetry.Emitter

	checksMu sync.RWMutex
	checks   map[string]func() HealthCheck
}

// NewServer builds a server from the config. The instance must already
// carry whatever logical sequences the configured schemes need (cmd/
// pcfd runs core.BuildCLSQuick during preparation).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Instance == nil {
		return nil, errors.New("serve: Config.Instance is required")
	}
	if err := cfg.Instance.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid instance: %w", err)
	}
	var store *Store
	if cfg.StateDir != "" {
		var err error
		store, err = NewStore(cfg.StateDir, cfg.Instance)
		if err != nil {
			return nil, err
		}
		if cfg.RetainCheckpoints > 0 {
			store.SetRetention(cfg.RetainCheckpoints)
		}
	}
	tel, err := telemetry.Open(cfg.TelemetryDir, telemetry.StoreConfig{
		RetainSegments: cfg.RetainTelemetry,
		Logf:           cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: opening telemetry store: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		inst:     cfg.Instance,
		reg:      NewRegistry(store, cfg.Logf),
		adm:      NewAdmission(cfg.MaxConcurrentSolves, cfg.MaxConcurrentRealizes, cfg.QueueDepth),
		breakers: map[string]*Breaker{},
		tel:      tel,
	}
	s.emit = telemetry.Multi(tel, cfg.Telemetry)
	s.reg.Telemetry = telemetry.EmitterFunc(func(r telemetry.Record) {
		r.Source = cfg.Source
		s.emit.Emit(r)
	})
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.initMux()
	return s, nil
}

// Telemetry exposes the server's record store: the query/tail HTTP
// surface reads it, and embedders (fleet nodes, tests) may emit their
// own records into the same stream via Emitter.
func (s *Server) Telemetry() *telemetry.Store { return s.tel }

// Emitter is the server's record sink: the store and any configured
// extra sink, behind one fan-out. Records emitted
// here get the server's source stamp if they carry none.
func (s *Server) Emitter() telemetry.Emitter {
	return telemetry.EmitterFunc(func(r telemetry.Record) {
		if r.Source == "" {
			r.Source = s.cfg.Source
		}
		s.emit.Emit(r)
	})
}

// Close releases the server's telemetry store, sealing the active
// segment. Call after Shutdown; requests racing Close lose only their
// telemetry records, never their responses.
func (s *Server) Close() error { return s.tel.Close() }

// breaker returns (creating on first use) the scheme's breaker. The
// ladder scheme may skip down to the last rung; a fixed scheme is
// either closed or open.
func (s *Server) breaker(scheme string) *Breaker {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	b := s.breakers[scheme]
	if b == nil {
		maxLevel := 1
		if scheme == SchemeBest {
			maxLevel = len(core.BestRungs) - 1
		}
		b = NewBreaker(s.cfg.BreakerThreshold, maxLevel, s.cfg.BreakerCooldown)
		s.breakers[scheme] = b
	}
	return b
}

// Recover loads and republishes the newest valid checkpoint. Call once
// at startup, before serving. ErrNoSnapshot (also returned when no
// state dir is configured) means "start empty", not failure.
func (s *Server) Recover(ctx context.Context) (*Published, error) {
	return s.reg.Recover(ctx, s.inst)
}

// Registry exposes the plan registry (read-mostly; tests and cmd/pcfd
// use it to inspect or seed epochs).
func (s *Server) Registry() *Registry { return s.reg }

// Instance exposes the prepared problem instance. The fleet replica
// needs it to decode wire envelopes against the same topology the
// planner solved for.
func (s *Server) Instance() *core.Instance { return s.inst }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// enter registers an in-flight request; it fails once draining has
// begun. The returned func must be called when the request finishes.
func (s *Server) enter() (func(), error) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.inflight.Add(1)
	return func() { s.inflight.Done() }, nil
}

// Shutdown drains the server: new requests are rejected with
// ErrDraining immediately, in-flight requests get DrainTimeout to
// finish, then their contexts are hard-canceled. Returns ctx.Err() if
// the caller's context expires before the drain completes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		return ctx.Err()
	case <-timer.C:
		// Drain deadline: hard-cancel whatever is still running and
		// wait for the handlers to unwind.
		s.cfg.Logf("serve: drain deadline expired, canceling in-flight requests")
		s.baseCancel()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// requestContext derives the handler context: the client's context
// bounded by the (clamped) request timeout, and additionally canceled
// when the server hard-cancels in-flight work at the drain deadline.
func (s *Server) requestContext(r *http.Request, def time.Duration) (context.Context, context.CancelFunc) {
	d := def
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		if parsed, err := time.ParseDuration(raw); err == nil && parsed > 0 {
			d = parsed
		}
	}
	if d > s.cfg.MaxRequestTimeout {
		d = s.cfg.MaxRequestTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// ---- HTTP surface ----

func (s *Server) initMux() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/realize", s.handleRealize)
	s.mux.HandleFunc("GET /v1/validate", s.handleValidate)
	s.mux.HandleFunc("POST /v1/optimal", s.handleOptimal)
	s.mux.HandleFunc("GET /v1/telemetry/query", s.handleTelemetryQuery)
	s.mux.HandleFunc("GET /v1/telemetry/tail", s.handleTelemetryTail)
}

// track accumulates one request's telemetry record while its handler
// runs and emits it when the handler returns. The record's Epoch is
// only ever set from the *Published the handler actually used, so a
// request record can never name an epoch newer than the plan that
// served it.
type track struct {
	s     *Server
	start time.Time
	rec   telemetry.Record
}

func (s *Server) track(endpoint string) *track {
	return &track{
		s:     s,
		start: time.Now(),
		rec: telemetry.Record{
			Kind:   telemetry.KindRequest,
			Source: s.cfg.Source,
			Name:   endpoint,
		},
	}
}

// served stamps the record with the plan that is answering the request.
func (t *track) served(pub *Published) {
	t.rec.Epoch = pub.Epoch
	t.rec.Scheme = pub.Scheme
}

func (t *track) field(name string, v float64) {
	if t.rec.Fields == nil {
		t.rec.Fields = map[string]float64{}
	}
	t.rec.Fields[name] = v
}

// done emits the record. ctx, when non-nil, contributes the remaining
// deadline slack so queries can watch how close requests run to their
// budgets.
func (t *track) done(ctx context.Context) {
	t.rec.Dur = time.Since(t.start)
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			t.field("deadline_slack_ms", float64(time.Until(dl))/float64(time.Millisecond))
		}
	}
	t.s.emit.Emit(t.rec)
}

// outcomeOf classifies a handler failure for the record stream: load
// deliberately refused is "shed", everything else "error".
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOverloaded),
		errors.Is(err, ErrDraining),
		errors.Is(err, ErrBreakerOpen):
		return "shed"
	default:
		return "error"
	}
}

// writeError maps typed serving and solver failures onto HTTP
// statuses and stamps the request record's outcome. Overload-shaped
// failures carry a Retry-After hint.
func (s *Server) writeError(tr *track, w http.ResponseWriter, class Class, err error) {
	tr.rec.Outcome = outcomeOf(err)
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrOverloaded):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.RetryAfterSeconds(class)))
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.DrainTimeout/time.Second)+1))
	case errors.Is(err, ErrBreakerOpen):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.BreakerCooldown/time.Second)+1))
	case errors.Is(err, ErrNoPlan):
		status = http.StatusNotFound
	case errors.Is(err, ErrValidation),
		errors.Is(err, lp.ErrInfeasible),
		errors.Is(err, lp.ErrUnbounded):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, map[string]any{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The response is already committed; an encode/write failure here
	// only means the client went away.
	_ = enc.Encode(v)
}

// HealthCheck is one named component's contribution to the readiness
// report: a verdict plus a human/JSON-readable detail blob.
type HealthCheck struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Health is the /healthz readiness report. It is a decision surface,
// not just liveness: the fleet front end and external load balancers
// read Status, Epoch and the per-component checks to decide whether a
// node should keep receiving traffic, and the handler answers 503
// whenever Status is "degraded".
type Health struct {
	Status   string `json:"status"` // "ok" or "degraded"
	Draining bool   `json:"draining"`
	Epoch    uint64 `json:"epoch"`
	HasPlan  bool   `json:"has_plan"`
	// Breakers maps scheme → current ladder-skip level (only schemes
	// that have been requested at least once appear).
	Breakers map[string]int `json:"breakers,omitempty"`
	// CheckpointWritable reports whether the state dir still accepts
	// writes; absent when persistence is off.
	CheckpointWritable *bool `json:"checkpoint_dir_writable,omitempty"`
	// TelemetryWritable reports whether the telemetry store dir still
	// accepts writes; absent when the store is memory-only.
	TelemetryWritable *bool `json:"telemetry_dir_writable,omitempty"`
	// Checks carries registered component probes (e.g. the fleet
	// replica's lease freshness).
	Checks map[string]HealthCheck `json:"checks,omitempty"`
	// The admission gate's live gauges and the telemetry store's own
	// counters: the state no record carries. Reported, never degrading.
	AdmissionShed          int64                `json:"admission_shed"`
	AdmissionQueuedSolve   int64                `json:"admission_queued_solve"`
	AdmissionQueuedRealize int64                `json:"admission_queued_realize"`
	Telemetry              telemetry.StoreStats `json:"telemetry"`
	// DegradedReasons explains a "degraded" status, one entry per
	// failing condition.
	DegradedReasons []string `json:"degraded_reasons,omitempty"`
}

// AddHealthCheck registers a named readiness probe evaluated on every
// /healthz request. A probe reporting !OK degrades the node (503).
// Register checks during setup, before the server starts handling
// traffic.
func (s *Server) AddHealthCheck(name string, fn func() HealthCheck) {
	s.checksMu.Lock()
	defer s.checksMu.Unlock()
	if s.checks == nil {
		s.checks = map[string]func() HealthCheck{}
	}
	s.checks[name] = fn
}

// Health evaluates the readiness report. Degradation conditions:
// draining, no published plan, an unwritable checkpoint or telemetry
// dir, or any registered check reporting !OK. Breaker levels are reported but do
// not degrade — a node with a stepped-down solve ladder still serves
// realize traffic at full fidelity.
func (s *Server) Health() Health {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()

	h := Health{
		Draining: draining,
		Epoch:    s.reg.Epoch(),
		Breakers: map[string]int{},

		AdmissionShed:          s.adm.Shed(),
		AdmissionQueuedSolve:   s.adm.Queued(ClassSolve),
		AdmissionQueuedRealize: s.adm.Queued(ClassRealize),
		Telemetry:              s.tel.Stats(),
	}
	_, curErr := s.reg.Current()
	h.HasPlan = curErr == nil

	s.breakerMu.Lock()
	for scheme, b := range s.breakers {
		h.Breakers[scheme] = b.Level()
	}
	s.breakerMu.Unlock()

	if store := s.reg.Store(); store != nil {
		writable := store.Writable() == nil
		h.CheckpointWritable = &writable
		if !writable {
			h.DegradedReasons = append(h.DegradedReasons, "checkpoint dir not writable")
		}
	}
	if s.tel.Persistent() {
		writable := s.tel.Writable() == nil
		h.TelemetryWritable = &writable
		if !writable {
			h.DegradedReasons = append(h.DegradedReasons, "telemetry store not writable")
		}
	}

	s.checksMu.RLock()
	for name, fn := range s.checks {
		c := fn()
		if h.Checks == nil {
			h.Checks = map[string]HealthCheck{}
		}
		h.Checks[name] = c
		if !c.OK {
			h.DegradedReasons = append(h.DegradedReasons, "check "+name+" failed")
		}
	}
	s.checksMu.RUnlock()

	if draining {
		h.DegradedReasons = append(h.DegradedReasons, "draining")
	}
	if !h.HasPlan {
		h.DegradedReasons = append(h.DegradedReasons, "no plan published")
	}
	sort.Strings(h.DegradedReasons)
	if len(h.DegradedReasons) > 0 {
		h.Status = "degraded"
	} else {
		h.Status = "ok"
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	tr := s.track("healthz")
	defer tr.done(nil)
	h := s.Health()
	tr.rec.Epoch = h.Epoch
	if h.Status != "ok" {
		tr.rec.Outcome = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-PCF-Epoch", strconv.FormatUint(h.Epoch, 10))
	if h.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, h)
}

// planInfo is the metadata block shared by plan and solve responses.
type planInfo struct {
	Epoch       uint64    `json:"epoch"`
	Scheme      string    `json:"scheme"`
	Value       float64   `json:"value"`
	Degraded    []string  `json:"degraded,omitempty"`
	PublishedAt time.Time `json:"published_at"`
	Scenarios   int       `json:"validated_scenarios"`
}

func infoOf(p *Published) planInfo {
	return planInfo{
		Epoch:       p.Epoch,
		Scheme:      p.Scheme,
		Value:       p.Value,
		Degraded:    p.Degraded,
		PublishedAt: p.PublishedAt,
		Scenarios:   p.Validated.Scenarios,
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	tr := s.track("plan")
	defer tr.done(nil)
	done, err := s.enter()
	if err != nil {
		s.writeError(tr, w, ClassRealize, err)
		return
	}
	defer done()
	pub, err := s.reg.Current()
	if err != nil {
		s.writeError(tr, w, ClassRealize, err)
		return
	}
	tr.served(pub)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-PCF-Epoch", strconv.FormatUint(pub.Epoch, 10))
	if r.URL.Query().Get("full") == "1" {
		if err := pub.Plan.WriteJSON(w); err != nil {
			s.cfg.Logf("serve: streaming plan: %v", err)
		}
		return
	}
	// Sweep is the serving engine's live statistics: what it has
	// answered since publication, which no record carries.
	writeJSON(w, struct {
		planInfo
		Sweep map[string]float64 `json:"sweep"`
	}{infoOf(pub), pub.Sweep.Stats().Metrics()})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	tr := s.track("solve")
	done, err := s.enter()
	if err != nil {
		s.writeError(tr, w, ClassSolve, err)
		tr.done(nil)
		return
	}
	defer done()
	ctx, cancel := s.requestContext(r, s.cfg.DefaultSolveTimeout)
	defer cancel()
	defer tr.done(ctx)

	scheme := r.URL.Query().Get("scheme")
	if scheme == "" {
		scheme = SchemeBest
	}
	tr.rec.Scheme = scheme
	fixed, isFixed := fixedSchemes[scheme]
	if !isFixed && scheme != SchemeBest {
		tr.rec.Outcome = "error"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		writeJSON(w, map[string]any{"error": fmt.Sprintf("serve: unknown scheme %q", scheme)})
		return
	}

	release, err := s.adm.Acquire(ctx, ClassSolve)
	if err != nil {
		s.writeError(tr, w, ClassSolve, err)
		return
	}
	defer release()

	br := s.breaker(scheme)
	level := br.Level()
	tr.rec.Rung = level
	opts := core.SolveOptions{Context: ctx}
	opts.LP.FaultHook = s.cfg.LPFaultHook

	solveStart := time.Now()
	var plan *core.Plan
	if isFixed {
		if level > 0 {
			s.writeError(tr, w, ClassSolve, fmt.Errorf("%w: %s", ErrBreakerOpen, scheme))
			return
		}
		plan, err = fixed(s.inst, opts)
	} else {
		plan, err = core.SolveBestFrom(s.inst, opts, level)
	}
	br.Record(err)
	if after := br.Level(); after != level {
		s.emit.Emit(telemetry.Record{
			Kind:   telemetry.KindBreaker,
			Source: s.cfg.Source,
			Scheme: scheme,
			Rung:   after,
			Fields: map[string]float64{"level": float64(after), "trips": float64(br.Trips())},
		})
	}
	solveRec := telemetry.Record{
		Kind:   telemetry.KindSolve,
		Source: s.cfg.Source,
		Scheme: scheme,
		Rung:   level,
		Dur:    time.Since(solveStart),
	}
	if err != nil {
		solveRec.Outcome = outcomeOf(err)
		s.emit.Emit(solveRec)
		s.writeError(tr, w, ClassSolve, err)
		return
	}
	solveRec.Fields = plan.Stats.Metrics()
	s.emit.Emit(solveRec)
	if s.cfg.MutatePlan != nil {
		s.cfg.MutatePlan(plan)
	}

	pub, err := s.reg.Publish(ctx, plan)
	if err != nil {
		s.writeError(tr, w, ClassSolve, err)
		return
	}
	tr.served(pub)

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-PCF-Epoch", strconv.FormatUint(pub.Epoch, 10))
	resp := struct {
		planInfo
		BreakerLevel int `json:"breaker_level"`
	}{infoOf(pub), level}
	writeJSON(w, resp)
}

// parseScenario reads ?links=3,7,12 (dead links) and
// ?degraded=4@0.5,9@0.25 (links at a fraction of nominal capacity)
// into a failure scenario over the instance's topology. A link listed
// in both is dead; dead wins.
func (s *Server) parseScenario(r *http.Request) (failures.Scenario, error) {
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{}}
	parseID := func(part string) (topology.LinkID, error) {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return 0, fmt.Errorf("serve: bad link id %q: %w", part, err)
		}
		if id < 0 || id >= s.inst.Graph.NumLinks() {
			return 0, fmt.Errorf("serve: link id %d out of range [0,%d)", id, s.inst.Graph.NumLinks())
		}
		return topology.LinkID(id), nil
	}
	if raw := strings.TrimSpace(r.URL.Query().Get("links")); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			l, err := parseID(part)
			if err != nil {
				return sc, err
			}
			sc.Dead[l] = true
		}
	}
	if raw := strings.TrimSpace(r.URL.Query().Get("degraded")); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			idStr, alphaStr, ok := strings.Cut(strings.TrimSpace(part), "@")
			if !ok {
				return sc, fmt.Errorf("serve: degraded entry %q is not id@alpha", part)
			}
			l, err := parseID(idStr)
			if err != nil {
				return sc, err
			}
			alpha, err := strconv.ParseFloat(alphaStr, 64)
			if err != nil || math.IsNaN(alpha) || alpha <= 0 || alpha >= 1 {
				return sc, fmt.Errorf("serve: degraded scale %q outside (0,1)", alphaStr)
			}
			if sc.Dead[l] {
				continue
			}
			if sc.Degraded == nil {
				sc.Degraded = map[topology.LinkID]float64{}
			}
			if cur, ok := sc.Degraded[l]; !ok || alpha < cur {
				sc.Degraded[l] = alpha
			}
		}
	}
	return sc, nil
}

func (s *Server) handleRealize(w http.ResponseWriter, r *http.Request) {
	tr := s.track("realize")
	done, err := s.enter()
	if err != nil {
		s.writeError(tr, w, ClassRealize, err)
		tr.done(nil)
		return
	}
	defer done()
	ctx, cancel := s.requestContext(r, s.cfg.DefaultRealizeTimeout)
	defer cancel()
	defer tr.done(ctx)

	pub, err := s.reg.Current()
	if err != nil {
		s.writeError(tr, w, ClassRealize, err)
		return
	}
	tr.served(pub)
	sc, err := s.parseScenario(r)
	if err != nil {
		tr.rec.Outcome = "error"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		writeJSON(w, map[string]any{"error": err.Error()})
		return
	}
	release, err := s.adm.Acquire(ctx, ClassRealize)
	if err != nil {
		s.writeError(tr, w, ClassRealize, err)
		return
	}
	defer release()
	if err := ctx.Err(); err != nil {
		s.writeError(tr, w, ClassRealize, err)
		return
	}

	real, err := pub.Sweep.Realize(sc)
	if err != nil {
		s.writeError(tr, w, ClassRealize, err)
		return
	}
	maxU := 0.0
	for _, u := range real.U {
		if u > maxU {
			maxU = u
		}
	}
	mlu := routing.MLUOf(s.inst.Graph, real)
	var deadLinks []int
	for l, dead := range sc.Dead {
		if dead {
			deadLinks = append(deadLinks, int(l))
		}
	}
	tr.field("mlu", mlu)
	tr.field("max_u", maxU)
	tr.field("dead_links", float64(len(deadLinks)))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-PCF-Epoch", strconv.FormatUint(pub.Epoch, 10))
	writeJSON(w, map[string]any{
		"epoch":      pub.Epoch,
		"scheme":     pub.Scheme,
		"dead_links": deadLinks,
		"pairs":      len(real.Pairs),
		"max_u":      maxU,
		"mlu":        mlu,
	})
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	tr := s.track("validate")
	done, err := s.enter()
	if err != nil {
		s.writeError(tr, w, ClassRealize, err)
		tr.done(nil)
		return
	}
	defer done()
	ctx, cancel := s.requestContext(r, s.cfg.DefaultSolveTimeout)
	defer cancel()
	defer tr.done(ctx)

	pub, err := s.reg.Current()
	if err != nil {
		s.writeError(tr, w, ClassRealize, err)
		return
	}
	tr.served(pub)
	release, err := s.adm.Acquire(ctx, ClassRealize)
	if err != nil {
		s.writeError(tr, w, ClassRealize, err)
		return
	}
	defer release()

	q := r.URL.Query()
	model := q.Get("model")
	if model == "" {
		model = "exact"
	}
	var stats *routing.SweepStats
	var rep *routing.SampledReport
	switch model {
	case "exact":
		// Through the published engine itself: no rebuild, and its
		// corrector cache already holds the designed set's signatures.
		stats, err = pub.Sweep.ValidateStats(ctx)
	case "sampled":
		var opts routing.SampleOptions
		opts, err = s.sampleOptions(q, pub.Plan)
		if err != nil {
			tr.rec.Outcome = "error"
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			writeJSON(w, map[string]any{"error": err.Error()})
			return
		}
		// On an engine of its own: beyond-budget draws would otherwise
		// grow the published engine's corrector cache without bound.
		rep, err = routing.ValidateSampled(ctx, pub.Plan, opts)
		if rep != nil {
			stats = &rep.Stats
		}
	default:
		tr.rec.Outcome = "error"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		writeJSON(w, map[string]any{"error": fmt.Sprintf("serve: unknown scenario model %q (want exact or sampled)", model)})
		return
	}
	valRec := telemetry.Record{
		Kind:    telemetry.KindValidate,
		Source:  s.cfg.Source,
		Name:    model,
		Scheme:  pub.Scheme,
		Epoch:   pub.Epoch,
		Outcome: outcomeOf(err),
	}
	if stats != nil {
		valRec.Fields = stats.Metrics()
		valRec.Dur = stats.Total
	}
	if rep != nil {
		// Coverage fields ride on the same record, so the telemetry
		// query surface exposes the (ε, δ) bound next to the sweep
		// statistics.
		for k, v := range rep.Coverage.Metrics() {
			valRec.Fields[k] = v
		}
	}
	s.emit.Emit(valRec)
	if err != nil {
		s.writeError(tr, w, ClassRealize, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-PCF-Epoch", strconv.FormatUint(pub.Epoch, 10))
	resp := map[string]any{
		"epoch":     pub.Epoch,
		"valid":     true,
		"model":     model,
		"scenarios": stats.Scenarios,
		"smw_hits":  stats.SMWHits,
		"fallbacks": stats.Fallbacks,
	}
	if rep != nil {
		resp["coverage"] = rep.Coverage
		resp["coverage_summary"] = rep.Coverage.String()
		resp["worst_mlu"] = rep.WorstMLU
	}
	writeJSON(w, resp)
}

// maxValidateSamples caps ?samples= on a sampled validation: the draws
// are held in memory before the sweep starts, so the count must not be
// the client's to choose freely.
const maxValidateSamples = 100_000

// sampleOptions parses the sampled-model query knobs: p (uniform unit
// failure probability), samples, delta, seed, kcap.
func (s *Server) sampleOptions(q url.Values, plan *core.Plan) (routing.SampleOptions, error) {
	opts := routing.SampleOptions{}
	p := 0.01
	if raw := q.Get("p"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return opts, fmt.Errorf("serve: bad unit probability %q: %w", raw, err)
		}
		p = v
	}
	pm, err := failures.Uniform(plan.Instance.Failures, p)
	if err != nil {
		return opts, err
	}
	opts.Model = pm
	if raw := q.Get("samples"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return opts, fmt.Errorf("serve: bad sample count %q: %w", raw, err)
		}
		if v > maxValidateSamples {
			return opts, fmt.Errorf("serve: sample count %d above the limit %d", v, maxValidateSamples)
		}
		opts.Samples = v
	}
	if raw := q.Get("delta"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) || v <= 0 || v >= 1 {
			return opts, fmt.Errorf("serve: delta %q outside (0,1)", raw)
		}
		opts.Delta = v
	}
	if raw := q.Get("seed"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("serve: bad seed %q: %w", raw, err)
		}
		opts.Seed = v
	}
	if raw := q.Get("kcap"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return opts, fmt.Errorf("serve: bad kcap %q: %w", raw, err)
		}
		opts.KCap = v
	}
	return opts, nil
}

func (s *Server) handleOptimal(w http.ResponseWriter, r *http.Request) {
	tr := s.track("optimal")
	done, err := s.enter()
	if err != nil {
		s.writeError(tr, w, ClassSolve, err)
		tr.done(nil)
		return
	}
	defer done()
	ctx, cancel := s.requestContext(r, s.cfg.DefaultSolveTimeout)
	defer cancel()
	defer tr.done(ctx)

	release, err := s.adm.Acquire(ctx, ClassSolve)
	if err != nil {
		s.writeError(tr, w, ClassSolve, err)
		return
	}
	defer release()

	z, worst, stats, err := mcf.OptimalUnderFailuresStats(ctx, s.inst.Graph, s.inst.TM, s.inst.Failures)
	mcfRec := telemetry.Record{
		Kind:    telemetry.KindMCF,
		Source:  s.cfg.Source,
		Outcome: outcomeOf(err),
	}
	if stats != nil {
		mcfRec.Fields = stats.Metrics()
		mcfRec.Dur = stats.Total
	}
	s.emit.Emit(mcfRec)
	if err != nil {
		s.writeError(tr, w, ClassSolve, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]any{
		"optimal":        z,
		"worst_scenario": worst.String(),
		"scenarios":      stats.Scenarios,
		"warm_hits":      stats.WarmHits,
	})
}
