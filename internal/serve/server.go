package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
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

// SchemeBest names the SolveBest degradation ladder (run under the
// breaker's current skip level) among the schemes the daemon solves on
// demand; the fixed schemes solve exactly one formulation and fail
// rather than degrade.
const SchemeBest = "best"

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
// begun. Success must be paired with s.inflight.Done().
func (s *Server) enter() error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	s.inflight.Add(1)
	return nil
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

// ---- HTTP surface ----

// route is one endpoint: data initMux builds once, run by the one
// request lifecycle (ServeHTTP below).
type route struct {
	srv *Server
	// name is the request record's Name; "" emits none (tail: a parked
	// tail's own record would wake it and every other tail).
	name  string
	class Class
	// timeout is the default deadline ?timeout= overrides (0: none).
	timeout time.Duration
	// gated routes are refused while draining; needsPlan routes load
	// the current plan before parsing.
	gated, needsPlan bool
	// parse reads the request before admission (nil: nothing to read);
	// its error is the client's (400). work returns the reply body.
	parse func(*Server, *call) error
	work  func(*Server, *call) (any, error)
}

func (s *Server) initMux() {
	solveT, realizeT := s.cfg.DefaultSolveTimeout, s.cfg.DefaultRealizeTimeout
	routes := map[string]*route{
		"GET /healthz":            {name: "healthz", class: noAdmission, work: (*Server).handleHealth},
		"GET /v1/plan":            {name: "plan", class: noAdmission, gated: true, needsPlan: true, work: (*Server).handlePlan},
		"POST /v1/solve":          {name: "solve", class: ClassSolve, timeout: solveT, gated: true, parse: (*Server).parseSolve, work: (*Server).handleSolve},
		"POST /v1/realize":        {name: "realize", class: ClassRealize, timeout: realizeT, gated: true, needsPlan: true, parse: (*Server).parseScenario, work: (*Server).handleRealize},
		"GET /v1/validate":        {name: "validate", class: ClassRealize, timeout: solveT, gated: true, needsPlan: true, parse: (*Server).parseValidate, work: (*Server).handleValidate},
		"POST /v1/optimal":        {name: "optimal", class: ClassSolve, timeout: solveT, gated: true, work: (*Server).handleOptimal},
		"GET /v1/telemetry/query": {name: "telemetry_query", class: noAdmission, work: (*Server).handleTelemetryQuery},
		"GET /v1/telemetry/tail":  {class: noAdmission, work: (*Server).handleTelemetryTail},
	}
	s.mux = http.NewServeMux()
	for pattern, rt := range routes {
		rt.srv = s
		s.mux.Handle(pattern, rt)
	}
}

// call is one request in flight: what the lifecycle derived for it,
// what its route's parse step read, and the request record it
// accumulates. The record's Epoch is only ever set from the *Published
// the request actually used, so a request record can never name an
// epoch newer than the plan that served it.
type call struct {
	q     url.Values
	ctx   context.Context
	start time.Time
	rec   telemetry.Record
	pub   *Published
	// stamped: rec.Epoch names the epoch the reply's X-PCF-Epoch carries.
	stamped bool

	// What the lifecycle holds until the reply is written.
	entered bool
	cancel  context.CancelFunc
	stop    func() bool
	release func()

	// What the parse steps read: solve's scheme, realize's scenario,
	// validate's model and sampling knobs.
	scheme string
	sc     failures.Scenario
	sample *routing.SampleOptions
}

// ServeHTTP is the request lifecycle every route shares. In order: the
// request record, the drain gate, the deadline, the current plan, the
// route's parse step, admission, its work, and the reply — writeError's
// status and body, or X-PCF-Epoch and the JSON body.
func (rt *route) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c := &call{
		q:     r.URL.Query(),
		ctx:   r.Context(),
		start: time.Now(),
		rec:   telemetry.Record{Kind: telemetry.KindRequest, Source: rt.srv.cfg.Source, Name: rt.name},
	}
	defer rt.srv.finish(c)
	v, err := rt.run(c)
	rt.reply(w, c, v, err)
}

func (rt *route) run(c *call) (any, error) {
	s := rt.srv
	if rt.gated {
		if err := s.enter(); err != nil {
			return nil, err
		}
		c.entered = true
	}
	if rt.timeout > 0 {
		d := rt.timeout
		if raw := c.q.Get("timeout"); raw != "" {
			parsed, err := time.ParseDuration(raw)
			if err != nil || parsed <= 0 {
				return nil, badRequest{fmt.Errorf("serve: bad timeout %q (want a positive Go duration)", raw)}
			}
			d = parsed
		}
		// Bounded by the clamp, and hard-canceled with everything else
		// in flight at the drain deadline.
		c.ctx, c.cancel = context.WithTimeout(c.ctx, min(d, s.cfg.MaxRequestTimeout))
		c.stop = context.AfterFunc(s.baseCtx, c.cancel)
	}
	if rt.needsPlan {
		pub, err := s.reg.Current()
		if err != nil {
			return nil, err
		}
		c.served(pub)
	}
	if rt.parse != nil {
		if err := rt.parse(s, c); err != nil {
			return nil, badRequest{err}
		}
	}
	if rt.class != noAdmission {
		release, err := s.adm.Acquire(c.ctx, rt.class)
		if err != nil {
			return nil, err
		}
		c.release = release
		// A request whose deadline passed while it queued does no work.
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
	}
	return rt.work(s, c)
}

// reply writes the response and emits the request record. A "degraded"
// outcome (the one /healthz gives) answers 503 with its body.
func (rt *route) reply(w http.ResponseWriter, c *call, v any, err error) {
	s := rt.srv
	if err != nil {
		s.writeError(w, c, rt.class, err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		if c.stamped {
			w.Header().Set("X-PCF-Epoch", strconv.FormatUint(c.rec.Epoch, 10))
		}
		if c.rec.Outcome == "degraded" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		if plan, ok := v.(*core.Plan); ok {
			// The full plan streams its own encoding.
			if err := plan.WriteJSON(w); err != nil {
				s.cfg.Logf("serve: streaming plan: %v", err)
			}
		} else {
			writeJSON(w, v)
		}
	}
	if rt.name == "" {
		return
	}
	c.rec.Dur = time.Since(c.start)
	if c.cancel != nil {
		// The remaining deadline slack, so queries can watch how close
		// requests run to their budgets.
		dl, _ := c.ctx.Deadline()
		c.field("deadline_slack_ms", float64(time.Until(dl))/float64(time.Millisecond))
	}
	s.emit.Emit(c.rec)
}

// finish releases what the lifecycle took, once the reply is written.
func (s *Server) finish(c *call) {
	if c.release != nil {
		c.release()
	}
	if c.cancel != nil {
		c.stop()
		c.cancel()
	}
	if c.entered {
		s.inflight.Done()
	}
}

// served stamps the record with the plan that is answering the request.
func (c *call) served(pub *Published) {
	c.pub = pub
	c.stamped = true
	c.rec.Epoch = pub.Epoch
	c.rec.Scheme = pub.Scheme
}

func (c *call) field(name string, v float64) {
	if c.rec.Fields == nil {
		c.rec.Fields = map[string]float64{}
	}
	c.rec.Fields[name] = v
}

// badRequest marks a malformed request: writeError answers it 400.
type badRequest struct{ error }

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

// writeError is the one mapping of typed serving and solver failures
// onto HTTP statuses; it stamps the request record's outcome.
// Overload-shaped failures carry a Retry-After hint.
func (s *Server) writeError(w http.ResponseWriter, c *call, class Class, err error) {
	c.rec.Outcome = outcomeOf(err)
	status := http.StatusInternalServerError
	var bad badRequest
	switch {
	case errors.As(err, &bad):
		status = http.StatusBadRequest
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
		errors.Is(err, routing.ErrUnrealizable),
		errors.Is(err, lp.ErrInfeasible),
		errors.Is(err, lp.ErrUnbounded):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled),
		errors.Is(err, telemetry.ErrStoreClosed):
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
	h.Status = "ok"
	if len(h.DegradedReasons) > 0 {
		h.Status = "degraded"
	}
	return h
}

func (s *Server) handleHealth(c *call) (any, error) {
	h := s.Health()
	c.stamped, c.rec.Epoch = true, h.Epoch
	if h.Status != "ok" {
		c.rec.Outcome = "degraded"
	}
	return h, nil
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

func (s *Server) handlePlan(c *call) (any, error) {
	if c.q.Get("full") == "1" {
		return c.pub.Plan, nil
	}
	// Sweep is the serving engine's live statistics: what it has
	// answered since publication, which no record carries.
	return struct {
		planInfo
		Sweep map[string]float64 `json:"sweep"`
	}{infoOf(c.pub), c.pub.Sweep.Stats().Metrics()}, nil
}

func (s *Server) parseSolve(c *call) error {
	c.scheme = c.q.Get("scheme")
	if c.scheme == "" {
		c.scheme = SchemeBest
	}
	c.rec.Scheme = c.scheme
	if _, fixed := fixedSchemes[c.scheme]; !fixed && c.scheme != SchemeBest {
		return fmt.Errorf("serve: unknown scheme %q", c.scheme)
	}
	return nil
}

func (s *Server) handleSolve(c *call) (any, error) {
	scheme := c.scheme
	br := s.breaker(scheme)
	level := br.Level()
	c.rec.Rung = level
	opts := core.SolveOptions{Context: c.ctx}
	opts.LP.FaultHook = s.cfg.LPFaultHook

	solveStart := time.Now()
	var plan *core.Plan
	var err error
	if fixed, isFixed := fixedSchemes[scheme]; isFixed {
		if level > 0 {
			return nil, fmt.Errorf("%w: %s", ErrBreakerOpen, scheme)
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
		return nil, err
	}
	solveRec.Fields = plan.Stats.Metrics()
	s.emit.Emit(solveRec)
	if s.cfg.MutatePlan != nil {
		s.cfg.MutatePlan(plan)
	}

	pub, err := s.reg.Publish(c.ctx, plan)
	if err != nil {
		return nil, err
	}
	c.served(pub)
	return struct {
		planInfo
		BreakerLevel int `json:"breaker_level"`
	}{infoOf(pub), level}, nil
}

// parseScenario reads ?links=3,7,12 (dead links) and
// ?degraded=4@0.5,9@0.25 (links at a fraction of nominal capacity)
// into a failure scenario over the instance's topology. A link listed
// in both is dead; dead wins.
func (s *Server) parseScenario(c *call) error {
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
	if raw := strings.TrimSpace(c.q.Get("links")); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			l, err := parseID(part)
			if err != nil {
				return err
			}
			sc.Dead[l] = true
		}
	}
	if raw := strings.TrimSpace(c.q.Get("degraded")); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			idStr, alphaStr, ok := strings.Cut(strings.TrimSpace(part), "@")
			if !ok {
				return fmt.Errorf("serve: degraded entry %q is not id@alpha", part)
			}
			l, err := parseID(idStr)
			if err != nil {
				return err
			}
			alpha, err := strconv.ParseFloat(alphaStr, 64)
			if err != nil || math.IsNaN(alpha) || alpha <= 0 || alpha >= 1 {
				return fmt.Errorf("serve: degraded scale %q outside (0,1)", alphaStr)
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
	c.sc = sc
	return nil
}

// realizeReply is the /v1/realize body. Its fields are declared in
// sorted key order, the order encoding/json writes a map's keys in, so
// its bytes are those of the map[string]any the handler once built.
type realizeReply struct {
	DeadLinks []int   `json:"dead_links"`
	Epoch     uint64  `json:"epoch"`
	MaxU      float64 `json:"max_u"`
	MLU       float64 `json:"mlu"`
	Pairs     int     `json:"pairs"`
	Scheme    string  `json:"scheme"`
}

// handleRealize answers from the engine's Outcome: the scenario is
// realized and judged in the engine's scratch, and no Realization is
// built.
func (s *Server) handleRealize(c *call) (any, error) {
	out, err := c.pub.Sweep.Outcome(c.sc)
	if err != nil {
		return nil, err
	}
	var deadLinks []int
	for l, dead := range c.sc.Dead {
		if dead {
			deadLinks = append(deadLinks, int(l))
		}
	}
	slices.Sort(deadLinks)
	c.field("mlu", out.MLU)
	c.field("max_u", out.MaxU)
	c.field("dead_links", float64(len(deadLinks)))
	return realizeReply{
		DeadLinks: deadLinks,
		Epoch:     c.pub.Epoch,
		MaxU:      out.MaxU,
		MLU:       out.MLU,
		Pairs:     out.Pairs,
		Scheme:    c.pub.Scheme,
	}, nil
}

// maxValidateSamples caps ?samples= on a sampled validation: the draws
// are held in memory before the sweep starts, so the count must not be
// the client's to choose freely.
const maxValidateSamples = 100_000

// parseValidate reads ?model= (exact, the default, or sampled) and the
// sampled model's knobs.
func (s *Server) parseValidate(c *call) error {
	q := c.q
	switch model := q.Get("model"); model {
	case "", "exact":
		return nil
	case "sampled":
	default:
		return fmt.Errorf("serve: unknown scenario model %q (want exact or sampled)", model)
	}
	// p is the uniform unit failure probability.
	var opts routing.SampleOptions
	var err error
	p := 0.01
	if raw := q.Get("p"); raw != "" {
		if p, err = strconv.ParseFloat(raw, 64); err != nil {
			return fmt.Errorf("serve: bad unit probability %q: %w", raw, err)
		}
	}
	if opts.Model, err = failures.Uniform(c.pub.Plan.Instance.Failures, p); err != nil {
		return err
	}
	if raw := q.Get("samples"); raw != "" {
		if opts.Samples, err = strconv.Atoi(raw); err != nil {
			return fmt.Errorf("serve: bad sample count %q: %w", raw, err)
		}
		if opts.Samples > maxValidateSamples {
			return fmt.Errorf("serve: sample count %d above the limit %d", opts.Samples, maxValidateSamples)
		}
	}
	if raw := q.Get("delta"); raw != "" {
		opts.Delta, err = strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(opts.Delta) || opts.Delta <= 0 || opts.Delta >= 1 {
			return fmt.Errorf("serve: delta %q outside (0,1)", raw)
		}
	}
	if raw := q.Get("seed"); raw != "" {
		if opts.Seed, err = strconv.ParseInt(raw, 10, 64); err != nil {
			return fmt.Errorf("serve: bad seed %q: %w", raw, err)
		}
	}
	if raw := q.Get("kcap"); raw != "" {
		if opts.KCap, err = strconv.Atoi(raw); err != nil {
			return fmt.Errorf("serve: bad kcap %q: %w", raw, err)
		}
		if budget := c.pub.Plan.Instance.Failures.Budget; opts.KCap <= budget {
			return fmt.Errorf("serve: kcap %d must exceed the plan's failure budget %d", opts.KCap, budget)
		}
	}
	c.sample = &opts
	return nil
}

func (s *Server) handleValidate(c *call) (any, error) {
	model := "exact"
	var stats *routing.SweepStats
	var rep *routing.SampledReport
	var err error
	if c.sample == nil {
		// Through the published engine itself: no rebuild, and its
		// corrector cache already holds the designed set's signatures.
		stats, err = c.pub.Sweep.ValidateStats(c.ctx)
	} else {
		model = "sampled"
		// On an engine of its own: beyond-budget draws would otherwise
		// grow the published engine's corrector cache without bound.
		rep, err = routing.ValidateSampled(c.ctx, c.pub.Plan, *c.sample)
		if rep != nil {
			stats = &rep.Stats
		}
	}
	valRec := telemetry.Record{
		Kind:    telemetry.KindValidate,
		Source:  s.cfg.Source,
		Name:    model,
		Scheme:  c.pub.Scheme,
		Epoch:   c.pub.Epoch,
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
		return nil, err
	}
	resp := map[string]any{
		"epoch":     c.pub.Epoch,
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
	return resp, nil
}

func (s *Server) handleOptimal(c *call) (any, error) {
	z, worst, stats, err := mcf.OptimalUnderFailuresStats(c.ctx, s.inst.Graph, s.inst.TM, s.inst.Failures)
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
		return nil, err
	}
	return map[string]any{
		"optimal":        z,
		"worst_scenario": worst.String(),
		"scenarios":      stats.Scenarios,
		"warm_hits":      stats.WarmHits,
	}, nil
}
