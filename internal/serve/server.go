package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
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

// SchemeBest names the degradation ladder, the default of POST
// /v1/solve. Every row of core's scheme table is served by its name.
const SchemeBest = core.SchemeBest

// Server is the pcfd serving core: admission gate, breaker bank, plan
// registry, and HTTP surface. It implements http.Handler; cmd/pcfd
// mounts it on an http.Server.
type Server struct {
	cfg  Config
	inst *core.Instance
	reg  *Registry
	adm  *Admission

	// breakers holds one breaker per row of core's scheme table, by
	// name; the map is never written after NewServer.
	breakers map[string]*Breaker

	// solver solves every row of core's scheme table on the served
	// instance and keeps its masters (three at most) across re-plans.
	solver *core.Solver

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
// carry whatever logical sequences the served schemes need (cmd/pcfd
// serves eval.Setup.CLSInstance).
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
		adm:      NewAdmission(solveSlots, cfg.MaxConcurrentRealizes, cfg.QueueDepth),
		breakers: map[string]*Breaker{},
		solver:   core.NewSolver(cfg.Instance),
		tel:      tel,
	}
	for _, name := range core.SchemeNames() {
		s.breakers[name] = NewBreaker(cfg.BreakerCooldown)
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
//
// Calls are pooled. finish hands one back once the reply is written
// and the record emitted, and a later request reuses its scenario maps,
// dead-link slice, typed realize reply and reply buffer, so nothing a
// call holds may outlive the reply. The record is what a request hands
// on: the store keeps its Fields map, which is therefore made afresh
// for each request.
type call struct {
	srv   *Server
	r     *http.Request
	start time.Time
	rec   telemetry.Record
	pub   *Published
	// epoch is the reply's X-PCF-Epoch value, the epoch rec.Epoch names
	// (nil: the reply carries none).
	epoch []string

	// deadline bounds the request (zero: no deadline). The context that
	// carries it is built only when something waits (context).
	deadline time.Time
	ctx      context.Context
	cancel   context.CancelFunc
	stop     func() bool

	// What the lifecycle holds until the reply is written.
	entered, admitted bool

	// What the parse steps read: solve's scheme, realize's scenario,
	// validate's model and sampling knobs.
	scheme *core.Scheme
	sc     failures.Scenario
	sample *routing.SampleOptions

	// The storage a pooled call keeps from request to request.
	dead      map[topology.LinkID]bool
	degraded  map[topology.LinkID]float64
	deadLinks []int
	realized  realizeReply
	out       *bytes.Buffer
	enc       *json.Encoder
}

// calls pools the per-request state (call).
var calls = sync.Pool{New: func() any {
	out := new(bytes.Buffer)
	return &call{
		dead:     map[topology.LinkID]bool{},
		degraded: map[topology.LinkID]float64{},
		out:      out,
		enc:      replyEncoder(out),
	}
}}

// maxPooledReply bounds the reply buffer a pooled call keeps: a call
// that wrote a larger reply (a telemetry query, a tail) is dropped, not
// pooled, so realize traffic does not keep that buffer alive.
const maxPooledReply = 64 << 10

// recycle clears the call and pools it. What the literal names is all
// that survives into the next request.
func (c *call) recycle() {
	if c.out.Cap() > maxPooledReply {
		return
	}
	clear(c.dead)
	clear(c.degraded)
	c.out.Reset()
	*c = call{dead: c.dead, degraded: c.degraded, deadLinks: c.deadLinks[:0], out: c.out, enc: c.enc}
	calls.Put(c)
}

// ServeHTTP is the request lifecycle every route shares. In order: the
// request record, the drain gate, the deadline, the current plan, the
// route's parse step, admission, its work, and the reply — writeError's
// status and body, or X-PCF-Epoch and the JSON body.
func (rt *route) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c := calls.Get().(*call)
	c.srv, c.r, c.start = rt.srv, r, time.Now()
	c.rec = telemetry.Record{Kind: telemetry.KindRequest, Source: rt.srv.cfg.Source, Name: rt.name}
	defer rt.finish(c)
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
		if raw := c.query("timeout"); raw != "" {
			parsed, err := time.ParseDuration(raw)
			if err != nil || parsed <= 0 {
				return nil, badRequest{fmt.Errorf("serve: bad timeout %q (want a positive Go duration)", raw)}
			}
			d = parsed
		}
		// Bounded by the clamp and by the request's own deadline, and
		// hard-canceled with everything else in flight at the drain
		// deadline (context, err).
		c.deadline = c.start.Add(min(d, maxRequestTimeout))
		if dl, ok := c.r.Context().Deadline(); ok && dl.Before(c.deadline) {
			c.deadline = dl
		}
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
		if !s.adm.Take(rt.class) {
			if err := s.adm.Wait(c.context(), rt.class); err != nil {
				return nil, err
			}
		}
		c.admitted = true
		// A request whose deadline passed while it queued does no work.
		if err := c.err(); err != nil {
			return nil, err
		}
	}
	return rt.work(s, c)
}

// context is the request's context, built the first time something
// waits on it (admission's queue, a solve, a validation, the optimum,
// a tail): the request's own, bounded by the deadline and hard-canceled
// at the drain deadline.
func (c *call) context() context.Context {
	if c.ctx == nil {
		c.ctx = c.r.Context()
		if !c.deadline.IsZero() {
			c.ctx, c.cancel = context.WithDeadline(c.ctx, c.deadline)
			c.stop = context.AfterFunc(c.srv.baseCtx, c.cancel)
		}
	}
	return c.ctx
}

// err is the error the request's context reports, or would report
// were it built: the request's own, the deadline's, or the drain
// deadline's hard cancel.
func (c *call) err() error {
	if c.ctx != nil {
		return c.ctx.Err()
	}
	if err := c.r.Context().Err(); err != nil || c.deadline.IsZero() {
		return err
	}
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return c.srv.baseCtx.Err()
}

// query reads one parameter of the request's query string.
func (c *call) query(key string) string { return queryGet(c.r.URL.RawQuery, key) }

// jsonContentType is every reply's Content-Type value. Replies share
// it: never modify it.
var jsonContentType = []string{"application/json"}

// epochHeader is X-PCF-Epoch in the canonical form http.Header keys
// take, so a reply can set Published's precomputed value directly.
const epochHeader = "X-Pcf-Epoch"

// reply writes the response and emits the request record. A "degraded"
// outcome (the one /healthz gives) answers 503 with its body.
func (rt *route) reply(w http.ResponseWriter, c *call, v any, err error) {
	s := rt.srv
	if err != nil {
		s.writeError(w, c, rt.class, err)
	} else {
		h := w.Header()
		h["Content-Type"] = jsonContentType
		if c.epoch != nil {
			h[epochHeader] = c.epoch
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
			// Encoded whole into the call's buffer, then written in one
			// piece. The response is already committed; an encode or
			// write failure here only means the client went away.
			c.out.Reset()
			if c.enc.Encode(v) == nil {
				_, _ = w.Write(c.out.Bytes())
			}
		}
	}
	if rt.name == "" {
		return
	}
	c.rec.Dur = time.Since(c.start)
	if !c.deadline.IsZero() {
		// The remaining deadline slack, so queries can watch how close
		// requests run to their budgets.
		c.field("deadline_slack_ms", float64(time.Until(c.deadline))/float64(time.Millisecond))
	}
	s.emit.Emit(c.rec)
}

// finish releases what the lifecycle took, once the reply is written
// and the record emitted, and pools the call.
func (rt *route) finish(c *call) {
	s := rt.srv
	if c.admitted {
		s.adm.Release(rt.class)
	}
	if c.cancel != nil {
		c.stop()
		c.cancel()
	}
	if c.entered {
		s.inflight.Done()
	}
	c.recycle()
}

// served stamps the record with the plan that is answering the request.
func (c *call) served(pub *Published) {
	c.pub = pub
	c.epoch = pub.epochValue
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
		left := s.breakers[c.scheme.Name].Left()
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int((left+time.Second-1)/time.Second))))
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
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	writeJSON(w, map[string]any{"error": err.Error()})
}

// replyEncoder is the encoder every JSON reply goes through: indented
// by two spaces, one value and a newline.
func replyEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc
}

func writeJSON(w http.ResponseWriter, v any) {
	// The response is already committed; an encode/write failure here
	// only means the client went away.
	_ = replyEncoder(w).Encode(v)
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
	// Breakers maps each scheme to whether its breaker is open.
	Breakers map[string]bool `json:"breakers,omitempty"`
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
// dir, or any registered check reporting !OK. Open breakers are reported but do
// not degrade — a node that rejects a failing scheme's solves still
// serves realize traffic at full fidelity. A breaker whose cooldown is
// over closes here, and its close is recorded, as a solve's admit
// would.
func (s *Server) Health() Health {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()

	h := Health{
		Draining: draining,
		Epoch:    s.reg.Epoch(),
		Breakers: map[string]bool{},

		AdmissionShed:          s.adm.Shed(),
		AdmissionQueuedSolve:   s.adm.Queued(ClassSolve),
		AdmissionQueuedRealize: s.adm.Queued(ClassRealize),
		Telemetry:              s.tel.Stats(),
	}
	_, curErr := s.reg.Current()
	h.HasPlan = curErr == nil

	for _, scheme := range core.SchemeNames() { // table order: closes record in a fixed order
		h.Breakers[scheme] = s.admit(scheme) > 0
	}

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
	c.rec.Epoch, c.epoch = h.Epoch, []string{strconv.FormatUint(h.Epoch, 10)}
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
	if c.query("full") == "1" {
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
	name := c.query("scheme")
	if name == "" {
		name = SchemeBest
	}
	scheme, ok := core.LookupScheme(name)
	if !ok {
		return fmt.Errorf("serve: unknown scheme %q (want one of %s)", name, strings.Join(core.SchemeNames(), ", "))
	}
	c.scheme = scheme
	c.rec.Scheme = scheme.Name
	return nil
}

func (s *Server) handleSolve(c *call) (any, error) {
	pub, err := s.Solve(c.context(), c.scheme)
	if err != nil {
		return nil, err
	}
	c.served(pub)
	return infoOf(pub), nil
}

// Solve solves a row of core's scheme table on the served instance
// and publishes the plan: POST /v1/solve and pcfd's boot solve both
// come here. The server's one solver keeps each rung's master from the
// rung's first solve by any row on, so a re-plan re-runs only the cut
// loop, and concurrent solves take turns on it. While the row's
// breaker is open Solve fails fast with ErrBreakerOpen. Every solve
// leaves a solve record (and a breaker record when it opened or closed
// the breaker), and the plan passes Config.MutatePlan and the
// registry's validating publish.
func (s *Server) Solve(ctx context.Context, scheme *core.Scheme) (*Published, error) {
	if s.admit(scheme.Name) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrBreakerOpen, scheme.Name)
	}
	opts := core.SolveOptions{Context: ctx}
	opts.LP.FaultHook = s.cfg.LPFaultHook

	solveStart := time.Now()
	plan, err := s.solver.Solve(scheme, opts)
	if br := s.breakers[scheme.Name]; br.Record(err) {
		s.emitBreaker(scheme.Name, br, true)
	}
	solveRec := telemetry.Record{
		Kind:   telemetry.KindSolve,
		Source: s.cfg.Source,
		Scheme: scheme.Name,
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
	return s.reg.Publish(ctx, plan)
}

// admit asks scheme's breaker how long it stays open, zero when it is
// closed, and records its close when this call closed it.
func (s *Server) admit(scheme string) time.Duration {
	br := s.breakers[scheme]
	left, closed := br.admit()
	if closed {
		s.emitBreaker(scheme, br, false)
	}
	return left
}

// emitBreaker records that scheme's breaker opened or closed.
func (s *Server) emitBreaker(scheme string, br *Breaker, open bool) {
	f := 0.0
	if open {
		f = 1
	}
	s.emit.Emit(telemetry.Record{
		Kind:   telemetry.KindBreaker,
		Source: s.cfg.Source,
		Scheme: scheme,
		Fields: map[string]float64{"open": f, "trips": float64(br.Trips())},
	})
}

// parseScenario reads ?links=3,7,12 (dead links) and
// ?degraded=4@0.5,9@0.25 (links at a fraction of nominal capacity)
// into a failure scenario over the instance's topology, held in the
// call's maps. A link listed in both is dead; dead wins.
func (s *Server) parseScenario(c *call) error {
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
	if raw := strings.TrimSpace(c.query("links")); raw != "" {
		for rest, more := raw, true; more; {
			var part string
			part, rest, more = strings.Cut(rest, ",")
			l, err := parseID(part)
			if err != nil {
				return err
			}
			c.dead[l] = true
		}
	}
	if raw := strings.TrimSpace(c.query("degraded")); raw != "" {
		for rest, more := raw, true; more; {
			var part string
			part, rest, more = strings.Cut(rest, ",")
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
			if c.dead[l] {
				continue
			}
			if cur, ok := c.degraded[l]; !ok || alpha < cur {
				c.degraded[l] = alpha
			}
		}
	}
	c.sc = failures.Scenario{Dead: c.dead}
	if len(c.degraded) > 0 {
		c.sc.Degraded = c.degraded
	}
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

// handleRealize answers from the engine's Outcome, and no Realization
// is built. A scenario of a designed class is answered from the pass
// the publish validation kept on this engine; any other (a degraded
// link, a link set outside every designed class) is realized and
// judged in the engine's scratch. The reply is the call's own.
func (s *Server) handleRealize(c *call) (any, error) {
	out, err := c.pub.Sweep.Outcome(c.sc)
	if err != nil {
		return nil, err
	}
	for l, dead := range c.sc.Dead {
		if dead {
			c.deadLinks = append(c.deadLinks, int(l))
		}
	}
	slices.Sort(c.deadLinks)
	var deadLinks []int // none encodes as null, as it always has
	if len(c.deadLinks) > 0 {
		deadLinks = c.deadLinks
	}
	c.field("mlu", out.MLU)
	c.field("max_u", out.MaxU)
	c.field("dead_links", float64(len(deadLinks)))
	c.realized = realizeReply{
		DeadLinks: deadLinks,
		Epoch:     c.pub.Epoch,
		MaxU:      out.MaxU,
		MLU:       out.MLU,
		Pairs:     out.Pairs,
		Scheme:    c.pub.Scheme,
	}
	return &c.realized, nil
}

// maxValidateSamples caps ?samples= on a sampled validation: the draws
// are held in memory before the sweep starts, so the count must not be
// the client's to choose freely.
const maxValidateSamples = 100_000

// maxKCapOverBudget caps ?kcap= at the plan's failure budget plus this
// many failed units: the tail sampler's table holds a row of kcap+1
// probabilities per unit, so the truncation point must not be the
// client's to choose freely either.
const maxKCapOverBudget = 64

// parseValidate reads ?model= (exact, the default, or sampled) and the
// sampled model's knobs.
func (s *Server) parseValidate(c *call) error {
	switch model := c.query("model"); model {
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
	if raw := c.query("p"); raw != "" {
		if p, err = strconv.ParseFloat(raw, 64); err != nil {
			return fmt.Errorf("serve: bad unit probability %q: %w", raw, err)
		}
	}
	if opts.Model, err = failures.Uniform(c.pub.Plan.Instance.Failures, p); err != nil {
		return err
	}
	if raw := c.query("samples"); raw != "" {
		if opts.Samples, err = strconv.Atoi(raw); err != nil {
			return fmt.Errorf("serve: bad sample count %q: %w", raw, err)
		}
		if opts.Samples > maxValidateSamples {
			return fmt.Errorf("serve: sample count %d above the limit %d", opts.Samples, maxValidateSamples)
		}
	}
	if raw := c.query("delta"); raw != "" {
		opts.Delta, err = strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(opts.Delta) || opts.Delta <= 0 || opts.Delta >= 1 {
			return fmt.Errorf("serve: delta %q outside (0,1)", raw)
		}
	}
	if raw := c.query("seed"); raw != "" {
		if opts.Seed, err = strconv.ParseInt(raw, 10, 64); err != nil {
			return fmt.Errorf("serve: bad seed %q: %w", raw, err)
		}
	}
	if raw := c.query("kcap"); raw != "" {
		if opts.KCap, err = strconv.Atoi(raw); err != nil {
			return fmt.Errorf("serve: bad kcap %q: %w", raw, err)
		}
		budget := c.pub.Plan.Instance.Failures.Budget
		if opts.KCap <= budget {
			return fmt.Errorf("serve: kcap %d must exceed the plan's failure budget %d", opts.KCap, budget)
		}
		if opts.KCap > budget+maxKCapOverBudget {
			return fmt.Errorf("serve: kcap %d above the limit %d (failure budget %d + %d)", opts.KCap, budget+maxKCapOverBudget, budget, maxKCapOverBudget)
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
	// Through the published engine itself: no rebuild, and its corrector
	// cache already holds the designed set's signatures. The exact model
	// re-sweeps the designed set on every request: it is the on-demand
	// referee of the publish verdict. The sampled model judges the
	// designed set by the pass publication's validation swept on this
	// very engine (kept on it), so a request pays only for its tail; its
	// beyond-budget draws run on a per-request fork, which keeps their
	// correctors apart, so the published cache stays at the designed
	// set's.
	if c.sample == nil {
		stats, err = c.pub.Sweep.ValidateStats(c.context())
	} else {
		model = "sampled"
		rep, err = c.pub.Sweep.ValidateSampled(c.context(), *c.sample)
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
	z, worst, stats, err := mcf.OptimalUnderFailuresStats(c.context(), s.inst.Graph, s.inst.TM, s.inst.Failures)
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
