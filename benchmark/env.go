package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/fleet"
	"pcf/internal/serve"
	"pcf/internal/telemetry"
)

const (
	numReplicas = 3
	// pullInterval is the replicas' heartbeat/pull cadence: pushes
	// deliver every epoch, the pull loop is the catch-all behind them.
	pullInterval = 10 * time.Second
	// waitLimit bounds every wait on another goroutine (lease
	// registration, convergence, shutdown), so a wedged run fails as an
	// error long before the watchdog has to kill it.
	waitLimit = 60 * time.Second
)

// env is one set-up system under test: a single daemon called
// in-process, or a planner, three replicas and a front end on
// loopback.
type env struct {
	w         *workload
	inst      *core.Instance
	scenarios int    // designed scenarios, Failures.NumScenariosExact()
	control   target // takes POST /v1/solve
	serving   target // takes realize and validate
	srv       *serve.Server
	fleet     *fleetEnv // nil for the single-daemon workloads

	epoch  uint64  // last epoch published through control
	booted bool    // value is set
	value  float64 // the boot solve's objective; every replan must repeat it
}

// prepareInstance does what cmd/pcfd does before it can serve: prepare
// the topology, demand, tunnels and failure set, and (for the ladder
// scheme) build the logical sequences.
func prepareInstance(w *workload) (*core.Instance, error) {
	setup, err := eval.Prepare(w.opts)
	if err != nil {
		return nil, fmt.Errorf("preparing %s: %w", w.name, err)
	}
	in := &core.Instance{
		Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
		Failures: setup.Failures, Objective: core.DemandScale,
	}
	if w.scheme == serve.SchemeBest {
		in, _, err = core.BuildCLSQuick(in)
		if err != nil {
			return nil, fmt.Errorf("building logical sequences for %s: %w", w.name, err)
		}
	}
	return in, nil
}

// setUp is the cold path a user waits for before the system answers:
// prepare the instance, build the daemon (or the fleet), publish the
// boot solve and answer a first realize.
func setUp(ctx context.Context, w *workload) (*env, error) {
	inst, err := prepareInstance(w)
	if err != nil {
		return nil, err
	}
	return setUpOn(ctx, w, inst, w.fleet)
}

// setUpOn builds the system around an already prepared instance.
func setUpOn(ctx context.Context, w *workload, inst *core.Instance, asFleet bool) (*env, error) {
	e := &env{w: w, inst: inst, scenarios: inst.Failures.NumScenariosExact()}
	if asFleet {
		fl, err := startFleet(ctx, inst)
		if err != nil {
			return nil, err
		}
		e.fleet = fl
		e.srv = fl.cores[0]
		e.control = &overHTTP{base: fl.plannerURL, c: fl.client}
		e.serving = &overHTTP{base: fl.frontURL, c: fl.client}
	} else {
		srv, err := serve.NewServer(serve.Config{Instance: inst})
		if err != nil {
			return nil, err
		}
		e.srv = srv
		t := &inproc{h: srv}
		e.control, e.serving = t, t
	}
	boot, _, _, err := e.replan(ctx)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("boot solve: %w", err), e.close())
	}
	e.value, e.booted = boot.Value, true
	if asFleet {
		// The front end learns epochs by probing; probe once now so
		// the first request already sees three fresh backends.
		e.fleet.fe.ProbeOnce(ctx)
	}
	status, body, err := once(ctx, e.serving, http.MethodPost, "/v1/realize?links=0")
	if err == nil {
		err = checkRealize(status, body, e.epoch)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("first realize: %w", err), e.close())
	}
	return e, nil
}

// close stops everything setUp started and returns only once every
// goroutine and listener it owns is gone.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	defer cancel()
	if e.fleet != nil {
		return e.fleet.stop(ctx)
	}
	return errors.Join(e.srv.Shutdown(ctx), e.srv.Close())
}

type solveResponse struct {
	Epoch     uint64  `json:"epoch"`
	Value     float64 `json:"value"`
	Scenarios int     `json:"validated_scenarios"`
}

// replan is one POST /v1/solve. total runs from the request to the
// moment the new plan is served by every serving node: for a single
// daemon that is the response (the swap precedes it), for the fleet it
// is the last replica's publish record, and converge is the part of
// total after the planner's response.
func (e *env) replan(ctx context.Context) (r solveResponse, total, converge time.Duration, err error) {
	start := time.Now()
	status, body, err := once(ctx, e.control, http.MethodPost, "/v1/solve?scheme="+e.w.scheme)
	responded := time.Now()
	if err != nil {
		return r, 0, 0, err
	}
	if status != http.StatusOK {
		return r, 0, 0, fmt.Errorf("solve: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, 0, 0, fmt.Errorf("solve: decoding response: %w", err)
	}
	if r.Epoch != e.epoch+1 {
		return r, 0, 0, fmt.Errorf("solve: epoch %d after %d, want an advance of exactly 1", r.Epoch, e.epoch)
	}
	e.epoch = r.Epoch
	if r.Scenarios != e.scenarios {
		return r, 0, 0, fmt.Errorf("solve: validated %d scenarios, the failure set has %d", r.Scenarios, e.scenarios)
	}
	if e.booted && math.Abs(r.Value-e.value) > 1e-9 {
		return r, 0, 0, fmt.Errorf("solve: value %.12g differs from the first solve's %.12g", r.Value, e.value)
	}
	served := responded
	if e.fleet != nil {
		served, err = e.fleet.conv.wait(ctx, r.Epoch)
		if err != nil {
			return r, 0, 0, err
		}
		if served.Before(responded) {
			// All three pushes landed before the client read the
			// response; the plan was live everywhere by then.
			served = responded
		}
	}
	return r, served.Sub(start), served.Sub(responded), nil
}

// fleetEnv is the loopback fleet: planner, replicas and front end each
// on their own 127.0.0.1:0 listener, all in this process.
type fleetEnv struct {
	cancel context.CancelFunc // stops the replica sync loops and the probe loop
	loops  sync.WaitGroup     // ... and waits for them
	serves sync.WaitGroup     // http.Server.Serve goroutines

	servers   []*http.Server
	addrs     []string        // every listener address, for the leak test
	cores     []*serve.Server // planner core first, then the replicas'
	planner   *fleet.Planner
	replicas  []*fleet.Replica
	fe        *fleet.Frontend
	transport *http.Transport // every client in the fleet shares it
	client    *http.Client

	plannerURL  string
	frontURL    string
	replicaURLs []string

	conv *convergence
	tap  *plannerTap
	fo   failoverCount
}

// listen opens a fresh loopback listener and returns it with its base
// URL. A replica has to know its URL before it is built, so listening
// and serving are two steps.
func (f *fleetEnv) listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	f.addrs = append(f.addrs, ln.Addr().String())
	return ln, "http://" + ln.Addr().String(), nil
}

// serveOn mounts h on ln until stop shuts the server down.
func (f *fleetEnv) serveOn(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: waitLimit}
	f.servers = append(f.servers, hs)
	f.serves.Add(1)
	go func() {
		defer f.serves.Done()
		// Serve returns ErrServerClosed on Shutdown; any other error
		// surfaces as failed requests, which the run counts.
		_ = hs.Serve(ln)
	}()
}

func startFleet(ctx context.Context, inst *core.Instance) (_ *fleetEnv, err error) {
	loopCtx, cancel := context.WithCancel(context.Background())
	f := &fleetEnv{
		cancel:    cancel,
		transport: &http.Transport{MaxIdleConnsPerHost: 4},
		conv:      newConvergence(numReplicas),
		tap:       newPlannerTap(numReplicas),
	}
	f.client = &http.Client{Transport: f.transport, Timeout: 2 * waitLimit}
	defer func() {
		if err != nil {
			stopCtx, stopCancel := context.WithTimeout(context.Background(), waitLimit)
			defer stopCancel()
			err = errors.Join(err, f.stop(stopCtx))
		}
	}()

	plannerCore, err := serve.NewServer(serve.Config{Instance: inst, Source: "planner", Telemetry: f.tap})
	if err != nil {
		return f, err
	}
	f.cores = append(f.cores, plannerCore)
	f.planner = fleet.NewPlanner(plannerCore, fleet.PlannerConfig{PushClient: f.client})
	ln, url, err := f.listen()
	if err != nil {
		return f, err
	}
	f.plannerURL = url
	f.serveOn(ln, f.planner)

	for i := 0; i < numReplicas; i++ {
		name := fmt.Sprintf("replica-%d", i+1)
		rcore, err := serve.NewServer(serve.Config{Instance: inst, Source: name, Telemetry: f.conv.emitter(i)})
		if err != nil {
			return f, err
		}
		f.cores = append(f.cores, rcore)
		ln, url, err := f.listen()
		if err != nil {
			return f, err
		}
		rep := fleet.NewReplica(rcore, fleet.ReplicaConfig{
			Name:         name,
			PlannerURL:   f.plannerURL,
			AdvertiseURL: url,
			Client:       f.client,
			Interval:     pullInterval,
			JitterSeed:   int64(i + 1),
		})
		f.serveOn(ln, rep)
		f.replicas = append(f.replicas, rep)
		f.replicaURLs = append(f.replicaURLs, url)
		f.loops.Add(1)
		go func() {
			defer f.loops.Done()
			rep.Run(loopCtx)
		}()
	}
	// The first heartbeat of each sync loop registers the replica's
	// URL with the planner; only then does a publish get pushed.
	if err := f.tap.waitLeased(ctx); err != nil {
		return f, err
	}

	f.fe, err = fleet.NewFrontend(fleet.FrontendConfig{
		Backends:  f.replicaURLs,
		Transport: f.transport,
		Telemetry: &f.fo,
	})
	if err != nil {
		return f, err
	}
	ln, url, err = f.listen()
	if err != nil {
		return f, err
	}
	f.frontURL = url
	f.serveOn(ln, f.fe)
	f.loops.Add(1)
	go func() {
		defer f.loops.Done()
		f.fe.Run(loopCtx)
	}()
	return f, nil
}

// stop tears the fleet down in dependency order and waits for every
// goroutine it started: loops first (no new syncs or probes), then the
// listeners, then in-flight pushes, then the cores.
func (f *fleetEnv) stop(ctx context.Context) error {
	f.cancel()
	f.loops.Wait()
	// The transport may hold connections it dialled and never used; a
	// server's Shutdown waits five seconds on those unless the client
	// side closes them first.
	f.transport.CloseIdleConnections()
	var errs []error
	for _, hs := range f.servers {
		errs = append(errs, hs.Shutdown(ctx))
	}
	f.serves.Wait()
	if f.planner != nil {
		f.planner.Drain()
	}
	for _, c := range f.cores {
		errs = append(errs, c.Shutdown(ctx), c.Close())
	}
	f.transport.CloseIdleConnections()
	return errors.Join(errs...)
}

// convergence timestamps each replica's publish records, which the
// registry emits right after the swap: the moment a replica starts
// serving an epoch, observed without polling.
type convergence struct {
	replicas int

	mu     sync.Mutex
	count  map[uint64]int
	last   map[uint64]time.Time
	full   map[uint64]chan struct{} // closed once every replica published the epoch
	epochs [][]uint64               // per replica, in arrival order
}

func newConvergence(replicas int) *convergence {
	return &convergence{
		replicas: replicas,
		count:    map[uint64]int{},
		last:     map[uint64]time.Time{},
		full:     map[uint64]chan struct{}{},
		epochs:   make([][]uint64, replicas),
	}
}

// fullCh returns the epoch's completion channel; the caller holds mu.
func (c *convergence) fullCh(epoch uint64) chan struct{} {
	ch := c.full[epoch]
	if ch == nil {
		ch = make(chan struct{})
		c.full[epoch] = ch
	}
	return ch
}

func (c *convergence) emitter(replica int) telemetry.Emitter {
	return telemetry.EmitterFunc(func(r telemetry.Record) {
		if r.Kind != telemetry.KindPublish || r.Outcome != "" {
			return
		}
		now := time.Now()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.epochs[replica] = append(c.epochs[replica], r.Epoch)
		c.count[r.Epoch]++
		if c.count[r.Epoch] == c.replicas {
			c.last[r.Epoch] = now
			close(c.fullCh(r.Epoch))
		}
	})
}

// wait blocks until every replica has published epoch and returns the
// time of the last one.
func (c *convergence) wait(ctx context.Context, epoch uint64) (time.Time, error) {
	c.mu.Lock()
	ch := c.fullCh(epoch)
	c.mu.Unlock()
	timer := time.NewTimer(waitLimit)
	defer timer.Stop()
	select {
	case <-ch:
	case <-ctx.Done():
		return time.Time{}, fmt.Errorf("waiting for epoch %d on every replica: %w", epoch, ctx.Err())
	case <-timer.C:
		return time.Time{}, fmt.Errorf("epoch %d did not reach every replica within %v", epoch, waitLimit)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last[epoch], nil
}

// check verifies the fleet invariants over everything the replicas
// published: epochs strictly increase on each replica, every one was
// published by the planner (1..newest), and every replica reached
// every epoch. It returns the number of violations and of regressions
// among them.
func (c *convergence) check(newest uint64) (violations, regressions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, seq := range c.epochs {
		for i, ep := range seq {
			if i > 0 && ep <= seq[i-1] {
				regressions++
				violations++
			}
			if ep == 0 || ep > newest {
				violations++
			}
		}
		if uint64(len(seq)) != newest {
			violations++
		}
	}
	return violations, regressions
}

// audit counts every broken fleet invariant and every failed push as
// a failed operation and returns the number of epoch regressions.
func (f *fleetEnv) audit(newest uint64, t *tally) (regressions int) {
	violations, regressions := f.conv.check(newest)
	for i := 0; i < violations; i++ {
		t.op(errors.New("fleet: a replica's epochs do not strictly increase, are not the planner's, or miss one"))
	}
	_, pushFailed := f.tap.pushes()
	for i := 0; i < pushFailed; i++ {
		t.op(errors.New("fleet: a push failed"))
	}
	t.op(nil) // the audit itself
	return regressions
}

// plannerTap watches the planner's record stream for lease grants
// (replica registration) and pushes (their durations).
type plannerTap struct {
	want int

	mu        sync.Mutex
	leased    map[string]bool
	allLeased chan struct{}
	pushMS    []float64
	pushFail  int
}

func newPlannerTap(want int) *plannerTap {
	return &plannerTap{want: want, leased: map[string]bool{}, allLeased: make(chan struct{})}
}

func (t *plannerTap) Emit(r telemetry.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch r.Kind {
	case telemetry.KindLease:
		if !t.leased[r.Name] {
			t.leased[r.Name] = true
			if len(t.leased) == t.want {
				close(t.allLeased)
			}
		}
	case telemetry.KindPush:
		if r.Outcome != "" {
			t.pushFail++
			return
		}
		t.pushMS = append(t.pushMS, float64(r.Dur)/float64(time.Millisecond))
	}
}

func (t *plannerTap) waitLeased(ctx context.Context) error {
	timer := time.NewTimer(waitLimit)
	defer timer.Stop()
	select {
	case <-t.allLeased:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("waiting for replicas to register: %w", ctx.Err())
	case <-timer.C:
		return fmt.Errorf("replicas did not register with the planner within %v", waitLimit)
	}
}

func (t *plannerTap) pushes() (ms []float64, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.pushMS...), t.pushFail
}

// failoverCount counts the front end's failover records (ejections,
// retries, no-backend refusals). A healthy run has none.
type failoverCount struct {
	mu sync.Mutex
	n  int
}

func (c *failoverCount) Emit(r telemetry.Record) {
	if r.Kind != telemetry.KindFailover {
		return
	}
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *failoverCount) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
