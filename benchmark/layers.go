package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/failures"
	"pcf/internal/fleet"
	"pcf/internal/linsolve"
	"pcf/internal/mcf"
	"pcf/internal/routing"
	"pcf/internal/serve"
	"pcf/internal/telemetry"
	"pcf/internal/topology"
)

// tracedRun is the --trace 1 run: the end-to-end phases at half the
// repetitions (for the raw medians and the tracing overhead), then
// every layer's exported entry point called directly in the handlers'
// order, with a span around each call. Per-layer timings go through
// the same calibrated sampler as the end-to-end ones, so a layer's
// number can be set against the end-to-end number it should move.
func tracedRun(ctx context.Context, w *workload, seed int64, r reps, k *calibrator, t *tally, spansPath string) (_ *metricSet, err error) {
	e, o, err := runEndToEnd(ctx, w, seed, r.halved(), k, t)
	if e != nil {
		defer func() {
			if e != nil {
				err = errors.Join(err, e.close())
			}
		}()
	}
	if err != nil {
		return nil, err
	}
	pub, err := e.srv.Registry().Current()
	if err != nil {
		return nil, err
	}
	l := &layers{
		ctx: ctx, w: w, k: k, t: t, ms: newMetricSet(), tr: newTracer(),
		inst: e.inst, plan: pub.Plan,
		cycle: scenarioCycle(e.inst.Graph.NumLinks(), e.inst.Failures.Budget, seed),
	}
	respondMS := median(o.respond.cal)

	steps := []func() error{
		l.evalLayer,
		func() error { return l.replanOps(max(2, r.replan/2), respondMS) },
		l.routingLayer,
		l.failuresLayer,
		func() error { return l.serveLayer(e, o) },
		func() error { return l.telemetryLayer(e) },
		l.linsolveKernels,
		l.mcfKernels,
		func() error { return l.convergeOps(2) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	// The loopback leg builds its own fleet; the measured system is
	// shut down first so at most one set of listeners is ever open.
	err = e.close()
	e = nil
	if err != nil {
		return nil, err
	}
	if err := l.fleetLeg(max(2, r.replan/4)); err != nil {
		return nil, err
	}

	ms := l.ms
	ms.set("host.cal_ms_p50", median(k.ms), "ms")
	ms.set("host.cal_ms_p90", quantile(k.ms, 0.9), "ms")
	ms.set("host.nproc", float64(runtime.NumCPU()), "count")
	ms.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	ms.set("raw.setup_s", median(o.setup.raw), "s")
	ms.set("raw.replan_ms", median(o.replan.raw), "ms")
	ms.set("raw.validate_ms", median(o.validate.raw), "ms")
	ms.set("raw.validate_sampled_ms", median(o.sampled.raw), "ms")
	ms.set("raw.realize_us", median(o.realize.raw), "us")
	if e2e := len(o.converge.cal); e2e > 0 {
		ms.note("end-to-end converge (solve response -> last replica swapped), %d cycles: %.4g ms", e2e, median(o.converge.cal))
	}
	total, self := layerTimes(l.tr.spans)
	for _, name := range []string{"replan", "core.solve", "serve.publish", "routing.validate", "routing.newsweep",
		"converge", "serve.envelope_encode", "fleet.apply", "serve.envelope_decode"} {
		ms.note("span %-22s total %10.3f ms  self %10.3f ms", name, total[name], self[name])
	}
	if err := l.tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	ms.note("%d spans written to %s", len(l.tr.spans), spansPath)
	return ms, nil
}

// layers carries what the direct layer calls share.
type layers struct {
	ctx   context.Context
	w     *workload
	k     *calibrator
	t     *tally
	ms    *metricSet
	tr    *tracer
	inst  *core.Instance
	plan  *core.Plan // the plan the measured system serves
	cycle []string   // the realize scenario cycle of this seed
	op    int        // last operation ID handed out

	validateMS, newsweepMS, realizeSMWUS float64
}

// timeMS runs f n times, each as one calibrated sample after a forced
// collection, and returns the median in milliseconds.
func (l *layers) timeMS(n int, f func() error) (float64, error) {
	var cals []float64
	for i := 0; i < n; i++ {
		var err error
		cal, _ := l.k.gcThenSample(wall(func() { err = f() }))
		if err != nil {
			return 0, err
		}
		cals = append(cals, cal)
	}
	return median(cals), nil
}

// perCallUS times one calibrated sample of calls back-to-back calls of
// f and returns the mean per call in microseconds.
func (l *layers) perCallUS(calls int, f func(i int) error) (float64, error) {
	var err error
	cal, _ := l.k.gcThenSample(wall(func() {
		for i := 0; i < calls && err == nil; i++ {
			err = f(i)
		}
	}))
	return cal * 1000 / float64(calls), err
}

// solver maps a workload's scheme to the solver the daemon's handler
// runs for it.
func solver(scheme string) func(*core.Instance, core.SolveOptions) (*core.Plan, error) {
	switch scheme {
	case serve.SchemeBest:
		return core.SolveBest
	case "PCF-TF":
		return core.SolvePCFTF
	}
	return nil
}

func (l *layers) evalLayer() error {
	prepare, err := l.timeMS(2, func() error {
		_, err := eval.Prepare(l.w.opts)
		return err
	})
	if err != nil {
		return err
	}
	l.ms.set("eval.prepare_ms", prepare, "ms")
	// BuildCLSQuick runs on the bare instance whatever the scheme, so
	// the number exists on every workload; only scheme=best pays it at
	// set-up.
	bare := *l.inst
	bare.LSs = nil
	cls, err := l.timeMS(2, func() error {
		_, _, err := core.BuildCLSQuick(&bare)
		return err
	})
	if err != nil {
		return err
	}
	l.ms.set("core.buildcls_ms", cls, "ms")
	return nil
}

// exactCounts are the counters that must repeat exactly from one
// repetition to the next.
type exactCounts struct {
	iterations, rounds, cuts, warmHits, refactors, factorNNZ, maxEtaLen int
	scenarios, smwHits, fallbacks, maxRank                              int
}

// replanOps replays the solve handler's work as direct calls, n times:
// solve, then what Registry.Publish does — validation sweep, sweep-base
// build and (under a planner) envelope encoding. handlerMS is the
// untraced handler's median, which the spans must account for.
func (l *layers) replanOps(n int, handlerMS float64) error {
	solve := solver(l.w.scheme)
	fingerprint := serve.Fingerprint(l.inst)
	var solveMS, solveAllocMB, rootMS, covered []float64
	var first exactCounts
	var stats core.SolveStats
	var sweepStats *routing.SweepStats
	var sweep *routing.Sweep
	for i := 0; i <= n; i++ {
		l.op++
		var root, solveID, pubID int
		var err error
		var alloc uint64
		spansBefore := len(l.tr.spans)
		cal, raw := l.k.gcThenSample(wall(func() {
			root = l.tr.begin("replan", 0, l.op)
			defer func() { l.tr.end(root, nil) }()
			var plan *core.Plan
			before := totalAlloc()
			solveID = l.tr.call("core.solve", root, l.op, func() map[string]float64 {
				plan, err = solve(l.inst, core.SolveOptions{Context: l.ctx})
				if err != nil {
					return nil
				}
				stats = plan.Stats
				return stats.Metrics()
			})
			alloc = totalAlloc() - before
			if err != nil {
				return
			}
			pubID = l.tr.begin("serve.publish", root, l.op)
			defer func() { l.tr.end(pubID, nil) }()
			l.tr.call("routing.validate", pubID, l.op, func() map[string]float64 {
				sweepStats, err = routing.ValidateStats(l.ctx, plan, routing.ValidateOptions{})
				if err != nil {
					return nil
				}
				return sweepStats.Metrics()
			})
			if err != nil {
				return
			}
			l.tr.call("routing.newsweep", pubID, l.op, func() map[string]float64 {
				sweep, err = routing.NewSweepContext(l.ctx, plan)
				return nil
			})
			if err != nil || !l.w.fleet {
				return
			}
			l.tr.call("serve.envelope_encode", pubID, l.op, func() map[string]float64 {
				var data []byte
				data, err = encodeEnvelope(uint64(l.op), fingerprint, plan)
				return map[string]float64{"bytes": float64(len(data))}
			})
		}))
		if err != nil {
			return fmt.Errorf("traced replan: %w", err)
		}
		got := exactCounts{
			stats.LPIterations, stats.Rounds, stats.Cuts, stats.WarmHits, stats.Refactors, stats.FactorNNZ, stats.MaxEtaLen,
			sweepStats.Scenarios, sweepStats.SMWHits, sweepStats.Fallbacks, sweepStats.MaxRank,
		}
		if i == 0 {
			// Warm-up: its spans are dropped with it.
			first = got
			l.tr.spans = l.tr.spans[:spansBefore]
			continue
		}
		var countErr error
		if got != first {
			countErr = fmt.Errorf("exact counts changed between repetitions: %+v then %+v", first, got)
		}
		l.t.op(countErr)
		dur := func(id int) float64 { return l.tr.ms(id) * cal / raw }
		solveMS = append(solveMS, dur(solveID))
		solveAllocMB = append(solveAllocMB, float64(alloc)/(1<<20))
		rootMS = append(rootMS, dur(root))
		covered = append(covered, (dur(solveID)+dur(pubID))/handlerMS)
	}

	ms := l.ms
	solveMed := median(solveMS)
	ms.set("lp.iterations", float64(stats.LPIterations), "count")
	ms.set("lp.refactors", float64(stats.Refactors), "count")
	ms.set("lp.factor_nnz", float64(stats.FactorNNZ), "count")
	ms.set("lp.fill_ratio", stats.FillRatio(), "ratio")
	ms.set("lp.max_eta_len", float64(stats.MaxEtaLen), "count")
	ms.set("lp.compile_ms", float64(stats.CompileTime)/float64(time.Millisecond), "ms")
	ms.set("lp.us_per_iter", solveMed*1000/float64(stats.LPIterations), "us")
	ms.set("core.solve_ms", solveMed, "ms")
	ms.set("core.solve_alloc_mb", median(solveAllocMB), "MB")
	ms.set("core.rounds", float64(stats.Rounds), "count")
	ms.set("core.cuts", float64(stats.Cuts), "count")
	ms.set("core.warm_hits", float64(stats.WarmHits), "count")
	ms.set("linsolve.base_factor_ms", float64(sweep.BaseFactorTime())/float64(time.Millisecond), "ms")
	ms.set("routing.scenarios", float64(sweepStats.Scenarios), "count")
	ms.set("routing.smw_hit_rate", sweepStats.SMWHitRate(), "ratio")
	ms.set("routing.fallbacks", float64(sweepStats.Fallbacks), "count")
	ms.set("routing.batch_hits", float64(sweepStats.BatchHits), "count")
	ms.set("routing.max_rank", float64(sweepStats.MaxRank), "count")
	ms.set("trace.replan_coverage", median(covered), "ratio")
	ms.set("trace.overhead_pct", (median(rootMS)-handlerMS)/handlerMS*100, "%")
	return nil
}

func encodeEnvelope(epoch uint64, fingerprint string, plan *core.Plan) ([]byte, error) {
	env, err := serve.NewEnvelope(epoch, fingerprint, plan)
	if err != nil {
		return nil, err
	}
	return env.Encode()
}

// scenarioOf turns a ?links= value into the scenario the realize
// handler builds from it.
func scenarioOf(links string) (failures.Scenario, error) {
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{}}
	for _, part := range strings.Split(links, ",") {
		id, err := strconv.Atoi(part)
		if err != nil {
			return sc, err
		}
		sc.Dead[topology.LinkID(id)] = true
	}
	return sc, nil
}

func (l *layers) routingLayer() error {
	ms := l.ms
	var stats *routing.SweepStats
	var err error
	if l.validateMS, err = l.timeMS(3, func() error {
		stats, err = routing.ValidateStats(l.ctx, l.plan, routing.ValidateOptions{})
		return err
	}); err != nil {
		return err
	}
	ms.set("routing.validate_ms", l.validateMS, "ms")
	ms.set("routing.us_per_scenario", l.validateMS*1000/float64(stats.Scenarios), "us")

	var sweep *routing.Sweep
	if l.newsweepMS, err = l.timeMS(3, func() error {
		sweep, err = routing.NewSweepContext(l.ctx, l.plan)
		return err
	}); err != nil {
		return err
	}
	ms.set("routing.newsweep_ms", l.newsweepMS, "ms")

	scs := make([]failures.Scenario, len(l.cycle))
	for i, links := range l.cycle {
		if scs[i], err = scenarioOf(links); err != nil {
			return err
		}
	}
	var last *routing.Realization
	realize := func(i int) error {
		last, err = sweep.Realize(scs[i%len(scs)])
		return err
	}
	if _, err = l.perCallUS(len(scs), realize); err != nil { // fills the sweep's lazy caches
		return err
	}
	if l.realizeSMWUS, err = l.perCallUS(2*len(scs), realize); err != nil {
		return err
	}
	ms.set("routing.realize_smw_us", l.realizeSMWUS, "us")
	check, err := l.perCallUS(2*len(scs), func(int) error { return sweep.Check(last) })
	if err != nil {
		return err
	}
	ms.set("routing.check_us", check, "us")
	// The cold path refactorizes per scenario: milliseconds each at
	// 1000 nodes, so it gets a fixed small number of calls.
	coldCalls := min(400, max(20, 4000/l.inst.Graph.NumNodes()))
	cold, err := l.perCallUS(coldCalls, func(i int) error {
		_, err := routing.Realize(l.plan, scs[i%len(scs)])
		return err
	})
	if err != nil {
		return err
	}
	ms.set("routing.realize_cold_us", cold, "us")

	pm, err := failures.Uniform(l.inst.Failures, 0.01)
	if err != nil {
		return err
	}
	var rep *routing.SampledReport
	sampled, err := l.timeMS(2, func() error {
		rep, err = routing.ValidateSampled(l.ctx, l.plan, routing.SampleOptions{Model: pm, Samples: 1000, Seed: contentSeed})
		return err
	})
	if err != nil {
		return err
	}
	ms.set("routing.sampled_ms", sampled, "ms")
	ms.set("routing.sampled_fallbacks", float64(rep.Stats.Fallbacks), "count")
	ms.set("routing.sampled_max_rank", float64(rep.Stats.MaxRank), "count")

	search, err := l.timeMS(2, func() error {
		_, err := routing.WorstMLUSearch(l.ctx, l.plan, core.SearchOptions{Seed: contentSeed})
		return err
	})
	if err != nil {
		return err
	}
	ms.set("core.search_ms", search, "ms")

	// The one ungated multi-P number: the same sweep with every CPU.
	// On a shared 2-vCPU machine it says how much a second P is worth
	// right now, not how fast the code is.
	runtime.GOMAXPROCS(runtime.NumCPU())
	par, err := l.timeMS(3, func() error {
		_, err := routing.ValidateStats(l.ctx, l.plan, routing.ValidateOptions{})
		return err
	})
	runtime.GOMAXPROCS(1)
	if err != nil {
		return err
	}
	ms.set("routing.validate_par_ms", par, "ms")
	ms.set("routing.par_speedup", l.validateMS/par, "ratio")
	return nil
}

func (l *layers) failuresLayer() error {
	fs := l.inst.Failures
	n := fs.NumScenariosExact()
	passes := max(1, 400000/n)
	enum, err := l.perCallUS(passes, func(int) error {
		seen := 0
		fs.Enumerate(func(failures.Scenario) bool { seen++; return true })
		if seen != n {
			return fmt.Errorf("failures: enumerated %d scenarios, NumScenariosExact says %d", seen, n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.ms.set("failures.enumerate_us_per_scn", enum/float64(n), "us")

	pm, err := failures.Uniform(fs, 0.01)
	if err != nil {
		return err
	}
	sampler, err := pm.NewSampler(contentSeed, fs.Budget, fs.Budget+8)
	if err != nil {
		return err
	}
	draw, err := l.perCallUS(20000, func(int) error { sampler.Next(); return nil })
	if err != nil {
		return err
	}
	l.ms.set("failures.sample_us_per_draw", draw, "us")
	return nil
}

// gcCPU reads the runtime's cumulative GC CPU seconds and CPU seconds
// not spent idle.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, v := range s {
		if v.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// handlerRealizeUS is the mean realize time through t over passes
// uninterrupted passes of the cycle, as one calibrated sample, with
// the share of the loop's CPU that went to the collector.
func (l *layers) handlerRealizeUS(t target, epoch uint64, passes int) (us, gcShare float64, err error) {
	reqs, err := realizeRequests(l.ctx, t, l.cycle)
	if err != nil {
		return 0, 0, err
	}
	var b batch
	ok := true
	pass := func() {
		_, _, _, passOK := realizeBatch(t, reqs, &b, epoch, l.t, nil)
		ok = ok && passOK
	}
	pass() // connections, lazy caches
	var gc0, busy0, gc1, busy1 float64
	cal, _ := l.k.gcThenSample(func() time.Duration {
		gc0, busy0 = gcCPU()
		start := time.Now()
		for i := 0; i < passes; i++ {
			pass()
		}
		d := time.Since(start)
		gc1, busy1 = gcCPU()
		return d
	})
	if !ok {
		return 0, 0, errors.New("realize loop had failed operations")
	}
	if busy1 > busy0 {
		gcShare = (gc1 - gc0) / (busy1 - busy0)
	}
	return cal * 1000 / float64(passes*len(reqs)), gcShare, nil
}

func (l *layers) serveLayer(e *env, o *endToEnd) error {
	ms := l.ms
	publish, err := l.timeMS(2, func() error {
		_, err := serve.NewRegistry(nil, nil).Publish(l.ctx, l.plan)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("serve.publish_ms", publish, "ms")
	ms.set("serve.publish_self_ms", publish-l.validateMS-l.newsweepMS, "ms")

	// The daemon's own handler in-process (on the fleet workload the
	// planner's core, which serves the same plan), so that what is left
	// after routing.realize_smw_us is serve's: parse, admission,
	// telemetry, JSON.
	handler, gcShare, err := l.handlerRealizeUS(&inproc{h: e.srv}, e.epoch, 6)
	if err != nil {
		return err
	}
	ms.set("serve.realize_self_us", handler-l.realizeSMWUS, "us")
	ms.set("serve.realize_gc_share", gcShare, "ratio")
	ms.set("trace.realize_coverage", l.realizeSMWUS/handler, "ratio")
	// Percentiles of the workload's own realize path (through the
	// front end on the fleet workload), raw: not gated, p99 has
	// len/100 ≥ 10 samples beyond it.
	ms.set("serve.realize_p50_us", quantile(o.latencyUS, 0.50), "us")
	ms.set("serve.realize_p99_us", quantile(o.latencyUS, 0.99), "us")
	ms.set("serve.shed", float64(o.shed), "count")
	return nil
}

func (l *layers) telemetryLayer(e *env) error {
	store, err := telemetry.Open("", telemetry.StoreConfig{})
	if err != nil {
		return err
	}
	rec := telemetry.Record{
		Kind: telemetry.KindRequest, Source: "pcfd", Name: "realize", Scheme: l.plan.Scheme,
		Epoch: 1, Dur: 50 * time.Microsecond,
		Fields: map[string]float64{"mlu": 0.9, "max_u": 0.8, "dead_links": 1, "deadline_slack_ms": 9999},
	}
	emit, err := l.perCallUS(50000, func(int) error { store.Emit(rec); return nil })
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.ms.set("telemetry.emit_us", emit, "us")

	// One group-by over the ring the run itself filled.
	query, err := l.timeMS(5, func() error {
		_, err := e.srv.Telemetry().Query(telemetry.Query{
			Kind: telemetry.KindRequest, GroupBy: "name", Metric: "dur_ms",
		})
		return err
	})
	if err != nil {
		return err
	}
	l.ms.set("telemetry.query_ms", query, "ms")
	return nil
}

// mMatrix returns a seeded, strictly diagonally dominant n×n matrix
// with non-positive off-diagonal entries (an M-matrix, like the
// reservation matrices of paper Prop. 5) with offDiag entries per row,
// each within window columns of the diagonal (network matrices couple
// neighbours; uniformly random columns would fill the factors in
// completely), as dense row-major data and as sparse rows.
func mMatrix(n, offDiag, window int, seed int64) ([]float64, [][]linsolve.SparseEntry) {
	rng := rand.New(rand.NewSource(seed))
	dense := make([]float64, n*n)
	rows := make([][]linsolve.SparseEntry, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for len(rows[i]) < offDiag {
			j := i - window + rng.Intn(2*window+1)
			if j < 0 || j >= n || j == i || dense[i*n+j] < 0 {
				continue
			}
			v := -(0.1 + rng.Float64())
			dense[i*n+j] = v
			rows[i] = append(rows[i], linsolve.SparseEntry{Col: j, Val: v})
			sum -= v
		}
		dense[i*n+i] = sum + 1
		rows[i] = append(rows[i], linsolve.SparseEntry{Col: i, Val: sum + 1})
	}
	return dense, rows
}

// linsolveKernels times the factorizations on fixed seeded matrices,
// identical in every workload: the layer's speed with the instance
// taken out.
func (l *layers) linsolveKernels() error {
	ms := l.ms
	const n = 64
	dense, _ := mMatrix(n, 8, n, 1)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%7) + 1
	}
	var lu *linsolve.LU
	factor, err := l.perCallUS(400, func(int) error {
		var err error
		lu, err = linsolve.Factor(dense, n)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("linsolve.lu_factor_us", factor, "us")
	x := make([]float64, n)
	solve, err := l.perCallUS(20000, func(int) error { return lu.SolveInto(x, rhs) })
	if err != nil {
		return err
	}
	ms.set("linsolve.lu_solve_us", solve, "us")

	up, err := lu.RankUpdate([]linsolve.RowUpdate{
		{Row: 3, Cols: []int{3, 9}, Vals: []float64{0.5, -0.25}},
		{Row: 17, Cols: []int{17, 40}, Vals: []float64{0.75, -0.5}},
	})
	if err != nil {
		return err
	}
	dst := make([]float64, n)
	correct, err := l.perCallUS(100000, func(int) error { return up.CorrectInto(dst, x) })
	if err != nil {
		return err
	}
	ms.set("linsolve.smw_correct_us", correct, "us")

	const sn = 2048
	_, rows := mMatrix(sn, 4, 32, 2)
	var slu *linsolve.SparseLU
	sfactor, err := l.timeMS(5, func() error {
		var err error
		slu, err = linsolve.FactorSparseRows(rows, sn)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("linsolve.sparse_factor_ms", sfactor, "ms")
	sx, srhs := make([]float64, sn), make([]float64, sn)
	for i := range srhs {
		srhs[i] = float64(i%7) + 1
	}
	ssolve, err := l.perCallUS(400, func(int) error { return slu.SolveInto(sx, srhs) })
	if err != nil {
		return err
	}
	ms.set("linsolve.sparse_solve_us", ssolve, "us")
	return nil
}

// mcfKernels times the optimal-response baseline on one fixed small
// instance (Sprint, 45 pairs, f=1), identical in every workload: the
// sweep over the workload's own instance takes 47 s on BTNorthAmerica
// f=2 and a cold MCF does not finish in minutes at 1000 nodes. The
// warm dual-simplex path it exercises is the one the cut loop's
// re-solves take.
func (l *layers) mcfKernels() error {
	setup, err := eval.Prepare(eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1})
	if err != nil {
		return err
	}
	cold, err := l.timeMS(5, func() error {
		_, err := mcf.MaxConcurrentFlow(setup.Graph, setup.TM, nil)
		return err
	})
	if err != nil {
		return err
	}
	l.ms.set("lp.cold_mcf_ms", cold, "ms")
	var stats *mcf.SweepStats
	sweep, err := l.timeMS(5, func() error {
		var err error
		_, _, stats, err = mcf.OptimalUnderFailuresStats(l.ctx, setup.Graph, setup.TM, setup.Failures)
		return err
	})
	if err != nil {
		return err
	}
	l.ms.set("mcf.sweep_ms", sweep, "ms")
	l.ms.set("mcf.warm_hit_rate", stats.WarmHitRate(), "ratio")
	return nil
}

// convergeOps replays what a publish costs the fleet as direct calls,
// n times: the planner encodes the envelope once, each of three
// replicas decodes it and applies it (decode the plan, re-validate,
// build the sweep base, swap). No network: fleetLeg measures that.
func (l *layers) convergeOps(n int) error {
	fingerprint := serve.Fingerprint(l.inst)
	var cores []*serve.Server
	var reps []*fleet.Replica
	defer func() {
		for _, c := range cores {
			// Nothing was ever in flight on these scratch cores.
			_ = c.Shutdown(l.ctx)
			_ = c.Close()
		}
	}()
	for i := 0; i < numReplicas; i++ {
		c, err := serve.NewServer(serve.Config{Instance: l.inst, Source: fmt.Sprintf("scratch-%d", i+1)})
		if err != nil {
			return err
		}
		cores = append(cores, c)
		reps = append(reps, fleet.NewReplica(c, fleet.ReplicaConfig{Name: fmt.Sprintf("scratch-%d", i+1)}))
	}
	var encodeMS, decodeMS, applyMS, kb []float64
	for i := 0; i <= n; i++ {
		l.op++
		epoch := uint64(i + 1)
		var err error
		var encID int
		var decIDs, applyIDs []int
		var size int
		spansBefore := len(l.tr.spans)
		cal, raw := l.k.gcThenSample(wall(func() {
			root := l.tr.begin("converge", 0, l.op)
			defer func() { l.tr.end(root, nil) }()
			var data []byte
			encID = l.tr.call("serve.envelope_encode", root, l.op, func() map[string]float64 {
				data, err = encodeEnvelope(epoch, fingerprint, l.plan)
				return map[string]float64{"bytes": float64(len(data))}
			})
			size = len(data)
			for _, rep := range reps {
				if err != nil {
					return
				}
				applyID := l.tr.begin("fleet.apply", root, l.op)
				var env *serve.Envelope
				decIDs = append(decIDs, l.tr.call("serve.envelope_decode", applyID, l.op, func() map[string]float64 {
					env, err = serve.DecodeEnvelope(data)
					return nil
				}))
				if err == nil {
					_, err = rep.Apply(l.ctx, env)
				}
				l.tr.end(applyID, nil)
				applyIDs = append(applyIDs, applyID)
			}
		}))
		if err != nil {
			return fmt.Errorf("traced converge: %w", err)
		}
		if i == 0 {
			l.tr.spans = l.tr.spans[:spansBefore]
			continue
		}
		dur := func(id int) float64 { return l.tr.ms(id) * cal / raw }
		encodeMS = append(encodeMS, dur(encID))
		kb = append(kb, float64(size)/1024)
		for j := range applyIDs {
			decodeMS = append(decodeMS, dur(decIDs[j]))
			applyMS = append(applyMS, dur(applyIDs[j]))
		}
	}
	l.ms.set("serve.envelope_encode_ms", median(encodeMS), "ms")
	l.ms.set("serve.envelope_decode_ms", median(decodeMS), "ms")
	l.ms.set("serve.envelope_kb", median(kb), "KB")
	l.ms.set("fleet.apply_ms", median(applyMS), "ms")
	return nil
}

// fleetLeg stands the loopback fleet up around the same instance and
// plan and runs cycles publish → converge cycles on it, whatever the
// workload, so the fleet layer's numbers exist (and mean the same)
// everywhere. A cycle publishes the already solved plan on the
// planner's registry — validate, sweep base, swap, envelope, push — so
// it costs no solve. Realize then goes through the front end, straight
// to a replica over loopback, and into that replica's handler
// in-process; the differences are the front end's and net/http's
// shares.
func (l *layers) fleetLeg(cycles int) (err error) {
	fl, err := startFleet(l.ctx, l.inst)
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
		defer cancel()
		err = errors.Join(err, fl.stop(ctx))
	}()
	var convergeMS []float64
	var epoch uint64
	for i := 0; i <= cycles; i++ {
		var converge time.Duration
		var cerr error
		cal, raw := l.k.gcThenSample(func() time.Duration {
			start := time.Now()
			var pub *serve.Published
			pub, cerr = fl.cores[0].Registry().Publish(l.ctx, l.plan)
			if cerr != nil {
				return time.Since(start)
			}
			published := time.Now()
			epoch = pub.Epoch
			var last time.Time
			last, cerr = fl.conv.wait(l.ctx, epoch)
			if last.Before(published) {
				last = published // every push landed before Publish returned
			}
			converge = last.Sub(published)
			return last.Sub(start)
		})
		l.t.op(cerr)
		if cerr != nil {
			return fmt.Errorf("fleet leg cycle %d: %w", i, cerr)
		}
		if i > 0 {
			convergeMS = append(convergeMS, float64(converge)/float64(time.Millisecond)*cal/raw)
		}
	}
	regressions := fl.audit(epoch, l.t)
	pushes, _ := fl.tap.pushes()

	fl.fe.ProbeOnce(l.ctx)
	const passes = 3
	viaFE, _, err := l.handlerRealizeUS(&overHTTP{base: fl.frontURL, c: fl.client}, epoch, passes)
	if err != nil {
		return err
	}
	direct, _, err := l.handlerRealizeUS(&overHTTP{base: fl.replicaURLs[0], c: fl.client}, epoch, passes)
	if err != nil {
		return err
	}
	inProcess, _, err := l.handlerRealizeUS(&inproc{h: http.Handler(fl.replicas[0])}, epoch, passes)
	if err != nil {
		return err
	}
	ms := l.ms
	ms.set("fleet.push_ms", median(pushes), "ms")
	ms.set("fleet.converge_ms", median(convergeMS), "ms")
	ms.set("fleet.converge_p90_ms", quantile(convergeMS, 0.9), "ms")
	ms.set("fleet.fe_self_us", viaFE-direct, "us")
	ms.set("fleet.loopback_us", direct-inProcess, "us")
	ms.set("fleet.failovers", float64(fl.fo.count()), "count")
	ms.set("fleet.epoch_regressions", float64(regressions), "count")
	return nil
}
