package routing

// Scenario sweeps: the worker pool that drives an engine over a
// scenario list, and the validation entry points built on it.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
)

// sweepWorkerCount sizes the worker pool: one worker per P, since a
// worker beyond GOMAXPROCS runs in no parallel and only adds a scratch
// whose allocation depends on when the scheduler first runs it. A hook
// rather than a direct runtime.GOMAXPROCS(0) call so tests can force
// multi-worker sweeps (and race-detect the merge) on single-core
// machines.
var sweepWorkerCount = func() int { return runtime.GOMAXPROCS(0) }

// sweepSlot is one scenario's outcome in enumeration order: what a
// scenario served without error comes to (Outcome's three numbers), or
// its error.
type sweepSlot struct {
	mlu   float64
	maxU  float64
	err   error
	pairs int32
	done  bool
}

// scenarioFill writes scenario i of a sweep's list into dst, reusing
// dst's storage where it can.
type scenarioFill func(i int, dst *failures.Scenario)

// fresh returns scenario i of the list in storage of its own: the form
// a scenario takes when it leaves the sweep (a worst scenario, an error
// message).
func (fill scenarioFill) fresh(i int) failures.Scenario {
	var sc failures.Scenario
	fill(i, &sc)
	return sc
}

// sweepSome realizes n scenarios through sw on a GOMAXPROCS-bounded
// worker pool with per-worker scratch — fill writes the i-th into the scenario
// of the worker that claims it — checking each served scenario straight
// from the flat emission there (judge; no Realization is built), and
// returns the outcomes in index order: the same deterministic contract
// as mcf's scenario sweep. It realizes scenario i only where
// realizes(i) holds (every one, when realizes is nil). A scenario it
// does not realize is claimed, checked against ctx and marked done like
// the others, but not filled: its slot is left for the caller to fill.
// Workers claim indexes from an atomic counter and the callers merge
// the slot array in order, so worker scheduling never changes an
// answer. stopOnError selects the designed-set contract — a worker
// bails at its first failing scenario — while the sampled path sets it
// false and keeps sweeping, since beyond-budget scenarios are expected
// to fail sometimes and each outcome is a measurement, not an abort.
// The stats count this call's scenarios only, whoever else is using
// the engine meanwhile. A nil ctx means no deadline.
func sweepSome(ctx context.Context, sw *Sweep, check, stopOnError bool, n int, fill scenarioFill, realizes func(int) bool) ([]sweepSlot, *SweepStats) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	stats := &SweepStats{Scenarios: n, Classes: n, BaseFactorTime: sw.baseTime}
	workers := min(sweepWorkerCount(), n)
	stats.Workers = workers

	slots := make([]sweepSlot, n)
	perWorker := make([]SweepStats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Taken before the worker starts, so every worker holds a
		// scratch of its own however the scheduler runs them.
		sr := sw.pool.Get().(*sweepScratch)
		go func(ws *SweepStats) {
			defer wg.Done()
			defer sw.pool.Put(sr)
			// sc is refilled for every index; an error that may hold it
			// takes it, and the worker starts a new one.
			var sc failures.Scenario
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				slots[i].done = true
				if realizes != nil && !realizes(i) {
					if err := ctx.Err(); err != nil {
						slots[i].err = fmt.Errorf("routing: scenario sweep canceled at scenario %d: %w", i, err)
						return
					}
					continue
				}
				fill(i, &sc)
				if err := ctx.Err(); err != nil {
					slots[i].err = fmt.Errorf("routing: scenario sweep canceled at %v: %w", sc, err)
					return
				}
				var mlu float64
				sv, err := sw.realize(sc, sr)
				if err == nil {
					ws.count(sv)
					mlu, err = sw.judge(sc, sr, nil, check)
					ws.ArcChecks += sr.arcChecks
				}
				if err != nil {
					slots[i].err, sc = err, failures.Scenario{}
					if stopOnError {
						return
					}
					continue
				}
				slots[i].mlu, slots[i].maxU, slots[i].pairs = mlu, sr.maxU, int32(sr.inCount)
			}
		}(&perWorker[w])
	}
	wg.Wait()
	for _, ws := range perWorker {
		stats.add(ws)
	}
	stats.Total = time.Since(start)
	return slots, stats
}

// sweepDesigned sweeps the designed set through s: one representative
// per class (sweepclass.go), slot i holding class i's outcome, which is
// every member's bit for bit, and fill writing its representative
// (fill.fresh(i) in storage of its own). Classes are in the enumeration
// order of their representatives, each a class's first member, so the
// first failing slot is the designed set's first failing scenario, and
// the first slot of the largest MLU its first scenario of that MLU. The
// stats count the designed set as its Scenarios and the classes
// realized as its Classes; Total includes the class build if this call
// made it. A checked pass is offered to the engine to keep (keep).
func (s *Sweep) sweepDesigned(ctx context.Context, check bool) (fill scenarioFill, slots []sweepSlot, stats *SweepStats, err error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	cls, err := s.designed(ctx)
	if err != nil {
		return nil, nil, &SweepStats{BaseFactorTime: s.baseTime, Total: time.Since(start)}, err
	}
	fill = cls.fill(s.plan.Instance.Failures)
	slots, stats = sweepSome(ctx, s, check, true, cls.len(), fill, nil)
	stats.Scenarios = cls.count
	stats.Total = time.Since(start)
	if check {
		s.keep(designedPass{cls, fill, slots, *stats})
	}
	return fill, slots, stats, nil
}

// designedPass is what a checked designed pass comes to: the classes
// it swept, its slots, the fill that names their scenarios, and its
// stats. Every slot is its class's verdict and outcome, and its first
// failure the designed set's first failure, whoever swept it and
// however the workers ran: the outcome depends on the plan alone.
type designedPass struct {
	cls   *designedClasses
	fill  scenarioFill
	slots []sweepSlot
	stats SweepStats
}

// keep makes p the engine's kept pass if none is kept yet and p ran to
// completion: a cancellation reached none of its slots before its first
// failure, so that failure, if any, is the plan's. A failing pass is
// kept like a passing one. The slots are kept, not copied: nothing
// writes them once the sweep returns.
func (e *engine) keep(p designedPass) {
	if e.pass.Load() != nil {
		return
	}
	if _, err := firstFailure(p.slots, p.fill.fresh); errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	kept := p
	e.pass.CompareAndSwap(nil, &kept)
}

// keptPass returns the engine's kept designed pass, sweeping one
// through s first when the engine has none, which keeps it if it runs
// to completion. On a published engine it is the pass publication's
// ValidateStats swept. The stats are a copy the caller may change.
func (s *Sweep) keptPass(ctx context.Context) (designedPass, error) {
	if p := s.pass.Load(); p != nil {
		return *p, nil
	}
	fill, slots, stats, err := s.sweepDesigned(ctx, true)
	if err != nil {
		return designedPass{}, err
	}
	return designedPass{s.classes, fill, slots, *stats}, nil
}

// firstFailure scans a sweep's slots in order and returns the first
// one's error, so the verdict is independent of scheduling; at(i) is
// slot i's scenario. A slot no worker reached is only possible when
// every worker bailed early, and then an earlier slot carries the
// triggering error; finding one first means a logic error upstream.
func firstFailure(slots []sweepSlot, at func(int) failures.Scenario) (int, error) {
	for i := range slots {
		if slots[i].err != nil {
			return i, slots[i].err
		}
		if !slots[i].done {
			return i, fmt.Errorf("routing: scenario %v was never swept", at(i))
		}
	}
	return len(slots), nil
}

// ValidateOptions is the options argument of the one-shot validation
// entry points. It has no fields: validation always realizes through
// the plan's engine. (The §4.2 proportional router is
// RealizeProportional, called for its own sake.)
type ValidateOptions struct{}

// ValidateStats replays every scenario of the plan's designed failure
// set through the engine, realizes the routing, and verifies the
// congestion-free property: all admitted demand is delivered and no arc
// exceeds its capacity. Scenarios that realize bit-identically are
// realized once, through their class's representative; the others
// share its verdict (sweepDesigned). Representatives are swept in
// parallel; the reported error is the first failing scenario in
// enumeration order, independent of scheduling. The sweep checks ctx
// before every representative and reports a cancellation as the error
// of the first unrealized one. The statistics are returned even when
// validation fails. Every call sweeps; the engine keeps the first pass
// that runs to completion, for ValidateSampled to read (keep).
func (s *Sweep) ValidateStats(ctx context.Context) (*SweepStats, error) {
	fill, slots, stats, err := s.sweepDesigned(ctx, true)
	if err != nil {
		return stats, err
	}
	_, err = firstFailure(slots, fill.fresh)
	return stats, err
}

// ValidateStats is the one-shot form of (*Sweep).ValidateStats: it
// builds the plan's engine, validates through it and discards it.
func ValidateStats(ctx context.Context, plan *core.Plan, _ ValidateOptions) (*SweepStats, error) {
	start := time.Now()
	sw, err := NewSweepContext(ctx, plan)
	if err != nil {
		return &SweepStats{Total: time.Since(start)}, err
	}
	stats, err := sw.ValidateStats(ctx)
	stats.Total += stats.BaseFactorTime
	return stats, err
}

// WorstMLUStats replays every protected scenario and returns the
// maximum link utilization observed and the scenario that produces it —
// the data-plane counterpart of the plan's 1/z guarantee — with the
// sweep statistics. It realizes one representative per class of
// scenarios, as ValidateStats does; the scenario reported is the first
// in enumeration order to attain the maximum. On error it returns the
// worst utilization over the scenarios preceding the failing one in
// enumeration order (a serial loop's behavior).
func WorstMLUStats(ctx context.Context, plan *core.Plan, _ ValidateOptions) (float64, failures.Scenario, *SweepStats, error) {
	start := time.Now()
	sw, err := NewSweepContext(ctx, plan)
	if err != nil {
		return 0, failures.Scenario{}, &SweepStats{Total: time.Since(start)}, err
	}
	fill, slots, stats, err := sw.sweepDesigned(ctx, false)
	stats.Total += stats.BaseFactorTime
	if err != nil {
		return 0, failures.Scenario{}, stats, err
	}
	ok, err := firstFailure(slots, fill.fresh)
	worst, i := worstOf(slots[:ok])
	if i < 0 {
		return 0, failures.Scenario{}, stats, err
	}
	return worst, fill.fresh(i), stats, err
}

// worstOf returns the largest utilization among successfully swept
// slots and the first slot to attain it (-1 when none is positive).
func worstOf(slots []sweepSlot) (float64, int) {
	worst, at := 0.0, -1
	for i := range slots {
		if slots[i].err == nil && slots[i].mlu > worst {
			worst, at = slots[i].mlu, i
		}
	}
	return worst, at
}
