package main

import (
	"math"

	"pcf/internal/eval"
)

// nominalSeconds is the --seconds value the repetition counts below
// are written for. Counts are fixed, never time-based: another
// --seconds scales every count by seconds/nominalSeconds, so two
// commits run at the same --seconds always do the same work.
const nominalSeconds = 20

// reps are one workload's repetition counts at nominalSeconds. Each
// timed phase runs one extra, discarded, warm-up repetition first.
type reps struct {
	setup         int // cold set-ups; the last one is kept and measured on
	replan        int // POST /v1/solve samples (fleet: publish → converge cycles)
	validate      int // exact-validate samples ...
	validateBatch int // ... of this many calls each (a sample lasts ≥ 20 ms)
	sampled       int // sampled-validate samples
	realize       int // realize samples ...
	realizePasses int // ... of this many passes over the ~500-request scenario cycle each
	// realizeWarm is the number of discarded realize requests before
	// the first batch. It is not scaled with the run length: a serving
	// node's memory-only telemetry ring (4096 records) has to be full
	// before the first timed request, because a full ring makes every
	// later request slower (each emit then shifts the whole ring), and
	// that, not the first seconds after boot, is the state a daemon is
	// in. The fleet workload has three rings to fill through one front
	// end.
	realizeWarm int
}

// scaled returns the counts for a run of the given length. A timing
// needs at least two samples for a median that is not a single shot;
// the nominal counts keep at least five.
func (r reps) scaled(seconds int) reps {
	f := float64(seconds) / nominalSeconds
	n := func(base, floor int) int {
		return max(floor, int(math.Round(float64(base)*f)))
	}
	return reps{
		setup:         n(r.setup, 1),
		replan:        n(r.replan, 2),
		validate:      n(r.validate, 2),
		validateBatch: r.validateBatch,
		sampled:       n(r.sampled, 2),
		realize:       n(r.realize, 2),
		realizePasses: r.realizePasses,
		realizeWarm:   r.realizeWarm,
	}
}

// halved is what the traced run uses for the end-to-end phases, which
// it repeats only to report raw medians and the tracing overhead.
func (r reps) halved() reps {
	h := func(v int) int { return max(2, v/2) }
	return reps{
		setup:         1,
		replan:        h(r.replan),
		validate:      h(r.validate),
		validateBatch: r.validateBatch,
		sampled:       h(r.sampled),
		realize:       h(r.realize),
		realizePasses: r.realizePasses,
		realizeWarm:   r.realizeWarm,
	}
}

// workload is one named set of inputs. The instance is fixed (traffic
// seed 1, as in EXPERIMENTS.md); --seed drives the request stream: the
// realize scenario order and pair selection, and the sampled-validation
// seed.
type workload struct {
	name   string
	why    string
	opts   eval.Options
	scheme string // ?scheme= of every POST /v1/solve
	fleet  bool   // planner + 3 replicas + front end over loopback
	reps   reps
}

var workloads = []workload{
	{
		name:   "sprint-tf-f1",
		why:    "10-node Sprint, PCF-TF, f=1: the dense basis inverse, dense sweep base and cold-fallback realize do the work; sparse code does none",
		opts:   eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1},
		scheme: "PCF-TF",
		reps: reps{setup: 15, replan: 50, validate: 80, validateBatch: 25,
			sampled: 50, realize: 80, realizePasses: 1, realizeWarm: 5000},
	},
	{
		name:   "btna-cls-f2",
		why:    "36-node BTNorthAmerica, scheme=best (PCF-CLS), f=2: core's cut loop with warm-started re-solves and a 2927-scenario batched-SMW sweep do the work",
		opts:   eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2},
		scheme: "best",
		reps: reps{setup: 3, replan: 14, validate: 14, validateBatch: 1,
			sampled: 10, realize: 20, realizePasses: 4, realizeWarm: 5000},
	},
	{
		name:   "synth1k-tf-f1",
		why:    "1000-node Waxman graph, PCF-TF, f=1: one cold sparse-LU simplex solve (7152 iterations) and the sparse sweep base do the work; core rounds and serve overhead are negligible",
		opts:   eval.Options{Synth: "waxman", SynthNodes: 1000, Seed: 1, MaxPairs: 250, FailureBudget: 1},
		scheme: "PCF-TF",
		reps: reps{setup: 2, replan: 7, validate: 6, validateBatch: 1,
			sampled: 6, realize: 6, realizePasses: 2, realizeWarm: 5000},
	},
	{
		name:   "fleet-btna-tf-f2",
		why:    "BTNorthAmerica PCF-TF f=2 behind planner, 3 replicas and front end on loopback: envelope encode/decode, serial push, 3x re-validation and the reverse proxy do the work; the solve is small",
		opts:   eval.Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2},
		scheme: "PCF-TF",
		fleet:  true,
		reps: reps{setup: 2, replan: 16, validate: 14, validateBatch: 1,
			sampled: 10, realize: 20, realizePasses: 2, realizeWarm: 13000},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
