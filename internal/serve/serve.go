// Package serve is pcfd's serving layer: a long-lived, crash-safe
// plan registry behind a stdlib-only HTTP API. It upholds the same
// guarantee discipline as the LPs it fronts:
//
//   - no plan is ever served that did not pass the full
//     congestion-free validation sweep, run through the very
//     routing.Sweep that then serves it — publication is a validated
//     atomic hot-swap with rollback, and in-flight requests finish on
//     the plan they started with;
//   - load is shed, not queued unboundedly: a bounded per-class
//     admission queue returns ErrOverloaded (HTTP 503 + Retry-After)
//     when full, and every admitted request carries a deadline that
//     propagates into the ctx-aware solve/realize paths;
//   - validated plans are checkpointed to a state directory with
//     fsync + atomic rename, so a restarted daemon recovers its last
//     good epoch without re-solving; corrupt snapshots are
//     quarantined, never crash-looped on;
//   - every failure has one fallback: a scheme's ladder (core's scheme
//     table; best is PCF-CLS → FFC) drops a rung that breaks down
//     within the solve, and a per-scheme circuit breaker, closed or
//     open, rejects a scheme whose whole ladder keeps breaking down
//     until its cooldown is over.
//
// See DESIGN.md §13 for the architecture.
package serve

import (
	"errors"
	"runtime"
	"time"

	"pcf/internal/core"
	"pcf/internal/lp"
	"pcf/internal/telemetry"
)

// Typed serving failures. Handlers map them to HTTP statuses; tests
// and embedders select on them with errors.Is.
var (
	// ErrOverloaded reports that the admission queue for the request's
	// class is full; the client should retry after the Retry-After
	// hint.
	ErrOverloaded = errors.New("serve: overloaded, queue full")
	// ErrDraining reports that the server is shutting down and admits
	// no new work.
	ErrDraining = errors.New("serve: draining, not accepting new work")
	// ErrNoPlan reports that no plan has been published yet.
	ErrNoPlan = errors.New("serve: no plan published")
	// ErrValidation reports that a freshly solved plan failed the
	// congestion-free validation sweep and was rolled back, never
	// published.
	ErrValidation = errors.New("serve: plan failed validation, rolled back")
	// ErrBreakerOpen reports that a scheme's circuit breaker is open:
	// its whole ladder broke down on breakerThreshold solves in a row.
	ErrBreakerOpen = errors.New("serve: circuit breaker open for scheme")
	// ErrEpochRegression reports that an externally stamped epoch
	// (fleet plan distribution) does not advance the registry's: served
	// epochs are monotone per node, so replays and stale planners are
	// refused.
	ErrEpochRegression = errors.New("serve: epoch regression refused")
)

// Config parameterizes a Server. The zero value of every field has a
// serviceable default (see withDefaults); Instance is mandatory.
type Config struct {
	// Instance is the prepared problem: topology, demand, tunnels,
	// failure set, FFC's tunnel budget and (for the LS/CLS/best
	// schemes) logical sequences. Every row of core's scheme table
	// solves its own view of it (cmd/pcfd serves eval.Setup.CLSInstance).
	Instance *core.Instance
	// StateDir is the checkpoint directory. Empty disables
	// persistence: the daemon still serves, but restarts re-solve.
	StateDir string
	// TelemetryDir is the telemetry store directory. Empty runs the
	// store memory-only: every server keeps a queryable record stream,
	// persistence is opt-in.
	TelemetryDir string
	// RetainTelemetry bounds sealed telemetry segments kept on disk
	// (zero means the store default; negative disables retention).
	RetainTelemetry int
	// Telemetry, when non-nil, receives a copy of every record the
	// server emits, in addition to the store.
	// Tests use it to observe the stream synchronously.
	Telemetry telemetry.Emitter
	// Source stamps every emitted record's src dimension (default
	// "pcfd"; fleet nodes set their node name).
	Source string
	// RetainCheckpoints bounds snapshot accumulation in StateDir: after
	// each checkpoint only the newest RetainCheckpoints snapshots and
	// the newest RetainCheckpoints quarantined (*.corrupt) files are
	// kept. Zero means the default (8); negative disables retention.
	RetainCheckpoints int

	// MaxConcurrentRealizes bounds the realize-class work running at
	// once (solves run one at a time: solveSlots); QueueDepth bounds how
	// many admitted requests may wait per class before new arrivals are
	// shed.
	MaxConcurrentRealizes int
	QueueDepth            int

	// DefaultSolveTimeout / DefaultRealizeTimeout apply when a request
	// carries no ?timeout=; maxRequestTimeout caps what a client may
	// ask for.
	DefaultSolveTimeout   time.Duration
	DefaultRealizeTimeout time.Duration

	// DrainTimeout bounds graceful shutdown: in-flight requests get
	// this long to finish before their contexts are hard-canceled.
	DrainTimeout time.Duration

	// BreakerCooldown is how long a scheme's breaker stays open once
	// breakerThreshold consecutive degradable failures opened it.
	BreakerCooldown time.Duration

	// LPFaultHook, when non-nil, is passed into every LP solve the
	// server runs. It exists for fault injection (internal/faultinject
	// chaos tests); production configs leave it nil.
	LPFaultHook func(lp.FaultEvent) error
	// MutatePlan, when non-nil, runs on every freshly solved plan
	// before validation. It exists for fault injection: chaos tests
	// corrupt plans here and assert the corrupted epochs are never
	// published or served.
	MutatePlan func(*core.Plan)

	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// solveSlots is the solve class's admission: one solve runs at a time,
// since every solve takes its turn on the server's one core.Solver.
const solveSlots = 1

// maxRequestTimeout caps the deadline a request's ?timeout= may ask for.
const maxRequestTimeout = 5 * time.Minute

// The values withDefaults gives a zero Config.QueueDepth,
// Config.DefaultSolveTimeout, Config.DefaultRealizeTimeout and
// Config.DrainTimeout; cmd/pcfd's flags default to them too.
const (
	DefaultQueueDepth      = 8
	DefaultSolveDeadline   = 2 * time.Minute
	DefaultRealizeDeadline = 10 * time.Second
	DefaultDrainTimeout    = 10 * time.Second
)

func (c Config) withDefaults() Config {
	if c.RetainCheckpoints == 0 {
		c.RetainCheckpoints = 8
	}
	if c.MaxConcurrentRealizes <= 0 {
		c.MaxConcurrentRealizes = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.DefaultSolveTimeout <= 0 {
		c.DefaultSolveTimeout = DefaultSolveDeadline
	}
	if c.DefaultRealizeTimeout <= 0 {
		c.DefaultRealizeTimeout = DefaultRealizeDeadline
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.Source == "" {
		c.Source = "pcfd"
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}
