package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pcf/internal/core"
	"pcf/internal/durable"
	"pcf/internal/routing"
	"pcf/internal/telemetry"
)

// Published is one immutable epoch of the registry: a validated plan
// together with the realization engine it was validated through.
// In-flight requests hold the *Published they started with, so a
// hot-swap never changes the plan under a request.
type Published struct {
	// Epoch increases by one per publication and survives restarts via
	// the checkpoint store. Responses carry it so clients can tell
	// which plan served them.
	Epoch  uint64
	Plan   *core.Plan
	Sweep  *routing.Sweep
	Scheme string
	Value  float64
	// Degraded lists the SolveBest rungs abandoned on the way to this
	// plan (empty for fixed schemes and clean best solves).
	Degraded []string
	// Validated records the sweep statistics of the publication-time
	// validation pass: every protected scenario was realized and
	// checked congestion-free before this epoch became visible.
	Validated   routing.SweepStats
	PublishedAt time.Time
}

// Registry owns the currently published plan. Reads are a single
// atomic pointer load; publication is serialized and follows the
// validate → checkpoint → swap order, so the pointer can only ever
// point at a plan that passed the full congestion-free sweep.
type Registry struct {
	mu    sync.Mutex // serializes Publish, PublishExternal and Recover
	cur   atomic.Pointer[Published]
	store *Store // nil disables persistence
	epoch uint64 // last assigned epoch; guarded by mu
	logf  func(string, ...any)

	// OnPublish, when set before serving begins, runs after every
	// successful swap (local publish, external publish, recovery) with
	// the new epoch. The fleet planner uses it to push fresh envelopes
	// to replicas. It is called synchronously under the publication
	// lock — keep it fast and never call back into the registry.
	OnPublish func(*Published)

	// Telemetry receives one publish record per swap (and one validate
	// record per publication-time sweep). Records are emitted after
	// cur.Store, so an observer holding a publish record can rely on the
	// registry epoch having already reached it. Set before serving
	// begins; defaults to Discard.
	Telemetry telemetry.Emitter
}

// NewRegistry builds a registry. store may be nil (no persistence).
func NewRegistry(store *Store, logf func(string, ...any)) *Registry {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Registry{store: store, logf: logf, Telemetry: telemetry.Discard}
}

// emitPublish records one registry event (publish/recover/invalid) in
// the telemetry stream, preceded by the validate record for the
// publication-time sweep when one ran. name distinguishes how the
// epoch arrived.
func (r *Registry) emitPublish(name, outcome string, epoch uint64, plan *core.Plan, stats *routing.SweepStats) {
	if stats != nil {
		r.Telemetry.Emit(telemetry.Record{
			Kind:   telemetry.KindValidate,
			Name:   name,
			Epoch:  epoch,
			Scheme: plan.Scheme,
			Dur:    stats.Total,
			Fields: stats.Metrics(),
		})
	}
	rec := telemetry.Record{
		Kind:    telemetry.KindPublish,
		Name:    name,
		Outcome: outcome,
		Epoch:   epoch,
		Scheme:  plan.Scheme,
	}
	if stats != nil {
		rec.Fields = stats.Metrics()
		rec.Fields["value"] = plan.Value
	}
	r.Telemetry.Emit(rec)
}

// Store exposes the checkpoint store (nil when persistence is off).
func (r *Registry) Store() *Store { return r.store }

// Current returns the published epoch, or ErrNoPlan before the first
// publication.
func (r *Registry) Current() (*Published, error) {
	if p := r.cur.Load(); p != nil {
		return p, nil
	}
	return nil, ErrNoPlan
}

// Epoch returns the currently published epoch number (0 if none).
func (r *Registry) Epoch() uint64 {
	if p := r.cur.Load(); p != nil {
		return p.Epoch
	}
	return 0
}

// Publish validates the plan, checkpoints it, and atomically swaps it
// in as the new current epoch. If validation fails the previous epoch
// stays published untouched — the rollback is that the swap never
// happens — and the error wraps ErrValidation. A checkpoint failure is
// logged but does not block publication: durability degrades, the
// serving guarantee does not.
func (r *Registry) Publish(ctx context.Context, plan *core.Plan) (*Published, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.publishLocked(ctx, r.epoch+1, plan)
}

// PublishExternal installs a plan under an epoch assigned elsewhere —
// the fleet planner stamps envelopes, replicas install them here. The
// plan is re-validated locally in full (validation is never trusted
// across the wire), and the epoch must strictly advance the
// registry's: replays and regressions are refused with
// ErrEpochRegression before any validation work is spent.
func (r *Registry) PublishExternal(ctx context.Context, epoch uint64, plan *core.Plan) (*Published, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch <= r.epoch {
		return nil, fmt.Errorf("%w: offered epoch %d, registry already at %d",
			ErrEpochRegression, epoch, r.epoch)
	}
	return r.publishLocked(ctx, epoch, plan)
}

// publishLocked installs the plan under the epoch the caller fixed and
// records a refusal: a rejected epoch number is never swapped in, so the
// "invalid" record carries the current one and never outruns the
// registry. Caller holds mu.
func (r *Registry) publishLocked(ctx context.Context, epoch uint64, plan *core.Plan) (*Published, error) {
	pub, err := r.install(ctx, "publish", epoch, plan, true)
	if errors.Is(err, ErrValidation) {
		r.emitPublish("publish", "invalid", r.epoch, plan, nil)
	}
	return pub, err
}

// install is the one way a plan becomes the current epoch: build its
// realization engine, validate the designed failure set through that
// engine, checkpoint (when asked — a recovered plan is already on
// disk), and swap in the very engine that passed. So the object that
// serves /v1/realize is, by pointer identity, the object that was
// validated, and each publication builds exactly one. A validation
// failure wraps ErrValidation; an engine build or a sweep cut short by
// ctx does not — it wraps the context error instead, so a caller never
// mistakes "did not finish" for "failed". Caller holds mu.
func (r *Registry) install(ctx context.Context, how string, epoch uint64, plan *core.Plan, checkpoint bool) (*Published, error) {
	sweep, err := routing.NewSweepContext(ctx, plan)
	if err != nil {
		return nil, fmt.Errorf("serve: preparing sweep for epoch %d: %w", epoch, err)
	}
	stats, err := sweep.ValidateStats(ctx)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			// The sweep did not finish; that says nothing about the plan.
			return nil, fmt.Errorf("serve: validating epoch %d: %w", epoch, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrValidation, err)
	}
	// The record's duration is the whole publication-time validation,
	// engine build included.
	stats.Total += stats.BaseFactorTime

	if checkpoint && r.store != nil {
		if err := r.store.Save(epoch, plan); err != nil {
			r.logf("serve: checkpoint of epoch %d failed (serving anyway): %v", epoch, err)
		}
	}

	pub := &Published{
		Epoch:       epoch,
		Plan:        plan,
		Sweep:       sweep,
		Scheme:      plan.Scheme,
		Value:       plan.Value,
		Degraded:    plan.Degraded,
		Validated:   *stats,
		PublishedAt: time.Now().UTC(),
	}
	if epoch > r.epoch {
		r.epoch = epoch
	}
	r.cur.Store(pub)
	r.emitPublish(how, "", epoch, plan, stats)
	r.logf("serve: %s installed epoch %d (scheme %s, value %g)", how, epoch, pub.Scheme, pub.Value)
	if r.OnPublish != nil {
		r.OnPublish(pub)
	}
	return pub, nil
}

// Recover loads the newest usable snapshot from the store, re-runs the
// full validation sweep on it (a snapshot that decodes but no longer
// validates is quarantined like a corrupt one), and publishes it under
// its original epoch. Returns ErrNoSnapshot when nothing on disk is
// both loadable and valid; the daemon then starts empty and solves
// fresh.
func (r *Registry) Recover(ctx context.Context, in *core.Instance) (*Published, error) {
	if r.store == nil {
		return nil, ErrNoSnapshot
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("serve: recovery canceled: %w", err)
			}
		}
		epoch, plan, err := r.store.LoadLatest(in, r.logf)
		if err != nil {
			return nil, err
		}
		pub, err := r.install(ctx, "recover", epoch, plan, false)
		if !errors.Is(err, ErrValidation) {
			return pub, err
		}
		r.logf("serve: recovered epoch %d fails validation, quarantining: %v", epoch, err)
		if qerr := durable.Quarantine(r.store.snapshotPath(epoch)); qerr != nil {
			r.logf("serve: quarantine rename failed for epoch %d: %v", epoch, qerr)
			return nil, fmt.Errorf("serve: epoch %d unquarantinable: %w", epoch, err)
		}
	}
}
