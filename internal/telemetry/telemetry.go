// Package telemetry is the unified observability tier: one record
// model from solver to fleet, an append-only segmented local store,
// and a deterministic query/aggregation engine.
//
// Everything that used to be an ad-hoc stats surface — core.SolveStats
// behind a plan, routing.SweepStats behind a validation sweep,
// mcf.SweepStats behind an optimal sweep, per-server counters — flows
// through the one Record schema here, and the store's query and tail
// calls are the one way to read it back. A Record is a point event (a
// request served, a solve finished, an epoch published, a sync round,
// a lease grant, a failover) with typed dimensions (Kind, Source,
// Name, Scheme, Outcome) and numeric payload (Epoch, Rung, Dur, and a
// flat Fields map whose keys come from the engines' Metrics()
// methods).
//
// The store appends records to newline-delimited JSON segments with
// the same crash-safety discipline as the checkpoint store: the active
// segment is a *.open temp file in the store directory, sealed by
// fsync + atomic rename (+ directory fsync) once full; recovery
// salvages the decodable prefix of a torn open segment and quarantines
// undecodable sealed segments to *.corrupt instead of crash-looping.
// Retention keeps the newest K sealed segments. A store opened with an
// empty directory runs memory-only (bounded ring, no persistence) so
// every server has a queryable record stream even without a state dir.
//
// See DESIGN.md §16 for the record schema, segment format, retention
// and query semantics.
package telemetry

import "time"

// Kind is a record's event type — the primary typed dimension every
// query filters or groups on.
type Kind string

// The record kinds emitted across the system. The set is open (the
// store treats Kind as an opaque dimension) but these are the ones the
// serving stack produces.
const (
	// KindRequest is one HTTP request served by pcfd (Name is the
	// endpoint, Outcome ok/shed/error, Epoch the served plan's epoch).
	KindRequest Kind = "request"
	// KindSolve is one plan solve attempt (Fields from
	// core.SolveStats.Metrics(), Rung the breaker's ladder entry).
	KindSolve Kind = "solve"
	// KindValidate is one full validation sweep (Fields from
	// routing.SweepStats.Metrics()).
	KindValidate Kind = "validate"
	// KindMCF is one optimal-under-failures sweep (Fields from
	// mcf.SweepStats.Metrics()).
	KindMCF Kind = "mcf"
	// KindPublish is one registry publication or recovery (Epoch is
	// the new epoch; Fields carry the validation sweep metrics and the
	// plan value).
	KindPublish Kind = "publish"
	// KindBreaker is a circuit-breaker level transition (Fields carry
	// the new level and trip count).
	KindBreaker Kind = "breaker"
	// KindSync is one replica sync round: a conditional plan fetch
	// that renews the lease (Outcome ok/error).
	KindSync Kind = "sync"
	// KindLease is the planner's side of a sync: a lease renewed for
	// the replica Name (Epoch is the planner's newest, Fields carry
	// replica_epoch).
	KindLease Kind = "lease"
	// KindPush is one planner envelope push attempt (Name is the
	// target URL).
	KindPush Kind = "push"
	// KindFailover is a front-end routing event (Outcome
	// retry/eject/no_backend).
	KindFailover Kind = "failover"
)

// Record is the one event schema every telemetry producer emits.
// String dimensions identify what happened; numeric fields say how it
// went. The zero value of every field is omitted on the wire.
type Record struct {
	// Time is the event time (stamped by the store when zero).
	Time time.Time `json:"t"`
	// Seq is the store-assigned monotone sequence number; producers
	// leave it zero. It orders records totally and drives the tail
	// cursor.
	Seq uint64 `json:"seq,omitempty"`
	// Kind is the event type (see the Kind constants).
	Kind Kind `json:"kind"`
	// Source is the emitting component ("pcfd", "planner",
	// "replica-1", "frontend", ...).
	Source string `json:"src,omitempty"`
	// Name refines the kind: the endpoint for requests, the scenario
	// model for validations, the push target for pushes.
	Name string `json:"name,omitempty"`
	// Scheme is the routing scheme involved, when one is.
	Scheme string `json:"scheme,omitempty"`
	// Outcome classifies how the event ended ("ok", "error", "shed",
	// "stale", ...). Empty means ok.
	Outcome string `json:"outcome,omitempty"`
	// Epoch is the plan epoch the record describes. For request
	// records it is the epoch of the plan that actually served the
	// request — never a newer one published mid-flight.
	Epoch uint64 `json:"epoch,omitempty"`
	// Rung is the solve-ladder rung (breaker skip level) in effect.
	Rung int `json:"rung,omitempty"`
	// Dur is the event duration.
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Fields carries the numeric payload, keyed by the engines'
	// Metrics() names (lp_iterations, smw_hit_rate, mlu, ...).
	Fields map[string]float64 `json:"fields,omitempty"`
}

// OutcomeOrOK normalizes the outcome dimension: records emitted with
// an empty outcome mean "ok".
func (r Record) OutcomeOrOK() string {
	if r.Outcome == "" {
		return "ok"
	}
	return r.Outcome
}

// Field returns a payload field, 0 when absent.
func (r Record) Field(name string) float64 { return r.Fields[name] }

// Emitter is the typed sink every telemetry producer writes to.
// Implementations must be safe for concurrent use.
type Emitter interface {
	Emit(Record)
}

// EmitterFunc adapts a function to the Emitter interface.
type EmitterFunc func(Record)

// Emit implements Emitter.
func (f EmitterFunc) Emit(r Record) { f(r) }

// Discard drops every record; the zero-config default wherever an
// emitter is optional.
var Discard Emitter = EmitterFunc(func(Record) {})

// multi fans one record out to several emitters in order.
type multi []Emitter

func (m multi) Emit(r Record) {
	for _, e := range m {
		e.Emit(r)
	}
}

// Multi builds an emitter that forwards each record to every non-nil
// sink in order.
func Multi(sinks ...Emitter) Emitter {
	var out multi
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}
