package serve

import (
	"context"
	"sync/atomic"
)

// Class partitions admitted work so one kind cannot starve the other:
// plan solves are long and few, realizations short and many.
type Class int

const (
	// ClassSolve covers /v1/solve and /v1/optimal: LP work.
	ClassSolve Class = iota
	// ClassRealize covers /v1/realize and /v1/validate: linear-system
	// work against the published plan.
	ClassRealize
	numClasses
	// noAdmission is the class of a route that takes no admission slot:
	// it reads state the server already holds.
	noAdmission Class = -1
)

// Admission is a bounded two-stage work gate per class: up to
// `workers` requests run concurrently, up to `queue` more wait for a
// slot, and everything beyond that is shed immediately with
// ErrOverloaded — the queue can never grow without bound, so a burst
// degrades into fast 503s instead of a latency collapse. Waiting
// requests abandon the queue when their context ends, so a shed or
// timed-out client never holds a slot.
type Admission struct {
	classes [numClasses]limiter
	shed    atomic.Int64
}

type limiter struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64
}

// NewAdmission sizes the gate. Each class gets the same queue depth.
func NewAdmission(solveWorkers, realizeWorkers, queueDepth int) *Admission {
	a := &Admission{}
	a.classes[ClassSolve].slots = make(chan struct{}, solveWorkers)
	a.classes[ClassRealize].slots = make(chan struct{}, realizeWorkers)
	for i := range a.classes {
		a.classes[i].maxQueue = int64(queueDepth)
	}
	return a
}

// Take admits one request of the class if a worker slot is free now;
// it never waits. Admission is Take, then Wait when Take fails; each
// admission is paired with exactly one Release.
func (a *Admission) Take(c Class) bool {
	select {
	case a.classes[c].slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Wait queues a request of the class that Take could not admit,
// blocking until a worker slot frees (nil), the queue bound rejects it
// (ErrOverloaded) or ctx ends (its error).
func (a *Admission) Wait(ctx context.Context, c Class) error {
	l := &a.classes[c]
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		a.shed.Add(1)
		return ErrOverloaded
	}
	defer l.queued.Add(-1)
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees the worker slot a Take or Wait of the class admitted.
func (a *Admission) Release(c Class) { <-a.classes[c].slots }

// Shed reports how many requests were rejected at the queue bound.
func (a *Admission) Shed() int64 { return a.shed.Load() }

// Queued reports how many requests of the class are waiting now.
func (a *Admission) Queued(c Class) int64 { return a.classes[c].queued.Load() }

// RetryAfterSeconds estimates when a shed client should come back:
// one second per queued request ahead of it, at least one.
func (a *Admission) RetryAfterSeconds(c Class) int {
	q := int(a.Queued(c))
	workers := cap(a.classes[c].slots)
	if workers < 1 {
		workers = 1
	}
	s := 1 + q/workers
	if s > 30 {
		s = 30
	}
	return s
}
