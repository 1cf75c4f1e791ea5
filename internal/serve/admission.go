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

// Acquire admits one request of the class, blocking until a worker
// slot frees, the queue bound rejects it, or ctx ends. On success the
// returned release func must be called exactly once.
func (a *Admission) Acquire(ctx context.Context, c Class) (release func(), err error) {
	l := &a.classes[c]
	release = func() { <-l.slots }
	// Fast path: a slot is free, no queueing.
	select {
	case l.slots <- struct{}{}:
		return release, nil
	default:
	}
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		a.shed.Add(1)
		return nil, ErrOverloaded
	}
	defer l.queued.Add(-1)
	select {
	case l.slots <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

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
