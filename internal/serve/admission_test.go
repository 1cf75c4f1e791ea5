package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// acquire admits one request as the request lifecycle does: Take, and
// Wait when no slot is free.
func acquire(ctx context.Context, a *Admission, c Class) error {
	if a.Take(c) {
		return nil
	}
	return a.Wait(ctx, c)
}

// TestAdmissionConcurrencyAndShed fills one worker slot and one queue
// slot, then checks the next arrival is shed immediately with
// ErrOverloaded rather than queued.
func TestAdmissionConcurrencyAndShed(t *testing.T) {
	a := NewAdmission(1, 1, 1)
	ctx := context.Background()

	if err := acquire(ctx, a, ClassSolve); err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Second request queues; give it a moment to be counted.
	queued := make(chan struct{})
	var err2 error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(queued)
		err2 = acquire(ctx, a, ClassSolve)
	}()
	<-queued
	deadline := time.Now().Add(2 * time.Second)
	for a.Queued(ClassSolve) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second request never queued (queued=%d)", a.Queued(ClassSolve))
		}
		time.Sleep(time.Millisecond)
	}

	// Third request exceeds the queue bound: shed, not blocked.
	if err := acquire(ctx, a, ClassSolve); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third acquire err = %v, want ErrOverloaded", err)
	}
	if a.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", a.Shed())
	}

	// The other class is unaffected.
	if err := acquire(ctx, a, ClassRealize); err != nil {
		t.Fatalf("realize-class acquire: %v", err)
	}
	a.Release(ClassRealize)

	// Releasing the first slot admits the queued request.
	a.Release(ClassSolve)
	wg.Wait()
	if err2 != nil {
		t.Fatalf("queued acquire: %v", err2)
	}
	a.Release(ClassSolve)
}

// TestAdmissionContextCancel checks a queued waiter abandons the queue
// when its context ends, returning the context error.
func TestAdmissionContextCancel(t *testing.T) {
	a := NewAdmission(1, 1, 4)
	if err := acquire(context.Background(), a, ClassSolve); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer a.Release(ClassSolve)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := acquire(ctx, a, ClassSolve); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire err = %v, want DeadlineExceeded", err)
	}
	if q := a.Queued(ClassSolve); q != 0 {
		t.Fatalf("Queued = %d after abandoned wait, want 0", q)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	a := NewAdmission(2, 2, 100)
	if s := a.RetryAfterSeconds(ClassSolve); s != 1 {
		t.Fatalf("empty queue RetryAfter = %d, want 1", s)
	}
	// Synthetic backlog: 100 queued over 2 workers → capped at 30.
	a.classes[ClassSolve].queued.Store(100)
	if s := a.RetryAfterSeconds(ClassSolve); s != 30 {
		t.Fatalf("deep queue RetryAfter = %d, want cap 30", s)
	}
	a.classes[ClassSolve].queued.Store(0)
}

// TestRetryAfterClampAtQueueFull fills a 1-worker gate to its exact
// queue bound and checks both edges: the next arrival is shed with
// ErrOverloaded, and the Retry-After hint — which would extrapolate to
// queue/workers seconds — is clamped at 30 so a deep queue never tells
// clients to go away for minutes.
func TestRetryAfterClampAtQueueFull(t *testing.T) {
	const depth = 100
	a := NewAdmission(1, 1, depth)

	// Occupy the lone solve worker.
	if err := acquire(context.Background(), a, ClassSolve); err != nil {
		t.Fatalf("occupying worker: %v", err)
	}

	// Fill the queue to exactly its bound with blocked waiters.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := acquire(ctx, a, ClassSolve); err == nil {
				t.Error("queued waiter admitted; want cancellation")
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Queued(ClassSolve) < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue filled to %d of %d", a.Queued(ClassSolve), depth)
		}
		time.Sleep(time.Millisecond)
	}

	// The boundary request is shed...
	if err := acquire(context.Background(), a, ClassSolve); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("boundary acquire = %v, want ErrOverloaded", err)
	}
	// ...and the hint it would be sent is the clamp, not 1+100/1.
	if got := a.RetryAfterSeconds(ClassSolve); got != 30 {
		t.Fatalf("RetryAfterSeconds at full queue = %d, want clamped 30", got)
	}

	cancel()
	wg.Wait()
	a.Release(ClassSolve)
	// Drained: the hint relaxes back to the floor.
	if got := a.RetryAfterSeconds(ClassSolve); got != 1 {
		t.Fatalf("RetryAfterSeconds after drain = %d, want 1", got)
	}
}
