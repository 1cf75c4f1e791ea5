package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcf/internal/lp"
)

// TestBreakerTripAndAnneal drives a breaker through a full cycle with
// an injected clock: breakerThreshold failures open it, further
// failures while it is open neither extend it nor trip it again, and
// the first admit after one cooldown closes it and says so, once.
func TestBreakerTripAndAnneal(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(time.Minute)
	b.now = func() time.Time { return now }

	numerical := fmt.Errorf("solve: %w", lp.ErrNumerical)

	for i := 1; i < breakerThreshold; i++ {
		if b.Record(numerical) || b.Left() != 0 {
			t.Fatalf("breaker opened after %d failures, want %d", i, breakerThreshold)
		}
	}
	if !b.Record(numerical) {
		t.Fatalf("breaker still closed after %d failures", breakerThreshold)
	}
	if b.Left() != time.Minute || b.Trips() != 1 {
		t.Fatalf("open breaker: left %v, trips %d; want %v, 1", b.Left(), b.Trips(), time.Minute)
	}

	// Failures while open neither trip nor extend the cooldown.
	now = now.Add(20 * time.Second)
	for i := 0; i < 2*breakerThreshold; i++ {
		if b.Record(numerical) {
			t.Fatal("an open breaker opened again")
		}
	}
	if left, closed := b.admit(); left != 40*time.Second || closed || b.Trips() != 1 {
		t.Fatalf("open breaker 20s in: left %v, closed %v, trips %d; want 40s, false, 1", left, closed, b.Trips())
	}

	// The cooldown over, one admit closes it; the next finds it closed.
	now = now.Add(40 * time.Second)
	if left, closed := b.admit(); left != 0 || !closed {
		t.Fatalf("admit after the cooldown: left %v, closed %v; want 0, true", left, closed)
	}
	if left, closed := b.admit(); left != 0 || closed {
		t.Fatalf("second admit: left %v, closed %v; want 0, false", left, closed)
	}
}

// TestBreakerResetAndNeutralErrors checks that a success resets the
// consecutive count and that non-trippable failures neither count nor
// reset.
func TestBreakerResetAndNeutralErrors(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(time.Minute)
	b.now = func() time.Time { return now }

	numerical := fmt.Errorf("solve: %w", lp.ErrNumerical)

	fail := func(n int) {
		for i := 0; i < n; i++ {
			b.Record(numerical)
		}
	}
	// threshold-1 failures, a success, threshold-1 failures: never opens.
	fail(breakerThreshold - 1)
	b.Record(nil)
	fail(breakerThreshold - 1)
	if b.Left() != 0 {
		t.Fatal("breaker open, want closed after the success reset the count")
	}

	// The count stands at threshold-1: a neutral (infeasible) error must
	// not reset it, so the next failure opens the breaker.
	b.Record(lp.ErrInfeasible)
	if !b.Record(numerical) || b.Left() == 0 {
		t.Fatal("breaker closed, want open (a neutral error must not reset the count)")
	}
}

// TestBreakerConcurrentTripsAnneal hammers one breaker from many
// goroutines (trippable failures, successes and Left reads
// interleaved) with its clock stopped: it opens exactly once, and
// every read sees it open or closed with a whole cooldown left. Once
// the cooldown is over, concurrent admits close it exactly once. Run
// under -race this doubles as the breaker's data-race proof.
func TestBreakerConcurrentTripsAnneal(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
	)
	var clockMu sync.Mutex
	now := time.Unix(5000, 0)
	b := NewBreaker(time.Minute)
	b.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	numerical := fmt.Errorf("solve: %w", lp.ErrNumerical)

	var opened atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch {
				case w%3 == 2 && i%7 == 0:
					b.Record(nil)
				case w%3 == 1 && i%5 == 0:
					if l := b.Left(); l != 0 && l != time.Minute {
						//lint:ignore pcflint/nopanic t.Fatalf is illegal off the test goroutine; panic fails the race worker with a stack
						panic(fmt.Sprintf("left %v, want 0 or a whole cooldown", l))
					}
				default:
					if b.Record(numerical) {
						opened.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if b.Left() != time.Minute || opened.Load() != 1 || b.Trips() != 1 {
		t.Fatalf("after concurrent failures: left %v, opened %d times, trips %d; want a minute, 1, 1", b.Left(), opened.Load(), b.Trips())
	}

	clockMu.Lock()
	now = now.Add(time.Minute)
	clockMu.Unlock()
	var closes atomic.Int64
	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if left, closed := b.admit(); closed {
				closes.Add(1)
			} else if left != 0 {
				//lint:ignore pcflint/nopanic t.Fatalf is illegal off the test goroutine; panic fails the race worker with a stack
				panic(fmt.Sprintf("admit after the cooldown: left %v", left))
			}
		}()
	}
	wg2.Wait()
	if closes.Load() != 1 || b.Left() != 0 || b.Trips() != 1 {
		t.Fatalf("after the cooldown: %d admits closed it, left %v, trips %d; want 1, 0, 1", closes.Load(), b.Left(), b.Trips())
	}
}
