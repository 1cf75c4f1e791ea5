package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pcf/internal/lp"
)

// TestBreakerTripAndAnneal drives a breaker through a full cycle with
// an injected clock: trip at the threshold, climb one level per trip,
// saturate at maxLevel, then anneal one level per cooldown.
func TestBreakerTripAndAnneal(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(2, 2, time.Minute)
	b.now = func() time.Time { return now }

	numerical := fmt.Errorf("solve: %w", lp.ErrNumerical)

	if b.Level() != 0 {
		t.Fatalf("fresh breaker level = %d, want 0", b.Level())
	}
	b.Record(numerical)
	if b.Level() != 0 {
		t.Fatalf("level after 1 failure = %d, want 0 (threshold 2)", b.Level())
	}
	b.Record(numerical)
	if b.Level() != 1 {
		t.Fatalf("level after 2 failures = %d, want 1", b.Level())
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}

	// Two more failures: second trip, level 2 (the max).
	b.Record(numerical)
	b.Record(numerical)
	if b.Level() != 2 {
		t.Fatalf("level after 4 failures = %d, want 2", b.Level())
	}
	// Further failures cannot exceed maxLevel.
	b.Record(numerical)
	b.Record(numerical)
	if b.Level() != 2 {
		t.Fatalf("level saturated = %d, want 2", b.Level())
	}

	// One cooldown anneals one level; two anneal fully.
	now = now.Add(61 * time.Second)
	if b.Level() != 1 {
		t.Fatalf("level after one cooldown = %d, want 1", b.Level())
	}
	now = now.Add(60 * time.Second)
	if b.Level() != 0 {
		t.Fatalf("level after two cooldowns = %d, want 0", b.Level())
	}
}

// TestBreakerResetAndNeutralErrors checks that a success resets the
// consecutive count and that non-trippable failures neither count nor
// reset.
func TestBreakerResetAndNeutralErrors(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(2, 1, time.Minute)
	b.now = func() time.Time { return now }

	numerical := fmt.Errorf("solve: %w", lp.ErrNumerical)

	// failure, success, failure: never reaches the threshold.
	b.Record(numerical)
	b.Record(nil)
	b.Record(numerical)
	if b.Level() != 0 {
		t.Fatalf("level = %d, want 0 after success reset", b.Level())
	}

	// failure, neutral (infeasible), failure: the neutral error must
	// not reset the count, so the second trippable failure trips.
	b.Record(numerical)
	b.Record(lp.ErrInfeasible)
	b.Record(numerical)
	if b.Level() != 1 {
		t.Fatalf("level = %d, want 1 (neutral error must not reset)", b.Level())
	}
}

// TestBreakerConcurrentTripsAnneal hammers one breaker from many
// goroutines (trippable failures, successes, and Level reads all
// interleaved) and then checks the cooldown annealing arithmetic is
// still exact: the level never exceeds maxLevel, never goes negative,
// and steps down one per elapsed cooldown — concurrent trips must not
// corrupt the annealing clock. Run under -race this doubles as the
// breaker's data-race proof.
func TestBreakerConcurrentTripsAnneal(t *testing.T) {
	const (
		maxLevel = 4
		workers  = 8
		rounds   = 200
	)
	var clockMu sync.Mutex
	now := time.Unix(5000, 0)
	b := NewBreaker(1, maxLevel, time.Minute)
	b.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	numerical := fmt.Errorf("solve: %w", lp.ErrNumerical)

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
					if l := b.Level(); l < 0 || l > maxLevel {
						//lint:ignore pcflint/nopanic t.Fatalf is illegal off the test goroutine; panic fails the race worker with a stack
						panic(fmt.Sprintf("level %d out of [0,%d]", l, maxLevel))
					}
				default:
					b.Record(numerical)
				}
			}
		}(w)
	}
	wg.Wait()

	// With threshold 1 and ~hundreds of trippable failures, the breaker
	// must sit at its ceiling.
	if got := b.Level(); got != maxLevel {
		t.Fatalf("level after concurrent trips = %d, want %d", got, maxLevel)
	}
	trips := b.Trips()
	if trips < int64(maxLevel) {
		t.Fatalf("trips = %d, want >= %d", trips, maxLevel)
	}

	// Annealing: exactly one level per cooldown, down to zero, and
	// concurrent reads during the anneal agree monotonically.
	for want := maxLevel - 1; want >= 0; want-- {
		clockMu.Lock()
		now = now.Add(time.Minute)
		clockMu.Unlock()
		var wg2 sync.WaitGroup
		levels := make([]int, workers)
		for w := 0; w < workers; w++ {
			wg2.Add(1)
			go func(w int) {
				defer wg2.Done()
				levels[w] = b.Level()
			}(w)
		}
		wg2.Wait()
		for w, l := range levels {
			if l != want {
				t.Fatalf("reader %d saw level %d after anneal step, want %d", w, l, want)
			}
		}
	}
	if got := b.Level(); got != 0 {
		t.Fatalf("level after full anneal = %d, want 0", got)
	}
	// Fully annealed: trips are history, not state.
	if got := b.Trips(); got != trips {
		t.Fatalf("anneal changed the trip count: %d -> %d", trips, got)
	}
}
