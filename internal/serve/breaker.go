package serve

import (
	"sync"
	"time"

	"pcf/internal/core"
)

// breakerThreshold is the number of consecutive degradable failures
// that open a breaker.
const breakerThreshold = 3

// Breaker is a scheme row's circuit breaker, closed or open.
// breakerThreshold consecutive degradable failures (core.Degradable)
// of the row's whole ladder open it for one cooldown; while it is open
// Server.Solve rejects the row fast with ErrBreakerOpen, and the first
// admit after the cooldown, a solve of the row or a health read, closes
// it again. A ladder already drops a failing rung within one solve, so
// the breaker guards only the row whose every rung keeps failing.
type Breaker struct {
	mu          sync.Mutex
	cooldown    time.Duration
	now         func() time.Time
	until       time.Time // when an open breaker closes; zero while closed
	consecutive int
	trips       int64
}

// NewBreaker builds a closed breaker; cooldown must be positive.
func NewBreaker(cooldown time.Duration) *Breaker {
	return &Breaker{cooldown: cooldown, now: time.Now}
}

// admit reports how long the breaker stays open, zero when it is
// closed; closed reports that this call closed it, its cooldown over.
func (b *Breaker) admit() (left time.Duration, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.until.IsZero() {
		return 0, false
	}
	if left = b.until.Sub(b.now()); left > 0 {
		return left, false
	}
	b.until = time.Time{}
	return 0, true
}

// Left reports how long the breaker stays open: zero once it is
// closed or its cooldown is over.
func (b *Breaker) Left() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.until.IsZero() {
		return 0
	}
	return max(b.until.Sub(b.now()), 0)
}

// Record feeds one solve outcome into a closed breaker and reports
// whether it opened it. A success resets the consecutive-failure
// count, a degradable failure counts toward opening, and any other
// failure leaves the count unchanged. An open breaker ignores outcomes
// of solves admitted before it opened.
func (b *Breaker) Record(err error) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.until.IsZero():
	case err == nil:
		b.consecutive = 0
	case core.Degradable(err):
		if b.consecutive++; b.consecutive >= breakerThreshold {
			b.consecutive = 0
			b.until = b.now().Add(b.cooldown)
			b.trips++
			return true
		}
	}
	return false
}

// Trips reports how many times the breaker opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
