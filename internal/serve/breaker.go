package serve

import (
	"sync"
	"time"

	"pcf/internal/core"
)

// Breaker is a leveled circuit breaker: BreakerThreshold consecutive
// degradable failures (core.Degradable) raise the level by one (up to maxLevel), and each
// cooldown period with no further trip anneals one level back. The
// level is the number of the scheme row's rungs to skip
// (core.Scheme.Solve), so on best a CLS formulation that keeps breaking
// numerically stops being attempted until the breaker anneals; at the
// row's rung count the breaker is open and requests are rejected fast
// with ErrBreakerOpen.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	maxLevel    int
	cooldown    time.Duration
	now         func() time.Time
	level       int
	consecutive int
	changed     time.Time
	trips       int64
}

// NewBreaker builds a breaker. threshold and cooldown must be
// positive; maxLevel is the deepest ladder skip it may request.
func NewBreaker(threshold, maxLevel int, cooldown time.Duration) *Breaker {
	return &Breaker{
		threshold: threshold,
		maxLevel:  maxLevel,
		cooldown:  cooldown,
		now:       time.Now,
	}
}

// anneal steps the level back down, one per full cooldown elapsed
// since the last change. Caller holds mu.
func (b *Breaker) anneal() {
	now := b.now()
	for b.level > 0 && now.Sub(b.changed) >= b.cooldown {
		b.level--
		b.changed = b.changed.Add(b.cooldown)
	}
	if b.level == 0 {
		b.changed = now
	}
}

// Level returns the current ladder skip depth after annealing.
func (b *Breaker) Level() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.anneal()
	return b.level
}

// Record feeds one solve outcome into the breaker. A success resets
// the consecutive-failure count (the level anneals only by time, so a
// lucky success does not immediately re-expose a broken rung); a
// degradable failure counts toward the next trip; any other failure
// leaves the count unchanged.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.anneal()
	switch {
	case err == nil:
		b.consecutive = 0
	case core.Degradable(err):
		b.consecutive++
		if b.consecutive >= b.threshold && b.level < b.maxLevel {
			b.level++
			b.consecutive = 0
			b.changed = b.now()
			b.trips++
		}
	}
}

// Trips reports how many times the breaker stepped a level up.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
