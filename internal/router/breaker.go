package router

import (
	"sync"
	"time"

	"gdeltmine/internal/obs"
)

// breaker is a per-replica circuit breaker:
//
//	closed ──(threshold consecutive failures)──> open
//	open ──(cooldown elapsed)──> tried again (canTry)
//	any ──(success)──> closed
//
// Failures are replica failures only — transport errors, per-try timeouts
// and upstream 5xx. Client-shaped responses (2xx–4xx) count as successes:
// a replica faithfully returning 400s is healthy. Both live traffic and
// the background /readyz prober feed the same breaker, so an idle router
// still notices a replica dying, and a recovered replica is closed again
// by the next probe without waiting for a user request to gamble on it.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	default:
		return "closed"
	}
}

type breaker struct {
	threshold int           // consecutive failures that trip the breaker
	cooldown  time.Duration // how long an open breaker refuses tries
	now       func() time.Time
	trips     *obs.Counter

	mu       sync.Mutex
	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
}

func newBreaker(replicaID string, threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold < 1 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       now,
		trips: obs.Default.Counter("router_breaker_trips_total",
			"circuit breaker trips per replica", obs.L("replica", replicaID)),
	}
}

// canTry reports whether a request may be sent to the replica: always
// when closed, and once the cooldown has elapsed when open.
func (b *breaker) canTry() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed || b.now().Sub(b.openedAt) >= b.cooldown
}

// Success records a healthy interaction and closes the breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.fails = 0
	b.mu.Unlock()
}

// Failure records a replica failure, tripping the breaker at the
// threshold. Failures while open change nothing.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.trips.Inc()
	}
}

// State names the current state for /routez and tests.
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}
