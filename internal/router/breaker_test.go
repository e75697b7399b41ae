package router

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for breaker and cache
// tests, safe to read from handler goroutines while a test advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker("r0", 3, time.Second, clk.now)
	for i := 0; i < 2; i++ {
		b.Failure()
		if !b.canTry() {
			t.Fatalf("breaker open after %d failures, threshold 3", i+1)
		}
	}
	b.Failure()
	if b.canTry() {
		t.Fatal("breaker still closed after threshold failures")
	}
	if b.State() != "open" {
		t.Fatalf("state %q, want open", b.State())
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := newBreaker("r0", 2, time.Second, nil)
	b.Failure()
	b.Success()
	b.Failure()
	if !b.canTry() {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
}

// TestBreakerCooldown: an open breaker refuses tries until its cooldown
// has passed; failures while open neither extend the cooldown nor count,
// and a success closes it.
func TestBreakerCooldown(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker("r0", 1, time.Second, clk.now)
	b.Failure()
	if b.canTry() {
		t.Fatal("breaker should be open")
	}
	clk.advance(time.Second / 2)
	b.Failure()
	clk.advance(time.Second / 2)
	if !b.canTry() {
		t.Fatal("canTry should allow after cooldown")
	}
	if b.State() != "open" {
		t.Fatalf("state %q before a success, want open", b.State())
	}
	b.Success()
	if b.State() != "closed" || !b.canTry() {
		t.Fatal("success did not close the breaker")
	}
}
