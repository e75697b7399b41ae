// Package retry provides small context-aware retry helpers for the
// ingestion layer: capped exponential backoff with deterministic seeded
// jitter, a transient/permanent error taxonomy, and an attempt budget.
//
// The live GDELT feed fails in two fundamentally different ways (the
// Table II taxonomy): transiently — a chunk not yet published, a socket
// reset, an EAGAIN-style hiccup — and permanently — a chunk that was never
// archived or whose bytes are gone. Retrying the former and quarantining
// the latter is what lets a multi-hour conversion or a long-running stream
// monitor degrade gracefully instead of aborting.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// transientError marks an error as worth retrying.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so IsTransient reports true for it. A nil err
// returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// Transientf is Transient(fmt.Errorf(...)).
func Transientf(format string, args ...any) error {
	return Transient(fmt.Errorf(format, args...))
}

// IsTransient reports whether err (or anything it wraps) was marked
// Transient. Context cancellation and deadline errors are never transient:
// once the caller's budget is gone there is no point retrying.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t *transientError
	return errors.As(err, &t)
}

// ErrBudgetExhausted wraps the last transient error when a Policy runs out
// of attempts.
var ErrBudgetExhausted = errors.New("retry: attempt budget exhausted")

// Policy is a capped exponential backoff schedule. The zero value retries
// nothing (one attempt, no waiting); DefaultPolicy is the sensible start.
type Policy struct {
	// MaxAttempts is the total number of attempts, including the first.
	// Values below 1 mean 1 (no retries).
	MaxAttempts int
	// BaseDelay is the wait before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the grown delay. Zero means no cap.
	MaxDelay time.Duration
	// Multiplier grows the delay between retries. Values <= 1 mean 2.
	Multiplier float64
	// Jitter is the fraction of each delay drawn uniformly at random,
	// in [0, 1]: delay' = delay * (1 - Jitter + Jitter*U). Zero disables
	// jitter.
	Jitter float64
	// Seed makes the jitter sequence deterministic. Zero seeds from the
	// schedule parameters alone, which is still deterministic.
	Seed int64
	// Sleep replaces time.Sleep, letting tests run schedules instantly.
	// The default waits on a timer and the context's done channel; a custom
	// Sleep should do the same, but Do no longer depends on it — every
	// backoff wait is raced against ctx.Done(), so cancellation always
	// returns early instead of sleeping out the full backoff.
	Sleep func(ctx context.Context, d time.Duration) error
}

// DefaultPolicy retries transient errors four times over roughly a second.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, Jitter: 0.2}
}

func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p Policy) rng() *rand.Rand {
	seed := p.Seed
	if seed == 0 {
		seed = int64(p.attempts())<<32 ^ int64(p.BaseDelay) ^ int64(p.MaxDelay)<<1
	}
	return rand.New(rand.NewSource(seed))
}

// delay computes the wait before retry number attempt (1-based).
func (p Policy) delay(attempt int, rng *rand.Rand) time.Duration {
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d *= 1 - p.Jitter + p.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

func defaultSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// cancellableSleep races sleep against ctx.Done() so a backoff wait ends
// the moment the caller's budget is gone, even when a custom Sleep ignores
// the context (e.g. a bare time.Sleep). The sleeping goroutine is left to
// finish on its own — it holds no resources and its lifetime is bounded by
// the backoff delay itself.
func cancellableSleep(ctx context.Context, sleep func(ctx context.Context, d time.Duration) error, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- sleep(ctx, d) }()
	select {
	case err := <-done:
		if err != nil {
			return err
		}
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs op until it succeeds, fails permanently, or the budget runs out.
// Only errors marked Transient are retried; anything else is returned
// as-is on first sight. When the attempt budget is exhausted the last
// transient error is returned wrapped in ErrBudgetExhausted. Context
// cancellation wins over everything and returns ctx.Err().
func (p Policy) Do(ctx context.Context, op func() error) error {
	attempts := p.attempts()
	sleep := p.Sleep
	if sleep == nil {
		sleep = defaultSleep
	}
	rng := p.rng()
	var last error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op()
		if err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		last = err
		if a == attempts-1 {
			break
		}
		if err := cancellableSleep(ctx, sleep, p.delay(a+1, rng)); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, attempts, last)
}
