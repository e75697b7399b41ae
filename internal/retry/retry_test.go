package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// instant returns a Sleep that records requested delays without waiting.
func instant(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestTransientMarking(t *testing.T) {
	base := errors.New("disk hiccup")
	if IsTransient(base) {
		t.Fatal("unmarked error must not be transient")
	}
	if !IsTransient(Transient(base)) {
		t.Fatal("marked error must be transient")
	}
	wrapped := errors.Join(errors.New("outer"), Transient(base))
	if !IsTransient(wrapped) {
		t.Fatal("transient mark must survive wrapping")
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) must be nil")
	}
	if IsTransient(context.Canceled) || IsTransient(Transient(context.Canceled)) {
		t.Fatal("context cancellation is never transient")
	}
}

func TestDoRetriesTransientToSuccess(t *testing.T) {
	var slept []time.Duration
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Sleep: instant(&slept)}
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return Transientf("attempt %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls %d want 3", calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times want 2", len(slept))
	}
}

func TestDoPermanentFailsImmediately(t *testing.T) {
	var slept []time.Duration
	p := Policy{MaxAttempts: 5, Sleep: instant(&slept)}
	perm := errors.New("file is gone")
	calls := 0
	err := p.Do(context.Background(), func() error { calls++; return perm })
	if !errors.Is(err, perm) {
		t.Fatalf("err %v", err)
	}
	if calls != 1 || len(slept) != 0 {
		t.Fatalf("calls %d slept %d: permanent errors must not retry", calls, len(slept))
	}
}

func TestDoBudgetExhausted(t *testing.T) {
	var slept []time.Duration
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: instant(&slept)}
	calls := 0
	err := p.Do(context.Background(), func() error { calls++; return Transientf("still down") })
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err %v want ErrBudgetExhausted", err)
	}
	if calls != 3 {
		t.Fatalf("calls %d want 3", calls)
	}
	if !IsTransient(err) {
		t.Fatal("exhausted-budget error should still carry the transient mark for classification")
	}
}

func TestDoContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error { cancel(); return ctx.Err() }}
	calls := 0
	err := p.Do(ctx, func() error { calls++; return Transientf("down") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v want Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls %d want 1: cancellation during backoff must stop retries", calls)
	}
}

func TestBackoffScheduleDeterministic(t *testing.T) {
	p := Policy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 60 * time.Millisecond,
		Multiplier: 2, Jitter: 0.5, Seed: 42}
	a, b := delays(p), delays(p)
	if len(a) != 5 {
		t.Fatalf("delays %d want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Jittered delays stay within [0.5x, 1x] of the un-jittered curve and
	// respect the cap.
	for i, d := range a {
		if d > 60*time.Millisecond {
			t.Fatalf("delay %d = %v exceeds cap", i, d)
		}
		if d <= 0 {
			t.Fatalf("delay %d = %v not positive", i, d)
		}
	}
	// A different seed gives a different jitter sequence.
	p2 := p
	p2.Seed = 43
	c := delays(p2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{10, 20, 40, 40}
	got := delays(p)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Fatalf("delay %d = %v want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
}

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	err := Policy{}.Do(context.Background(), func() error { calls++; return Transientf("x") })
	if calls != 1 {
		t.Fatalf("calls %d want 1", calls)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err %v", err)
	}
}

// delays returns the backoff schedule p waits through when every attempt
// fails: one duration per retry, jitter applied.
func delays(p Policy) []time.Duration {
	rng := p.rng()
	out := make([]time.Duration, 0, p.attempts()-1)
	for a := 1; a < p.attempts(); a++ {
		out = append(out, p.delay(a, rng))
	}
	return out
}
