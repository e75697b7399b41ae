package qcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(kind string, version uint64) Key {
	return Key{Kind: kind, Params: "k=10", Window: "0:100", Version: version}
}

// waitCounter polls an obs counter until it reaches want — the only way a
// test can know a waiter has joined an in-flight computation without
// reaching into the cache's internals.
func waitCounter(t *testing.T, value func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Kind: "country", Params: "k=10", Window: "0:500", Version: 3}
	if got, want := k.String(), "country?k=10@0:500#v3"; got != want {
		t.Fatalf("key %q want %q", got, want)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Bypass: "bypass", Miss: "miss", Hit: "hit", Coalesced: "coalesced"} {
		if o.String() != want {
			t.Fatalf("outcome %d = %q want %q", o, o.String(), want)
		}
	}
}

func TestDoMissThenHit(t *testing.T) {
	c := New(0)
	var calls int32
	compute := func() (any, error) {
		atomic.AddInt32(&calls, 1)
		return "result", nil
	}
	v, out, err := c.Do(context.Background(), key("a", 1), compute)
	if err != nil || v != "result" || out != Miss {
		t.Fatalf("first Do: %v %v %v", v, out, err)
	}
	v, out, err = c.Do(context.Background(), key("a", 1), compute)
	if err != nil || v != "result" || out != Hit {
		t.Fatalf("second Do: %v %v %v", v, out, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	// A different key computes independently.
	if _, out, _ := c.Do(context.Background(), key("b", 1), compute); out != Miss {
		t.Fatalf("distinct key outcome %v, want miss", out)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

func TestErrorsNeverCached(t *testing.T) {
	c := New(0)
	boom := errors.New("scan failed")
	var calls int32
	compute := func() (any, error) {
		atomic.AddInt32(&calls, 1)
		return nil, boom
	}
	if _, _, err := c.Do(context.Background(), key("a", 1), compute); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error cached: %d entries", c.Len())
	}
	if _, _, err := c.Do(context.Background(), key("a", 1), compute); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors must not memoize)", calls)
	}
}

func TestLRUEvictionByMemoryBudget(t *testing.T) {
	val := func() any { return make([]int64, 1024) }
	cost := Approx(val()) + overheadBytes
	c := New(3*cost + 16) // room for exactly three entries
	mk := func(kind string) Key { return key(kind, 1) }

	for _, k := range []string{"a", "b", "c"} {
		if _, out, _ := c.Do(context.Background(), mk(k), func() (any, error) { return val(), nil }); out != Miss {
			t.Fatalf("%s: outcome %v", k, out)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("resident %d want 3", c.Len())
	}
	// Touch "a" so "b" is the LRU victim when "d" arrives.
	if _, ok := c.Get(mk("a")); !ok {
		t.Fatal("a missing before eviction")
	}
	if _, out, _ := c.Do(context.Background(), mk("d"), func() (any, error) { return val(), nil }); out != Miss {
		t.Fatal("d should miss")
	}
	if c.Len() != 3 {
		t.Fatalf("resident %d want 3 after eviction", c.Len())
	}
	if _, ok := c.Get(mk("b")); ok {
		t.Fatal("b survived; LRU should have evicted it")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(mk(k)); !ok {
			t.Fatalf("%s evicted; only b should have been", k)
		}
	}
	if used, max := c.UsedBytes(), c.maxBytes; used > max {
		t.Fatalf("used %d exceeds budget %d", used, max)
	}
}

func TestOversizedResultNotCached(t *testing.T) {
	c := New(512)
	big := make([]int64, 4096) // ~32KB, far past the 512-byte budget
	v, out, err := c.Do(context.Background(), key("big", 1), func() (any, error) { return big, nil })
	if err != nil || out != Miss {
		t.Fatalf("outcome %v err %v", out, err)
	}
	if len(v.([]int64)) != len(big) {
		t.Fatal("oversized result must still be returned")
	}
	if c.Len() != 0 || c.UsedBytes() != 0 {
		t.Fatalf("oversized result was cached: %d entries, %d bytes", c.Len(), c.UsedBytes())
	}
}

func TestVersionSweepRetiresOldEntries(t *testing.T) {
	c := New(0)
	compute := func() (any, error) { return 42, nil }
	for _, k := range []string{"a", "b"} {
		if _, _, err := c.Do(context.Background(), key(k, 1), compute); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("resident %d want 2", c.Len())
	}
	// The first lookup carrying version 2 sweeps out both v1 entries.
	if _, out, _ := c.Do(context.Background(), key("a", 2), compute); out != Miss {
		t.Fatalf("post-bump outcome %v, want miss", out)
	}
	if c.Len() != 1 {
		t.Fatalf("resident %d want 1 (the fresh v2 entry)", c.Len())
	}
	if _, ok := c.Get(key("b", 1)); ok {
		t.Fatal("stale v1 entry survived the sweep")
	}
}

func TestCoalescedWaitersShareOneComputation(t *testing.T) {
	c := New(0)
	const waiters = 8
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	var calls int32
	compute := func() (any, error) {
		atomic.AddInt32(&calls, 1)
		close(leaderIn)
		<-release
		return "shared", nil
	}

	k := key("a", 1)
	var wg sync.WaitGroup
	results := make([]any, waiters+1)
	outcomes := make([]Outcome, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], outcomes[0], _ = c.Do(context.Background(), k, compute)
	}()
	<-leaderIn

	before := c.coalesced.Value()
	for i := 1; i <= waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], outcomes[i], _ = c.Do(context.Background(), k, compute)
		}()
	}
	waitCounter(t, c.coalesced.Value, before+waiters)
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if outcomes[0] != Miss {
		t.Fatalf("leader outcome %v", outcomes[0])
	}
	for i := 1; i <= waiters; i++ {
		if outcomes[i] != Coalesced {
			t.Fatalf("waiter %d outcome %v", i, outcomes[i])
		}
		if results[i] != "shared" {
			t.Fatalf("waiter %d result %v", i, results[i])
		}
	}
}

func TestWaiterRetriesAfterLeaderCancellation(t *testing.T) {
	c := New(0)
	k := key("a", 1)
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(context.Background(), k, func() (any, error) {
			close(leaderIn)
			<-release
			// What Executor.Execute returns when the leader's own request
			// context was cancelled mid-scan.
			return nil, context.Canceled
		})
	}()
	<-leaderIn

	before := c.coalesced.Value()
	type res struct {
		v   any
		out Outcome
		err error
	}
	done := make(chan res, 1)
	go func() {
		v, out, err := c.Do(context.Background(), k, func() (any, error) { return "fresh", nil })
		done <- res{v, out, err}
	}()
	waitCounter(t, c.coalesced.Value, before+1)
	close(release)

	r := <-done
	wg.Wait()
	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader error %v", leaderErr)
	}
	if r.err != nil || r.v != "fresh" || r.out != Miss {
		t.Fatalf("waiter should have retried as the new leader: %v %v %v", r.v, r.out, r.err)
	}
	// The retried result is cached normally.
	if v, ok := c.Get(k); !ok || v != "fresh" {
		t.Fatalf("retried result not cached: %v %v", v, ok)
	}
}

func TestWaiterOwnContextCancelled(t *testing.T) {
	c := New(0)
	k := key("a", 1)
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), k, func() (any, error) {
			close(leaderIn)
			<-release
			return "late", nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	before := c.coalesced.Value()
	type res struct {
		out Outcome
		err error
	}
	done := make(chan res, 1)
	go func() {
		_, out, err := c.Do(ctx, k, func() (any, error) { return nil, nil })
		done <- res{out, err}
	}()
	waitCounter(t, c.coalesced.Value, before+1)
	cancel()
	r := <-done
	if !errors.Is(r.err, context.Canceled) || r.out != Coalesced {
		t.Fatalf("cancelled waiter: %v %v", r.out, r.err)
	}
	close(release)
	wg.Wait()
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(fmt.Sprintf("kind-%d", i%5), uint64(1+i/25))
				v, _, err := c.Do(context.Background(), k, func() (any, error) { return k.String(), nil })
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if v != k.String() {
					t.Errorf("g%d i%d: wrong value %v", g, i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}
