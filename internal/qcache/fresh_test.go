package qcache

import (
	"context"
	"sync"
	"testing"
	"time"

	"gdeltmine/internal/obs"
)

// The freshness battery pins DoFresh: an entry lives exactly its TTL from
// the lookup that computed it, a result fresh for no time is shared with
// its flight's waiters but never stored, and an expired entry's memory is
// returned to the budget when a lookup finds it.

func fresh(t *testing.T, c *Cache, k Key, now time.Time, ttl time.Duration, calls *int) Outcome {
	t.Helper()
	_, out, err := c.DoFresh(context.Background(), k, now, func() (any, time.Duration, error) {
		*calls++
		return make([]byte, 100), ttl, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDoFreshExpiresAfterTTL(t *testing.T) {
	c := New(0)
	k := key("stats", 0)
	t0 := time.Unix(1000, 0)
	calls := 0
	for _, step := range []struct {
		at    time.Duration
		want  Outcome
		calls int
	}{
		{0, Miss, 1},
		{999 * time.Millisecond, Hit, 1},
		{time.Second, Miss, 2}, // expiry is exclusive: at t0+1s the entry is stale
		{1999 * time.Millisecond, Hit, 2},
		{2 * time.Second, Miss, 3},
	} {
		if got := fresh(t, c, k, t0.Add(step.at), time.Second, &calls); got != step.want || calls != step.calls {
			t.Fatalf("at +%v: outcome %v after %d computations, want %v after %d", step.at, got, calls, step.want, step.calls)
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != bodyCost(100) || st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("stats %+v: want one entry of %d bytes, 2 hits, 3 misses", st, bodyCost(100))
	}
}

func TestDoFreshZeroTTLIsNotStored(t *testing.T) {
	c := New(0)
	k := key("stats", 0)
	now := time.Unix(1000, 0)
	calls := 0
	for i := 1; i <= 3; i++ {
		if got := fresh(t, c, k, now, 0, &calls); got != Miss || calls != i {
			t.Fatalf("lookup %d: outcome %v after %d computations", i, got, calls)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("a result fresh for no time was stored: %+v", st)
	}

	// Callers joining its flight share it all the same.
	release, entered := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	outs := make([]Outcome, 4)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, outs[i], _ = c.DoFresh(context.Background(), k, now, func() (any, time.Duration, error) {
				close(entered)
				<-release
				return "live", 0, nil
			})
		}()
		if i == 0 {
			<-entered
		}
	}
	for c.Stats().Coalesced < 3 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if outs[0] != Miss || outs[1] != Coalesced || outs[2] != Coalesced || outs[3] != Coalesced {
		t.Fatalf("outcomes %v, want one miss and three coalesced", outs)
	}
}

// TestDoFreshExpiredEntryFreesItsBytes: an expired entry stops counting
// against the budget once a lookup finds it, and counts as invalidated.
func TestDoFreshExpiredEntryFreesItsBytes(t *testing.T) {
	c := NewNamed("qcache_fresh_test", 0)
	inval := obs.Default.Counter("qcache_fresh_test_invalidated_total", "")
	before := inval.Value()
	t0 := time.Unix(1000, 0)
	calls := 0
	fresh(t, c, key("a", 0), t0, time.Second, &calls)
	fresh(t, c, key("b", 0), t0, time.Hour, &calls)
	if got := c.UsedBytes(); got != 2*bodyCost(100) {
		t.Fatalf("used %d, want %d", got, 2*bodyCost(100))
	}
	if _, out, _ := c.DoFresh(context.Background(), key("a", 0), t0.Add(time.Minute), func() (any, time.Duration, error) {
		return nil, 0, nil
	}); out != Miss {
		t.Fatalf("expired entry: outcome %v", out)
	}
	if got := c.UsedBytes(); got != bodyCost(100) || c.Len() != 1 {
		t.Fatalf("after expiry: %d entries, %d bytes, want 1 and %d", c.Len(), got, bodyCost(100))
	}
	if got := inval.Value() - before; got != 1 {
		t.Fatalf("invalidated counter moved by %d, want 1", got)
	}

	// A named cache's hits move its own counter, not the default one.
	named, shared := obs.Default.Counter("qcache_fresh_test_hits_total", ""), obs.Default.Counter("qcache_hits_total", "")
	n0, s0 := named.Value(), shared.Value()
	if out := fresh(t, c, key("b", 0), t0.Add(time.Minute), time.Hour, &calls); out != Hit {
		t.Fatalf("fresh entry: outcome %v", out)
	}
	if named.Value() != n0+1 || shared.Value() != s0 {
		t.Fatalf("named hit moved qcache_fresh_test_hits_total by %d and qcache_hits_total by %d", named.Value()-n0, shared.Value()-s0)
	}
}
