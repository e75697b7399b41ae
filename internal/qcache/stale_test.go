package qcache

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// TestSetStalePredicate: a version sweep with an installed staleness
// predicate retires exactly the entries the predicate condemns, not every
// entry of an older version — the mechanism a sharded store uses to keep
// cold-shard results warm across tail appends.
func TestSetStalePredicate(t *testing.T) {
	c := New(0)
	hot := Key{Kind: "count", Window: "iv0:96/v0.0.3", Version: 3}
	cold := Key{Kind: "count", Window: "iv0:32/v0", Version: 0}
	compute := func() (any, error) { return "x", nil }
	for _, k := range []Key{hot, cold} {
		if _, out, err := c.Do(context.Background(), k, compute); err != nil || out != Miss {
			t.Fatalf("seeding %v: outcome %v err %v", k, out, err)
		}
	}

	c.SetStale(func() func(Key) bool {
		return func(k Key) bool { return strings.Contains(k.Window, "v0.0.3") }
	})
	sweep(c, 4) // sweep at a newer version: predicate decides, not age

	if _, ok := c.Get(hot); ok {
		t.Error("predicate-condemned entry survived the sweep")
	}
	if _, ok := c.Get(cold); !ok {
		t.Error("predicate-spared entry was retired despite its old version")
	}
}

// TestSweepDefaultWithoutPredicate: without SetStale the sweep keeps its
// original semantics — every entry older than the sweep version dies.
func TestSweepDefaultWithoutPredicate(t *testing.T) {
	c := New(0)
	old := Key{Kind: "stats", Window: "0:10", Version: 1}
	compute := func() (any, error) { return 1, nil }
	if _, _, err := c.Do(context.Background(), old, compute); err != nil {
		t.Fatal(err)
	}
	sweep(c, 2)
	if _, ok := c.Get(old); ok {
		t.Error("stale-by-version entry survived a sweep with no predicate installed")
	}
}

// TestSweepBuildsPredicateOnce: a sweep asks SetStale's factory for one
// predicate and uses it for every resident entry, so a store resolves its
// world once per sweep whatever the number of entries; an empty cache's
// sweep resolves nothing.
func TestSweepBuildsPredicateOnce(t *testing.T) {
	c := New(0)
	var built, asked int
	c.SetStale(func() func(Key) bool {
		built++
		return func(Key) bool { asked++; return false }
	})
	sweep(c, 1)
	if built != 0 {
		t.Fatalf("sweep of an empty cache built %d predicates, want 0", built)
	}
	for i := range 50 {
		k := Key{Kind: "count", Params: strconv.Itoa(i), Version: 1}
		if _, _, err := c.Do(context.Background(), k, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	sweep(c, 2)
	if built != 1 || asked != 50 {
		t.Fatalf("one sweep over 50 entries built %d predicates and asked %d times, want 1 and 50", built, asked)
	}
	if c.Len() != 50 {
		t.Fatalf("resident %d after a sweep that condemned nothing, want 50", c.Len())
	}
}

// sweep runs the lazy version sweep a lookup at version would run.
func sweep(c *Cache, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(version)
}
