package qcache

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// The eviction battery pins GreedyDual-Size-Frequency with computation
// times set by a fake clock, so every priority and every victim is exact.

// fakeClock is the cache's clock in these tests: it moves only when a
// computation says how long it took.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time { return f.t }

func newTimedCache(maxBytes int64) (*Cache, *fakeClock) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	c := New(maxBytes)
	c.now = clk.now
	return c, clk
}

// bodyCost is what a body of n bytes is charged: its capacity plus the
// per-entry overhead.
func bodyCost(n int) int64 { return int64(n) + overheadBytes }

// do runs a lookup of k whose computation, if it runs, takes d and yields
// an n-byte body.
func do(t *testing.T, c *Cache, clk *fakeClock, k Key, n int, d time.Duration) Outcome {
	t.Helper()
	_, out, err := c.Do(context.Background(), k, func() (any, error) {
		clk.t = clk.t.Add(d)
		return make([]byte, n), nil
	})
	if err != nil {
		t.Fatalf("Do %v: %v", k, err)
	}
	return out
}

func resident(c *Cache, k Key) bool {
	_, ok := c.Get(k)
	return ok
}

// TestEqualCostsEvictInLRUOrder is the old LRU scenario: with every cost
// and size equal, the policy evicts the least recently used entry.
func TestEqualCostsEvictInLRUOrder(t *testing.T) {
	c, clk := newTimedCache(3*bodyCost(1024) + 16) // room for exactly three
	mk := func(kind string) Key { return key(kind, 1) }
	for _, k := range []string{"a", "b", "c"} {
		if out := do(t, c, clk, mk(k), 1024, time.Millisecond); out != Miss {
			t.Fatalf("%s: outcome %v", k, out)
		}
	}
	// Use "a" so "b" is the victim when "d" arrives.
	if out := do(t, c, clk, mk("a"), 1024, time.Millisecond); out != Hit {
		t.Fatalf("a: outcome %v, want hit", out)
	}
	if out := do(t, c, clk, mk("d"), 1024, time.Millisecond); out != Miss {
		t.Fatal("d should miss")
	}
	if c.Len() != 3 {
		t.Fatalf("resident %d want 3 after eviction", c.Len())
	}
	if resident(c, mk("b")) {
		t.Fatal("b survived; it was the least recently used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !resident(c, mk(k)) {
			t.Fatalf("%s evicted; only b should have been", k)
		}
	}
	if used, max := c.UsedBytes(), c.maxBytes; used > max {
		t.Fatalf("used %d exceeds budget %d", used, max)
	}
}

// TestGetIsPureProbe: probing residency is not a use — the probed entry is
// still the next victim.
func TestGetIsPureProbe(t *testing.T) {
	c, clk := newTimedCache(3*bodyCost(1024) + 16)
	mk := func(kind string) Key { return key(kind, 1) }
	for _, k := range []string{"a", "b", "c"} {
		do(t, c, clk, mk(k), 1024, time.Millisecond)
	}
	for range 3 {
		if !resident(c, mk("a")) {
			t.Fatal("a missing before eviction")
		}
	}
	do(t, c, clk, mk("d"), 1024, time.Millisecond)
	if resident(c, mk("a")) {
		t.Fatal("a survived; Get must not protect an entry from eviction")
	}
}

// TestCheapLargeBodyEvictedFirst: a 4 KB answer that took 0.2 ms goes
// before an older 100 B one that took 30 ms — the older entry saves more
// compute per byte it holds.
func TestCheapLargeBodyEvictedFirst(t *testing.T) {
	c, clk := newTimedCache(bodyCost(100) + bodyCost(4096) + bodyCost(1000) - 1)
	dear, cheap, next := key("dear", 1), key("cheap", 1), key("next", 1)
	do(t, c, clk, dear, 100, 30*time.Millisecond)
	do(t, c, clk, cheap, 4096, 200*time.Microsecond)
	do(t, c, clk, next, 1000, time.Millisecond)
	if resident(c, cheap) {
		t.Fatal("the cheap 4 KB body survived")
	}
	if !resident(c, dear) || !resident(c, next) {
		t.Fatalf("dear resident %v, next resident %v; want both", resident(c, dear), resident(c, next))
	}
}

// TestFrequencyProtectsRehitEntry: an entry used three times outlives a
// newer entry of equal size and compute time used once, which recency
// alone would keep instead.
func TestFrequencyProtectsRehitEntry(t *testing.T) {
	c, clk := newTimedCache(2*bodyCost(1024) + 16)
	popular, fresh, next := key("popular", 1), key("fresh", 1), key("next", 1)
	do(t, c, clk, popular, 1024, time.Millisecond)
	do(t, c, clk, popular, 1024, time.Millisecond)
	do(t, c, clk, popular, 1024, time.Millisecond)
	do(t, c, clk, fresh, 1024, time.Millisecond)
	do(t, c, clk, next, 1024, time.Millisecond)
	if !resident(c, popular) {
		t.Fatal("the thrice-used entry was evicted")
	}
	if resident(c, fresh) {
		t.Fatal("the once-used newer entry survived")
	}
}

// TestArchiveSurvivesCheapStream: a 16 KB value that took 30 ms to build
// (the size of country's archive half) outlives a stream of 200 cheap
// inserts that would have pushed it out of an LRU after about 37, and the
// inflation still ages it out once it has gone unused long enough.
func TestArchiveSurvivesCheapStream(t *testing.T) {
	c, clk := newTimedCache(64 << 10)
	archive := key("country/archive", 1)
	do(t, c, clk, archive, 16<<10, 30*time.Millisecond)
	cheap := func(i int) Key { return Key{Kind: "count", Params: fmt.Sprint(i), Version: 1} }
	for i := range 200 {
		do(t, c, clk, cheap(i), 1024, 200*time.Microsecond)
	}
	if !resident(c, archive) {
		t.Fatal("the archive value was evicted by 200 cheap inserts")
	}
	if resident(c, cheap(0)) {
		t.Fatal("the oldest cheap entry survived; the stream never filled the budget")
	}
	for i := 200; resident(c, archive); i++ {
		if i == 5000 {
			t.Fatal("the archive value outlived 5000 cheap inserts; inflation does not age entries")
		}
		do(t, c, clk, cheap(i), 1024, 200*time.Microsecond)
	}
}

// refEntry and refCache are the brute-force model of the policy: a slice
// scanned for its minimum.
type refEntry struct {
	key   Key
	cost  int64
	secs  float64
	freq  int64
	prio  float64
	touch uint64
}

type refCache struct {
	maxBytes, used int64
	inflation      float64
	touches        uint64
	entries        []*refEntry
}

func (r *refCache) find(k Key) *refEntry {
	for _, e := range r.entries {
		if e.key == k {
			return e
		}
	}
	return nil
}

func (r *refCache) hit(e *refEntry) {
	e.freq++
	r.touches++
	e.touch = r.touches
	e.prio = r.inflation + float64(e.freq)*e.secs/float64(e.cost)
}

func (r *refCache) insert(k Key, cost int64, secs float64) {
	if cost > r.maxBytes {
		return
	}
	r.touches++
	e := &refEntry{key: k, cost: cost, secs: secs, freq: 1, touch: r.touches}
	e.prio = r.inflation + secs/float64(cost)
	r.entries = append(r.entries, e)
	r.used += cost
	for r.used > r.maxBytes {
		m := 0
		for i, x := range r.entries {
			if x.prio < r.entries[m].prio || x.prio == r.entries[m].prio && x.touch < r.entries[m].touch {
				m = i
			}
		}
		r.inflation = r.entries[m].prio
		r.used -= r.entries[m].cost
		r.entries = append(r.entries[:m], r.entries[m+1:]...)
	}
}

func (r *refCache) sweep(dead func(Key) bool) {
	kept := r.entries[:0]
	for _, e := range r.entries {
		if dead(e.key) {
			r.used -= e.cost
			continue
		}
		kept = append(kept, e)
	}
	r.entries = kept
}

// checkInvariants verifies the cache's internal agreement: map, heap and
// Len hold the same entries, each heap slot knows its index, the heap is
// ordered, and the byte count is the sum of the entries' costs and within
// the budget.
func checkInvariants(t *testing.T, c *Cache) {
	t.Helper()
	if c.used > c.maxBytes {
		t.Fatalf("used %d exceeds budget %d", c.used, c.maxBytes)
	}
	if len(c.entries) != len(c.heap) || len(c.entries) != c.Len() {
		t.Fatalf("map holds %d, heap %d, Len %d", len(c.entries), len(c.heap), c.Len())
	}
	var sum int64
	for i, en := range c.heap {
		if en.index != i {
			t.Fatalf("heap slot %d holds an entry indexed %d", i, en.index)
		}
		if c.entries[en.key] != en {
			t.Fatalf("heap entry %v is not the map's", en.key)
		}
		if i > 0 && c.heap.Less(i, (i-1)/2) {
			t.Fatalf("heap order broken at slot %d", i)
		}
		sum += en.cost
	}
	if sum != c.used {
		t.Fatalf("entries cost %d, cache counts %d", sum, c.used)
	}
}

// TestPolicyMatchesReference drives seeded random sequences of misses,
// hits, oversize results and sweeps through the cache and the brute-force
// model, and after every step requires the same residents with the same
// priorities and uses, the same inflation, intact invariants, and every
// entry evicted by that step ranked at or below every entry kept.
func TestPolicyMatchesReference(t *testing.T) {
	durations := []time.Duration{0, 500 * time.Nanosecond, 50 * time.Microsecond,
		200 * time.Microsecond, 3 * time.Millisecond, 39 * time.Millisecond}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 42))
			const maxBytes = 8 << 10
			c, clk := newTimedCache(maxBytes)
			ref := &refCache{maxBytes: maxBytes}
			version := uint64(1)
			evicted := 0
			var dead func(Key) bool // the predicate of the latest sweep
			c.SetStale(func() func(Key) bool {
				salt := rng.IntN(4)
				dead = func(k Key) bool { return (len(k.Params)+int(k.Params[0])+salt)%4 == 0 }
				return dead
			})
			for step := range 3000 {
				before := make(map[Key]entry, len(c.entries))
				for k, en := range c.entries {
					before[k] = *en
				}
				var k Key
				switch r := rng.IntN(100); {
				case r < 4: // a sweep at a newer version; the predicate decides
					version++
					dead = nil
					sweep(c, version)
					if dead != nil { // nil: the cache was empty, nothing to sweep
						ref.sweep(dead)
					}
				case r < 10: // a result larger than the whole budget
					k = Key{Kind: "big", Params: fmt.Sprint(step)}
					if out := do(t, c, clk, k, maxBytes, time.Millisecond); out != Miss {
						t.Fatalf("step %d: oversize outcome %v", step, out)
					}
				default: // a lookup over a small key space: a hit or a miss
					k = Key{Kind: "q", Params: fmt.Sprint(rng.IntN(40))}
					n := rng.IntN(3000)
					d := durations[rng.IntN(len(durations))]
					e := ref.find(k)
					out := do(t, c, clk, k, n, d)
					switch {
					case e != nil && out != Hit:
						t.Fatalf("step %d: resident %v answered %v", step, k, out)
					case e != nil:
						ref.hit(e)
					case out != Miss:
						t.Fatalf("step %d: absent %v answered %v", step, k, out)
					default:
						ref.insert(k, bodyCost(n), max(d.Seconds(), minComputeSeconds))
					}
				}
				checkInvariants(t, c)
				if c.inflation != ref.inflation || c.used != ref.used || len(c.entries) != len(ref.entries) {
					t.Fatalf("step %d: cache (inflation %g, used %d, %d entries), model (%g, %d, %d)",
						step, c.inflation, c.used, len(c.entries), ref.inflation, ref.used, len(ref.entries))
				}
				for _, e := range ref.entries {
					en, ok := c.entries[e.key]
					if !ok || en.prio != e.prio || en.freq != e.freq || en.touch != e.touch {
						t.Fatalf("step %d: model entry %+v, cache %+v (resident %v)", step, *e, en, ok)
					}
				}
				if k.Kind == "" {
					continue // a sweep retires by staleness, not priority
				}
				for vk, v := range before {
					if _, ok := c.entries[vk]; ok {
						continue
					}
					evicted++
					for _, s := range c.heap {
						if s.prio < v.prio || s.prio == v.prio && s.touch < v.touch {
							t.Fatalf("step %d: evicted %v (priority %g) while %v (priority %g) stayed",
								step, vk, v.prio, s.key, s.prio)
						}
					}
				}
			}
			if evicted < 500 {
				t.Fatalf("only %d evictions in the sequence; the budget never bound", evicted)
			}
		})
	}
}
