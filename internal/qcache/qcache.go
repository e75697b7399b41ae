// Package qcache is the snapshot-keyed query result cache of the serve
// path. The store is immutable between stream appends, so any query result
// is valid exactly as long as the store's snapshot version is unchanged —
// the cache therefore keys every entry on (kind, canonical params, window,
// version) and needs no TTLs: a version bump simply makes every old key
// unreachable, and a lazy sweep reclaims the memory.
//
// Three mechanisms compose:
//
//   - Single-flight execution (the groupcache/singleflight pattern): N
//     concurrent requests for the same key run ONE underlying scan; the
//     leader computes, waiters block on its completion and share the same
//     result value. Errors and cancelled partial computations are never
//     cached; a waiter whose leader was cancelled retries with itself as
//     the new leader as long as its own context is live.
//   - A memory budget with per-entry byte accounting (see Approx in
//     size.go), not an entry count — a country matrix and a five-number
//     stats summary should not cost the same — enforced by
//     GreedyDual-Size-Frequency eviction (Cherkasova, HP Labs HPL-98-69):
//     the entry evicted is the one whose recompute time per byte, times its
//     hits, is least, aged by an inflation value so that recency still
//     counts. A 30 ms answer outlives a stream of 0.2 ms ones of its size.
//   - Snapshot-version invalidation: the first lookup that carries a newer
//     store version sweeps out every entry of older versions.
//
// A cache in front of answers that go stale by the clock instead — the
// router's, holding replica answers for as long as their max-age — uses
// DoFresh: each entry expires a computed time after its lookup, and the
// first lookup past that retires it.
//
// Cached values are shared across goroutines by reference; callers must
// treat them as immutable (the query layer returns freshly built,
// read-only result structs, and the HTTP layer only encodes them).
package qcache

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gdeltmine/internal/obs"
)

// Key canonically identifies one cacheable query execution.
type Key struct {
	// Kind is the registered query kind.
	Kind string
	// Params is the canonical parameter encoding (defaults resolved,
	// spec-ordered) produced by the query registry.
	Params string
	// Window is the effective mention-row range "lo:hi" of the engine view.
	Window string
	// Version is the store snapshot version the result was computed at.
	Version uint64
}

// String renders the key layout documented in DESIGN.md §8.
func (k Key) String() string {
	return fmt.Sprintf("%s?%s@%s#v%d", k.Kind, k.Params, k.Window, k.Version)
}

// overheadBytes approximates the bookkeeping cost of one entry beyond its
// result value: key strings, map bucket, heap slot, entry struct.
const overheadBytes = 256

// minComputeSeconds floors an entry's recorded compute time: below it a
// recompute costs no more than a hit, and a zero would make every such
// entry's priority the bare inflation value.
const minComputeSeconds = 1e-6

// forever is the freshness Do gives every result: it caches it, and with
// no clock reading to count from the entry never expires.
const forever = time.Duration(1<<63 - 1)

// Outcome classifies how a Do call was satisfied.
type Outcome int

const (
	// Bypass: no cache configured; the computation ran directly.
	Bypass Outcome = iota
	// Miss: this call ran the underlying computation as the flight leader.
	Miss
	// Hit: the result was served from the cache with no computation.
	Hit
	// Coalesced: the call joined an in-flight computation started by a
	// concurrent identical request and shares its result.
	Coalesced
)

// String returns the lowercase name, used for X-Cache headers and logs.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "bypass"
	}
}

// entry is one resident result and its place in the eviction heap. Its
// priority is inflation + freq × secs / cost, fixed when the entry is
// inserted or hit: the inflation value then current, plus the compute time
// a resident copy saves per byte it holds, once per use.
type entry struct {
	key   Key
	val   any
	cost  int64   // bytes charged to the budget: Approx(val) + overheadBytes
	secs  float64 // wall time of the computation that produced val
	freq  int64   // uses while resident: the insert plus each hit
	prio  float64
	touch uint64 // insert or last hit, in cache order: ties evict oldest first
	index int    // position in the heap
	// expires is when a DoFresh entry goes stale; zero for Do's entries,
	// which live until evicted or swept.
	expires time.Time
}

// evictionHeap orders resident entries by priority, least first, ties by
// oldest touch. It implements heap.Interface.
type evictionHeap []*entry

func (h evictionHeap) Len() int { return len(h) }

func (h evictionHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].touch < h[j].touch
}

func (h evictionHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *evictionHeap) Push(x any) {
	en := x.(*entry)
	en.index = len(*h)
	*h = append(*h, en)
}

func (h *evictionHeap) Pop() any {
	old := *h
	en := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return en
}

// flight is one in-progress computation that waiters can join.
type flight struct {
	done chan struct{} // closed when val/err/secs are set
	val  any
	err  error
	secs float64 // the computation's wall time, as the entry records it
}

// Cache is a memory-budgeted, single-flight, snapshot-versioned result
// cache. All methods are safe for concurrent use.
type Cache struct {
	maxBytes int64

	// now reads the clock that times computations; package tests replace
	// it to pin compute times.
	now func() time.Time

	mu          sync.Mutex
	used        int64
	heap        evictionHeap
	entries     map[Key]*entry
	inflight    map[Key]*flight
	inflation   float64 // priority of the last entry evicted
	touches     uint64
	lastVersion uint64
	stale       func() func(Key) bool
	// This cache's own tally for Stats; the obs counters below are shared.
	nHits, nMisses, nCoalesced int64

	// Observability: process-wide counters (shared across Cache instances
	// in one process, like the serve metrics) plus hit/miss latency split.
	hits, misses, coalesced  *obs.Counter
	evictions, invalidations *obs.Counter
	savedSeconds             *obs.FloatCounter
	bytesGauge, entriesGauge *obs.Gauge
	hitSeconds, missSeconds  *obs.Histogram
}

// DefaultMaxBytes is the serve default for the -cache-bytes budget.
const DefaultMaxBytes = 256 << 20 // 256 MB

// New returns a cache bounded by approximately maxBytes of result memory,
// reporting on obs.Default as qcache_*. maxBytes <= 0 selects
// DefaultMaxBytes.
func New(maxBytes int64) *Cache { return NewNamed("qcache", maxBytes) }

// NewNamed is New with its metrics named prefix_* instead (prefix_hits_total,
// prefix_bytes, ...), so two caches of one process — a router's in front of
// its replicas' — report apart.
func NewNamed(prefix string, maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		now:      time.Now,
		entries:  make(map[Key]*entry),
		inflight: make(map[Key]*flight),
		hits: obs.Default.Counter(prefix+"_hits_total",
			"results served from the cache"),
		misses: obs.Default.Counter(prefix+"_misses_total",
			"computations run because no cached result existed"),
		coalesced: obs.Default.Counter(prefix+"_coalesced_total",
			"requests that joined an identical in-flight computation instead of running their own"),
		evictions: obs.Default.Counter(prefix+"_evictions_total",
			"entries evicted by the memory budget"),
		invalidations: obs.Default.Counter(prefix+"_invalidated_total",
			"entries retired as stale: by a store snapshot-version bump, or past their freshness"),
		savedSeconds: obs.Default.FloatCounter(prefix+"_saved_seconds_total",
			"compute seconds that hits and coalesced joins did not spend, by the entry's recorded compute time"),
		bytesGauge: obs.Default.Gauge(prefix+"_bytes",
			"approximate memory held by cached results"),
		entriesGauge: obs.Default.Gauge(prefix+"_entries",
			"cached results currently resident"),
		hitSeconds: obs.Default.Histogram(prefix+"_hit_seconds",
			"latency of cache-hit lookups", obs.LatencyBuckets),
		missSeconds: obs.Default.Histogram(prefix+"_miss_seconds",
			"latency of cache-miss computations (the leader's included)", obs.LatencyBuckets),
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// UsedBytes returns the approximate memory held by resident entries.
func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Do returns the cached result for key, joining an identical in-flight
// computation when one exists, or runs compute as the flight leader. The
// returned Outcome says which of the three happened. Errors from compute
// are returned to the leader and every waiter and are never cached. ctx
// bounds only the caller's wait: a waiter whose own context expires
// returns ctx.Err() while the leader's computation keeps running.
func (c *Cache) Do(ctx context.Context, key Key, compute func() (any, error)) (any, Outcome, error) {
	return c.do(ctx, key, time.Time{}, func() (any, time.Duration, error) {
		val, err := compute()
		return val, forever, err
	})
}

// DoFresh is Do for results that go stale by the clock rather than by
// store version: compute also says how long its result stays fresh, and
// the entry expires that long after now, the caller's clock reading at
// the lookup. A lookup at or after an entry's expiry retires it and
// computes afresh. A result fresh for no time (ttl <= 0) is shared with
// the callers waiting on its flight but not cached.
func (c *Cache) DoFresh(ctx context.Context, key Key, now time.Time, compute func() (any, time.Duration, error)) (any, Outcome, error) {
	return c.do(ctx, key, now, compute)
}

// do serves Do (now zero: entries never expire) and DoFresh.
func (c *Cache) do(ctx context.Context, key Key, now time.Time, compute func() (any, time.Duration, error)) (any, Outcome, error) {
	for {
		start := time.Now()
		c.mu.Lock()
		c.sweepLocked(key.Version)
		if en, ok := c.entries[key]; ok {
			if en.expires.IsZero() || now.Before(en.expires) {
				c.hitLocked(en)
				c.nHits++
				val, secs := en.val, en.secs
				c.mu.Unlock()
				c.hits.Inc()
				c.savedSeconds.Add(secs)
				c.hitSeconds.ObserveSince(start)
				return val, Hit, nil
			}
			c.removeLocked(en)
			c.invalidations.Inc()
			c.publishLocked()
		}
		if f, ok := c.inflight[key]; ok {
			c.nCoalesced++
			c.mu.Unlock()
			c.coalesced.Inc()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
			if f.err == nil {
				c.savedSeconds.Add(f.secs)
				c.hitSeconds.ObserveSince(start)
				return f.val, Coalesced, nil
			}
			// The leader failed. If it failed because *its* request was
			// cancelled, the result is nobody's fault but the leader's —
			// retry with this caller as the new leader while its own
			// context is still live. Genuine query errors are shared.
			if isCancellation(f.err) && ctx.Err() == nil {
				continue
			}
			return nil, Coalesced, f.err
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.nMisses++
		c.mu.Unlock()
		c.misses.Inc()

		t0 := c.now()
		var ttl time.Duration
		f.val, ttl, f.err = compute()
		f.secs = max(c.now().Sub(t0).Seconds(), minComputeSeconds)
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil && ttl > 0 {
			var expires time.Time
			if !now.IsZero() {
				expires = now.Add(ttl)
			}
			c.insertLocked(key, f.val, f.secs, expires)
		}
		c.mu.Unlock()
		close(f.done)
		c.missSeconds.ObserveSince(start)
		return f.val, Miss, f.err
	}
}

// Stats is a cache's own tally: what it holds and how its lookups went
// since it was built.
type Stats struct {
	Entries                 int
	Bytes                   int64
	Hits, Misses, Coalesced int64
}

// HitRatio is the share of lookups that ran no computation of their own:
// hits and coalesced joins over all lookups, 0 before the first.
func (s Stats) HitRatio() float64 {
	n := s.Hits + s.Coalesced + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(n)
}

// Stats returns the cache's tally.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{len(c.entries), c.used, c.nHits, c.nMisses, c.nCoalesced}
}

// Get returns the cached value for key without computing anything. It is
// a pure probe: it changes no entry's priority, so it cannot change which
// entry is evicted next.
func (c *Cache) Get(key Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return en.val, true
}

// hitLocked re-prioritises a resident entry for one more use.
func (c *Cache) hitLocked(en *entry) {
	en.freq++
	c.touches++
	en.touch = c.touches
	en.prio = c.priority(en)
	heap.Fix(&c.heap, en.index)
}

// priority is the GreedyDual-Size-Frequency value of en at the current
// inflation: what keeping it saves, in compute seconds per byte held,
// times its uses.
func (c *Cache) priority(en *entry) float64 {
	return c.inflation + float64(en.freq)*en.secs/float64(en.cost)
}

// insertLocked adds a result that took secs to compute, then evicts the
// least-priority entry until the budget holds, raising the inflation to
// each victim's priority — which ages every entry not hit since, so an
// entry's past worth cannot pin it forever. The new entry competes like
// any other and may itself be the victim. A result whose cost alone
// exceeds the budget is not cached at all — better one big recomputation
// than an empty cache.
func (c *Cache) insertLocked(key Key, val any, secs float64, expires time.Time) {
	if _, ok := c.entries[key]; ok {
		return // a racing leader on the same key after a sweep; keep first
	}
	cost := Approx(val) + overheadBytes
	if cost > c.maxBytes {
		return
	}
	c.touches++
	en := &entry{key: key, val: val, cost: cost, secs: secs, freq: 1, touch: c.touches, expires: expires}
	en.prio = c.priority(en)
	heap.Push(&c.heap, en)
	c.entries[key] = en
	c.used += cost
	for c.used > c.maxBytes {
		victim := c.heap[0]
		c.inflation = victim.prio
		c.removeLocked(victim)
		c.evictions.Inc()
	}
	c.publishLocked()
}

// removeLocked drops a resident entry from the index, the heap and the
// budget.
func (c *Cache) removeLocked(en *entry) {
	heap.Remove(&c.heap, en.index)
	delete(c.entries, en.key)
	c.used -= en.cost
}

// SetStale installs a store-specific staleness rule consulted during
// version sweeps instead of the default "entry version < sweep version"
// rule. Each sweep calls newPredicate once and asks the predicate it
// returns about every resident entry, so a store resolves its current
// world once per sweep, not once per entry. Sharded stores use it to
// retire exactly the entries whose window overlaps a bumped shard
// (shard.DB.Staleness) while keeping results for cold shards warm across
// tail appends. Both functions must be safe for concurrent calls and fast
// — they run under the cache lock.
func (c *Cache) SetStale(newPredicate func() func(Key) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stale = newPredicate
}

// sweepLocked retires every stale entry once a lookup proves the store has
// moved on. Entries die in one O(resident) pass on the first post-append
// lookup, not via TTL decay, and the survivors are re-heapified in the
// same pass. Staleness defaults to "computed before version"; SetStale
// refines it.
func (c *Cache) sweepLocked(version uint64) {
	if version <= c.lastVersion {
		return
	}
	c.lastVersion = version
	if len(c.heap) == 0 {
		return
	}
	var stale func(Key) bool
	if c.stale != nil {
		stale = c.stale()
	}
	kept := c.heap[:0]
	for _, en := range c.heap {
		dead := en.key.Version < version
		if stale != nil {
			dead = stale(en.key)
		}
		if dead {
			delete(c.entries, en.key)
			c.used -= en.cost
			c.invalidations.Inc()
			continue
		}
		en.index = len(kept)
		kept = append(kept, en)
	}
	clear(c.heap[len(kept):])
	c.heap = kept
	heap.Init(&c.heap)
	c.publishLocked()
}

func (c *Cache) publishLocked() {
	c.bytesGauge.Set(float64(c.used))
	c.entriesGauge.Set(float64(len(c.entries)))
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
