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
//   - An LRU bounded by an approximate memory budget with per-entry cost
//     accounting (see Approx in size.go), not by entry count — a country
//     matrix and a five-number stats summary should not cost the same.
//   - Snapshot-version invalidation: the first lookup that carries a newer
//     store version sweeps out every entry of older versions.
//
// Cached values are shared across goroutines by reference; callers must
// treat them as immutable (the query layer returns freshly built,
// read-only result structs, and the HTTP layer only encodes them).
package qcache

import (
	"container/list"
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
	// Scope distinguishes results computed over a restricted shard subset
	// (degraded serving behind the routing tier) from full-coverage
	// results. Empty means full coverage. Because Scope is part of the key,
	// a partial result can never be served for — or overwrite — a
	// full-coverage request, and vice versa.
	Scope string
}

// String renders the key layout documented in DESIGN.md §8 (§11 for the
// coverage scope).
func (k Key) String() string {
	if k.Scope != "" {
		return fmt.Sprintf("%s?%s@%s#v%d!%s", k.Kind, k.Params, k.Window, k.Version, k.Scope)
	}
	return fmt.Sprintf("%s?%s@%s#v%d", k.Kind, k.Params, k.Window, k.Version)
}

// overheadBytes approximates the bookkeeping cost of one entry beyond its
// result value: key strings, map bucket, list element, entry struct.
const overheadBytes = 256

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

// entry is one cached result on the LRU list.
type entry struct {
	key  Key
	val  any
	cost int64
}

// flight is one in-progress computation that waiters can join.
type flight struct {
	done chan struct{} // closed when val/err are set
	val  any
	err  error
}

// Cache is a memory-budgeted, single-flight, snapshot-versioned result
// cache. All methods are safe for concurrent use.
type Cache struct {
	maxBytes int64

	mu          sync.Mutex
	used        int64
	ll          *list.List // front = most recent; values are *entry
	entries     map[Key]*list.Element
	inflight    map[Key]*flight
	lastVersion uint64
	stale       func(Key) bool

	// Observability: process-wide counters (shared across Cache instances
	// in one process, like the serve metrics) plus hit/miss latency split.
	hits, misses, coalesced  *obs.Counter
	evictions, invalidations *obs.Counter
	bytesGauge, entriesGauge *obs.Gauge
	hitSeconds, missSeconds  *obs.Histogram
}

// DefaultMaxBytes is the serve default for the -cache-bytes budget.
const DefaultMaxBytes = 256 << 20 // 256 MB

// New returns a cache bounded by approximately maxBytes of result memory.
// maxBytes <= 0 selects DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element),
		inflight: make(map[Key]*flight),
		hits: obs.Default.Counter("qcache_hits_total",
			"query results served from the cache"),
		misses: obs.Default.Counter("qcache_misses_total",
			"query executions run because no cached result existed"),
		coalesced: obs.Default.Counter("qcache_coalesced_total",
			"requests that joined an identical in-flight execution instead of scanning"),
		evictions: obs.Default.Counter("qcache_evictions_total",
			"entries evicted by the memory budget"),
		invalidations: obs.Default.Counter("qcache_invalidated_total",
			"entries retired by a store snapshot-version bump"),
		bytesGauge: obs.Default.Gauge("qcache_bytes",
			"approximate memory held by cached results"),
		entriesGauge: obs.Default.Gauge("qcache_entries",
			"cached results currently resident"),
		hitSeconds: obs.Default.Histogram("qcache_hit_seconds",
			"latency of cache-hit lookups", obs.LatencyBuckets),
		missSeconds: obs.Default.Histogram("qcache_miss_seconds",
			"latency of cache-miss executions (leader's scan included)", obs.LatencyBuckets),
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
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
	for {
		start := time.Now()
		c.mu.Lock()
		c.sweepLocked(key.Version)
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			val := el.Value.(*entry).val
			c.mu.Unlock()
			c.hits.Inc()
			c.hitSeconds.ObserveSince(start)
			return val, Hit, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			c.coalesced.Inc()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
			if f.err == nil {
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
		c.mu.Unlock()
		c.misses.Inc()

		f.val, f.err = compute()
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
		c.missSeconds.ObserveSince(start)
		return f.val, Miss, f.err
	}
}

// Get returns the cached value for key without computing anything.
func (c *Cache) Get(key Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// insertLocked adds a computed result and evicts from the LRU tail until
// the budget holds. A result whose cost alone exceeds the budget is not
// cached at all — better one big recomputation than an empty cache.
func (c *Cache) insertLocked(key Key, val any) {
	if _, ok := c.entries[key]; ok {
		return // a racing leader on the same key after a sweep; keep first
	}
	cost := Approx(val) + overheadBytes
	if cost > c.maxBytes {
		return
	}
	el := c.ll.PushFront(&entry{key: key, val: val, cost: cost})
	c.entries[key] = el
	c.used += cost
	for c.used > c.maxBytes {
		back := c.ll.Back()
		if back == nil || back == el {
			break
		}
		c.removeLocked(back)
		c.evictions.Inc()
	}
	c.publishLocked()
}

// SetStale installs a store-specific staleness predicate consulted during
// version sweeps instead of the default "entry version < sweep version"
// rule. Sharded stores use it to retire exactly the entries whose window
// overlaps a bumped shard (shard.DB.StaleKey) while keeping results for
// cold shards warm across tail appends. fn must be safe for concurrent
// calls and fast — it runs under the cache lock.
func (c *Cache) SetStale(fn func(Key) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stale = fn
}

// sweepLocked retires every stale entry once a lookup proves the store has
// moved on. Entries die in one O(resident) pass on the first post-append
// lookup, not via TTL decay. Staleness defaults to "computed before
// version"; SetStale refines it.
func (c *Cache) sweepLocked(version uint64) {
	if version <= c.lastVersion {
		return
	}
	c.lastVersion = version
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		key := el.Value.(*entry).key
		dead := key.Version < version
		if c.stale != nil {
			dead = c.stale(key)
		}
		if dead {
			c.removeLocked(el)
			c.invalidations.Inc()
		}
	}
	c.publishLocked()
}

func (c *Cache) removeLocked(el *list.Element) {
	en := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, en.key)
	c.used -= en.cost
}

func (c *Cache) publishLocked() {
	c.bytesGauge.Set(float64(c.used))
	c.entriesGauge.Set(float64(c.ll.Len()))
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
