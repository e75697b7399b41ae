// Package engine implements the parallel query execution engine of Section
// IV: read-only scan kernels over the columnar store with per-worker partial
// aggregates merged at the end, the goroutine analogue of the paper's
// OpenMP-parallel aggregated queries. The worker count is explicit so the
// strong-scaling experiment (Figure 12) can sweep it.
package engine

import (
	"container/heap"
	"context"
	"sort"

	"gdeltmine/internal/parallel"
	"gdeltmine/internal/store"
)

// Engine executes queries against one immutable store, optionally
// restricted to a capture-interval window.
//
// Derivation semantics: every With* mutator (WithWorkers, WithContext,
// WithKind, WithInterval) copies the receiver by value and returns the
// modified copy; the receiver itself is never mutated, and no two views
// share mutable state. A base engine can therefore be derived from freely
// and concurrently — the property that lets one query descriptor be
// executed against many per-request views while cached results stay
// attributable to the shared immutable store underneath.
type Engine struct {
	db      *store.DB
	workers int
	ctx     context.Context
	// kind labels the engine's scan metrics with the query being served.
	kind string
	// worker binds kernels to the pool worker executing this view (shard
	// affinity); see WithWorker.
	worker *parallel.Worker
	// Mention-row window [rowLo, rowHi); rowHi == 0 means the full table.
	rowLo, rowHi int64
}

// New returns an engine over db using the default worker count.
func New(db *store.DB) *Engine { return &Engine{db: db} }

// WithWorkers returns a copy of the engine pinned to a worker count;
// n <= 0 restores the default.
func (e *Engine) WithWorkers(n int) *Engine {
	cp := *e
	cp.workers = n
	return &cp
}

// WithContext returns a copy of the engine whose scans observe ctx: workers
// stop claiming work once ctx is cancelled, bounding the latency of an
// abandoned query (e.g. an HTTP client that hung up) to one scan grain. A
// cancelled scan returns a partial aggregate — callers that surface results
// must check ctx.Err() afterwards.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	cp := *e
	cp.ctx = ctx
	return &cp
}

// WithKind returns a copy of the engine whose scan metrics are labelled
// with the given query kind (e.g. the endpoint or -query name). An empty
// kind restores the default "adhoc" label.
func (e *Engine) WithKind(kind string) *Engine {
	cp := *e
	cp.kind = kind
	return &cp
}

// Kind returns the metric label of this engine view.
func (e *Engine) Kind() string {
	if e.kind == "" {
		return "adhoc"
	}
	return e.kind
}

// WithWorker returns a copy of the engine bound to the pool worker whose
// goroutine will execute the view's kernels — the handle a parallel.FanOut
// shard job receives. Kernels then advertise their grains on that worker's
// own deque, so the worker that started a shard keeps draining it while
// idle peers steal. The binding is goroutine-local by contract: bind only
// the worker currently executing the caller, and never share the bound view
// across goroutines.
func (e *Engine) WithWorker(w *parallel.Worker) *Engine {
	cp := *e
	cp.worker = w
	return &cp
}

// WithInterval returns a copy of the engine whose mention scans cover only
// articles captured in intervals [fromIv, toIv). The restriction maps to a
// contiguous row range because the mention table is interval-sorted, so
// windowed queries touch no memory outside the window. Event-table scans
// and postings-based queries are unaffected.
func (e *Engine) WithInterval(fromIv, toIv int32) *Engine {
	cp := *e
	cp.rowLo, cp.rowHi = e.db.MentionRowRange(fromIv, toIv)
	if cp.rowHi == 0 && cp.rowLo == 0 {
		cp.rowHi = -1 // explicit empty window, distinct from "unset"
	}
	return &cp
}

// WithRowWindow returns a copy of the engine whose mention scans cover the
// intersection of the current window with rows [lo, hi). The qlang pushdown
// planner narrows the scan this way after resolving range clauses (interval
// and quarter comparisons) to a contiguous row span by binary search.
func (e *Engine) WithRowWindow(lo, hi int) *Engine {
	curLo, curHi := e.mentionWindow()
	if lo < curLo {
		lo = curLo
	}
	if hi > curHi {
		hi = curHi
	}
	cp := *e
	if lo >= hi {
		cp.rowLo, cp.rowHi = 0, -1 // explicit empty window
		return &cp
	}
	cp.rowLo, cp.rowHi = int64(lo), int64(hi)
	return &cp
}

// mentionWindow returns the effective mention-row range of this engine.
func (e *Engine) mentionWindow() (lo, hi int) {
	if e.rowHi == 0 && e.rowLo == 0 {
		return 0, e.db.Mentions.Len()
	}
	if e.rowHi < 0 {
		return 0, 0
	}
	return int(e.rowLo), int(e.rowHi)
}

// WindowSize returns the number of mention rows visible to this engine.
func (e *Engine) WindowSize() int {
	lo, hi := e.mentionWindow()
	return hi - lo
}

// Window returns the effective half-open mention-row range [lo, hi) this
// engine view scans. Because the mention table is interval-sorted and
// immutable at a given store version, the pair canonically identifies the
// time window — result caches use it as the window component of their key.
func (e *Engine) Window() (lo, hi int) { return e.mentionWindow() }

// Context returns the cancellation context of this engine view, or
// context.Background() when none was attached.
func (e *Engine) Context() context.Context {
	if e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}

// DB returns the underlying store.
func (e *Engine) DB() *store.DB { return e.db }

// Workers returns the effective worker count.
func (e *Engine) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return parallel.DefaultWorkers()
}

// ScanOptions returns the parallel options scan kernels should run under:
// the engine's worker count plus its cancellation context. Query packages
// building their own parallel loops use this instead of raw Options so
// request cancellation reaches every kernel.
func (e *Engine) ScanOptions() parallel.Options {
	return parallel.Options{Workers: e.workers, Context: e.ctx, Worker: e.worker}
}

func (e *Engine) opt() parallel.Options { return e.ScanOptions() }

// TopK returns the indexes of the k largest values (ties broken toward the
// lower index), in descending value order. It runs a single pass with a
// size-k min-heap, the selection used for "ten most productive websites"
// and "ten most reported events".
func TopK(n, k int, value func(i int) int64) []int {
	if k <= 0 || n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	h := &topHeap{value: value}
	for i := 0; i < n; i++ {
		if h.Len() < k {
			heap.Push(h, i)
			continue
		}
		if less(h, i, h.items[0]) {
			continue
		}
		h.items[0] = i
		heap.Fix(h, 0)
	}
	out := h.items
	sort.Slice(out, func(a, b int) bool {
		va, vb := value(out[a]), value(out[b])
		if va != vb {
			return va > vb
		}
		return out[a] < out[b]
	})
	return out
}

// less reports whether candidate i ranks below heap element j (i.e. i
// should not displace j).
func less(h *topHeap, i, j int) bool {
	vi, vj := h.value(i), h.value(j)
	if vi != vj {
		return vi < vj
	}
	return i > j // prefer the lower index on ties
}

type topHeap struct {
	items []int
	value func(i int) int64
}

func (h *topHeap) Len() int { return len(h.items) }
func (h *topHeap) Less(a, b int) bool {
	va, vb := h.value(h.items[a]), h.value(h.items[b])
	if va != vb {
		return va < vb
	}
	return h.items[a] > h.items[b]
}
func (h *topHeap) Swap(a, b int)      { h.items[a], h.items[b] = h.items[b], h.items[a] }
func (h *topHeap) Push(x interface{}) { h.items = append(h.items, x.(int)) }
func (h *topHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
