package parallel

import "sync"

// MapReduce runs a per-worker partial computation over [0, n) and merges the
// partials. newPartial allocates a worker-local accumulator, body folds a
// contiguous index range into it, and merge folds one partial into another.
// The final merged partial is returned. This is the canonical pattern for the
// paper's "parallel aggregated queries": each worker owns a private
// accumulator (histogram, matrix block, counter set) and the results are
// combined once at the end, avoiding shared-write contention. Runners are
// scheduled on the work-stealing pool; a runner that never claims a grain
// allocates nothing and is skipped at merge time, which leaves results
// bit-identical for the package's pure dst += src merges.
func MapReduce[A any](n int, opt Options, newPartial func() A, body func(acc A, lo, hi int) A, merge func(dst, src A) A) A {
	workers := opt.workers(max(n, 1))
	if n <= 0 || opt.cancelled() {
		return newPartial()
	}
	if workers == 1 {
		defer recordScan(n, nil)
		if opt.Context == nil {
			return body(newPartial(), 0, n)
		}
		acc := newPartial()
		grain := opt.grain(n, workers)
		for lo := 0; lo < n && !opt.cancelled(); lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			acc = body(acc, lo, hi)
		}
		return acc
	}
	grain := opt.grain(n, workers)
	cursor := newCursor()
	partials := make([]A, workers)
	touched := make([]bool, workers)
	perRunner := make([]int64, workers)
	p := opt.pool()
	s := p.newScope(workers, func(_ *Worker, r int) {
		var acc A
		have := false
		for !opt.cancelled() {
			lo, hi := cursor.next(grain, n)
			if lo >= hi {
				break
			}
			if !have {
				have = true
				acc = newPartial()
			}
			perRunner[r]++
			acc = body(acc, lo, hi)
		}
		if have {
			partials[r] = acc
			touched[r] = true
		}
	})
	p.advertise(s, opt.Worker, workers-1)
	s.join(opt.Worker)
	recordScan(n, perRunner)
	k := 0
	for i, t := range touched {
		if t {
			partials[k] = partials[i]
			k++
		}
	}
	if k == 0 {
		// Cancelled before any grain was claimed: return an empty
		// accumulator, as the serial path would.
		return newPartial()
	}
	return MergeTree(partials[:k], merge)
}

// MergeTree folds partials pairwise into partials[0] and returns it. With
// four or more partials it runs a pairwise merge tree — level k merges
// partials[i] and partials[i+2^k] concurrently for all even multiples i of
// 2^(k+1) — so a large accumulator (a per-worker contingency matrix, say)
// folds in O(log n) merge latency instead of a serial O(n) chain on one
// goroutine. MapReduce merges its worker partials through it, and
// internal/shard folds per-shard partial vectors and matrices through the
// same machinery. merge must be a pure dst += src fold; it may itself run
// parallel loops, since helper goroutines join their own scopes
// self-sufficiently and need no pool capacity to progress. An empty slice
// returns the zero value.
func MergeTree[A any](partials []A, merge func(dst, src A) A) A {
	n := len(partials)
	if n == 0 {
		var zero A
		return zero
	}
	if n < 4 {
		out := partials[0]
		for i := 1; i < n; i++ {
			out = merge(out, partials[i])
		}
		return out
	}
	for stride := 1; stride < n; stride *= 2 {
		var wg sync.WaitGroup
		for i := 2 * stride; i+stride < n; i += 2 * stride {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				partials[i] = merge(partials[i], partials[i+stride])
			}(i)
		}
		partials[0] = merge(partials[0], partials[stride])
		wg.Wait()
	}
	return partials[0]
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
