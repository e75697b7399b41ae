package parallel

import (
	"context"
	"sync"
)

// Ordered runs produce for every index in [0, n) and hands each result to
// consume, on the calling goroutine, strictly in index order. At most
// DefaultWorkers() indexes are in flight — produced or being produced but
// not yet consumed — so memory stays bounded by that many results however
// far a fast producer could run ahead.
//
// Producers are plain goroutines behind that bound, not pool workers: a
// produce step blocks on file I/O, which would stall the work-stealing
// pool the query kernels share. With one worker
// the producer of i+1 starts only once i has been consumed.
//
// Because consume sees results in index order and is the only code that
// touches the caller's state, the outcome cannot depend on the width: it
// is the serial loop's. Ordered stops at the first error — a produce
// error, surfaced when its index comes up for consumption, a consume
// error, or ctx's error checked before each index — cancels the context
// the in-flight produce calls hold, waits for every one of them to return
// and returns that error.
func Ordered[T any](ctx context.Context, n int,
	produce func(ctx context.Context, i int) (T, error),
	consume func(i int, v T) error) error {
	width := min(DefaultWorkers(), n)
	type result struct {
		v   T
		err error
	}
	// On return, cancel the in-flight producers first, then wait for them.
	var wg sync.WaitGroup
	defer wg.Wait()
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	// Index i lands in slot i%width. The producer of i+width starts only
	// once i has been received, so a slot never holds two results and no
	// send blocks: an abandoned producer still finishes and exits.
	slots := make([]chan result, width)
	for k := range slots {
		slots[k] = make(chan result, 1)
	}
	start := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := produce(inner, i)
			slots[i%width] <- result{v, err}
		}()
	}
	for i := 0; i < width; i++ {
		start(i)
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := <-slots[i%width]
		if r.err != nil {
			return r.err
		}
		if err := consume(i, r.v); err != nil {
			return err
		}
		if next := i + width; next < n {
			start(next)
		}
	}
	return nil
}
