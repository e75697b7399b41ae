package parallel

import "sync/atomic"

// cursor hands out chunks of an index space to dynamic-scheduling workers.
// It is padded to its own cache line so the hot Add does not false-share
// with neighbouring allocations.
type cursor struct {
	_ [64]byte
	v atomic.Int64
	_ [64]byte
}

func newCursor() *cursor { return &cursor{} }

// next claims the next chunk of at most grain indices below limit and
// returns it as [lo, hi). When the space is exhausted it returns lo >= hi.
func (c *cursor) next(grain, limit int) (lo, hi int) {
	lo = int(c.v.Add(int64(grain))) - grain
	if lo >= limit {
		return limit, limit
	}
	hi = lo + grain
	if hi > limit {
		hi = limit
	}
	return lo, hi
}
