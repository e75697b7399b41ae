package parallel

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f with GOMAXPROCS set to n, the width Ordered takes.
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestOrderedConsumesInIndexOrder: whatever order the producers finish in,
// consume sees every index once, in order, and never more than the width
// of indexes are in flight.
func TestOrderedConsumesInIndexOrder(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			const n = 200
			var inFlight, peak atomic.Int64
			var got []int
			err := Ordered(context.Background(), n,
				func(_ context.Context, i int) (int, error) {
					cur := inFlight.Add(1)
					for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
					}
					time.Sleep(time.Duration(rand.Intn(50)) * time.Microsecond)
					return i * i, nil
				},
				func(i, v int) error {
					inFlight.Add(-1)
					if v != i*i {
						t.Errorf("index %d got %d", i, v)
					}
					got = append(got, i)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("procs %d: consumed %d of %d", procs, len(got), n)
			}
			for i, g := range got {
				if g != i {
					t.Fatalf("procs %d: consumed %d at position %d", procs, g, i)
				}
			}
			if p := peak.Load(); p > int64(procs) {
				t.Fatalf("procs %d: %d indexes in flight", procs, p)
			}
		})
	}
}

// TestOrderedStopsAndDrains: a produce error, a consume error and a
// cancelled context each end the run with that error, consume sees no
// index past the failing one, and no producer goroutine outlives the call.
func TestOrderedStopsAndDrains(t *testing.T) {
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			for _, tc := range []struct {
				name      string
				failAt    int
				inConsume bool
				cancel    bool
			}{
				{"produce", 7, false, false},
				{"consume", 7, true, false},
				{"cancel", 7, false, true},
			} {
				before := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				last := -1
				err := Ordered(ctx, 1000,
					func(ctx context.Context, i int) (int, error) {
						if !tc.inConsume && !tc.cancel && i == tc.failAt {
							return 0, boom
						}
						// A producer that blocks until cancelled, as one
						// waiting on a slow read does.
						if i > tc.failAt+procs {
							<-ctx.Done()
							return 0, ctx.Err()
						}
						return i, nil
					},
					func(i, _ int) error {
						last = i
						if tc.cancel && i == tc.failAt {
							cancel()
						}
						if tc.inConsume && i == tc.failAt {
							return boom
						}
						return nil
					})
				cancel()
				want := boom
				if tc.cancel {
					want = context.Canceled
				}
				if !errors.Is(err, want) {
					t.Fatalf("procs %d %s: err %v, want %v", procs, tc.name, err, want)
				}
				wantLast := tc.failAt
				if !tc.inConsume && !tc.cancel {
					wantLast = tc.failAt - 1
				}
				if last != wantLast {
					t.Fatalf("procs %d %s: last consumed %d, want %d", procs, tc.name, last, wantLast)
				}
				// A producer's wg.Done runs before its goroutine exits:
				// give the exits a moment before counting.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Fatalf("procs %d %s: %d goroutines after the call, %d before", procs, tc.name, n, before)
				}
			}
		})
	}
}
