package shard

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPartCursorFind checks DB.cursors and partCursor against a binary
// search of the remap: random ascending remaps, each walked by a batch of
// strictly ascending rows of random density, so the cursor steps, gallops
// and runs to the stop past the remap's end, and batches that miss the
// remap's range get no cursor.
func TestPartCursorFind(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(200)
		remap := newRemap(n)[:0]
		for g := int32(0); len(remap) < n; g++ {
			if rng.Intn(1+trial%7) == 0 {
				remap = append(remap, g)
			}
		}
		top := int32(50)
		if len(remap) > 0 {
			top += remap[len(remap)-1]
		}
		lo := int32(rng.Intn(int(top)))
		hi := lo + int32(rng.Intn(int(top)))
		cs := (&DB{l2gEv: [][]int32{remap}}).cursors(lo, hi)
		gap := 1 + 8*(trial%4)
		for g := lo; g <= hi; g += 1 + int32(rng.Intn(gap)) {
			want := int32(-1)
			if r, ok := slices.BinarySearch(remap, g); ok {
				want = int32(r)
			}
			got := int32(-1) // a part that gets no cursor holds no row of the batch
			if len(cs) > 0 {
				got = cs[0].find(g)
			}
			if got != want {
				t.Fatalf("trial %d: remap %v, batch [%d, %d]: find(%d) = %d, want %d",
					trial, remap, lo, hi, g, got, want)
			}
		}
	}
}
