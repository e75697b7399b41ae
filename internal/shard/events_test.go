package shard

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"gdeltmine/internal/store"
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

// TestWalkEventsOrder checks walkEvents against a sort of every part row by
// (id, part): random part tables of up to 40 parts, each a random strictly
// ascending id subset, some of them empty. Every run must hold one id,
// runs must ascend by id, and the rows read in run order must be the sort.
func TestWalkEventsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		parts := make([]*store.DB, 1+rng.Intn(40))
		var want []eventRow
		for i := range parts {
			parts[i] = &store.DB{}
			for id := int64(0); id < 300; id++ {
				if rng.Intn(1+trial%9) == 0 {
					want = append(want, eventRow{id, int32(i), int32(parts[i].Events.Len())})
					parts[i].Events.ID = append(parts[i].Events.ID, id)
				}
			}
		}
		slices.SortFunc(want, func(a, b eventRow) int {
			return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.part, b.part))
		})
		var got []eventRow
		last := int64(-1)
		walkEvents(parts, func(run []eventRow) error {
			for _, e := range run {
				if e.id != run[0].id || e.id <= last {
					t.Fatalf("trial %d: run %v after id %d is not one new id", trial, run, last)
				}
			}
			last = run[0].id
			got = append(got, run...)
			return nil
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d parts): walk yields %d rows, not the (id, part) order of %d", trial, len(parts), len(got), len(want))
		}
	}
}
