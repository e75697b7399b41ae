package shard

import (
	"cmp"
	"fmt"
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

// TestGlobalEventsChunks drives the chunked global table through random
// inserts (clustered, scattered and past the end), metadata bumps and
// seals, checking after every step against a flat reference table: the
// chunk invariants, the rows read as one, the insert rows, search and
// span. Every version it passes through is held and must still read as it
// did when it was made, so no step writes a chunk it did not copy.
func TestGlobalEventsChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	row := func(id int64) (store.EventTable, int) {
		var t store.EventTable
		t.AppendRow(&store.EventTable{ID: []int64{id}, Interval: []int32{int32(id % 97)}, Country: []int32{int32(id % 7)},
			NumArticles: []int32{1}, FirstMention: []int32{int32(id % 89)}, SourceURL: []string{"u"}}, 0)
		return t, 0
	}
	flat := func(e *globalEvents) store.EventTable {
		var t store.EventTable
		for _, c := range e.chunks {
			t.AppendRows(c, 0, c.Len())
		}
		return t
	}
	flatCopy := func(src *store.EventTable) store.EventTable {
		var t store.EventTable
		t.AppendRows(src, 0, src.Len())
		return t
	}
	same := func(a, b *store.EventTable) bool {
		return slices.Equal(a.ID, b.ID) && slices.Equal(a.Interval, b.Interval) && slices.Equal(a.Country, b.Country) &&
			slices.Equal(a.NumArticles, b.NumArticles) && slices.Equal(a.FirstMention, b.FirstMention) &&
			slices.Equal(a.SourceURL, b.SourceURL)
	}
	// The first world: 3,000 of the even ids below 8,000, cut as New cuts it.
	var want store.EventTable
	for id := int64(0); want.Len() < 3000; id += 2 {
		if rng.Intn(4) > 0 {
			r, i := row(id)
			want.AppendRow(&r, i)
		}
	}
	first := flatCopy(&want) // the table shares its storage; want is written below
	e := cutEvents(&first)
	held := map[*globalEvents]store.EventTable{}
	used := map[int64]bool{}
	for _, id := range want.ID {
		used[id] = true
	}
	splits, opened := 0, 0
	for step := 0; step < 400; step++ {
		prev := e
		held[&prev] = flat(&prev)
		next := e
		switch op := rng.Intn(10); {
		case op < 6: // insert
			maxID := want.ID[want.Len()-1]
			// New ids: odd ones below the maximum, any above it.
			var lo, span int64
			switch rng.Intn(3) {
			case 0: // clustered: enough to split a chunk
				lo, span = rng.Int63n(maxID), 4000
			case 1: // scattered
				lo, span = 0, maxID+1
			default: // past the end
				lo, span = maxID+1, 400
			}
			var ids []int64
			for n, try := 1+rng.Intn(1+rng.Intn(1500)), 0; len(ids) < n && try < 4*n; try++ {
				id := lo + rng.Int63n(span)
				if !used[id] && (id&1 == 1 || id > maxID) {
					used[id] = true
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				continue
			}
			slices.Sort(ids)
			var te store.EventTable
			rows := make([]int32, len(ids))
			for j, id := range ids {
				r, i := row(id)
				te.AppendRow(&r, i)
				rows[j] = int32(j)
			}
			chunks := len(next.chunks)
			at := next.insert(&te, rows)
			if len(next.chunks) > chunks+1 || !e.open && next.open && len(next.chunks) > chunks {
				splits++
			}
			var merged store.EventTable
			prevRow := 0
			for j, id := range ids {
				p, _ := slices.BinarySearch(want.ID, id)
				if int(at[j]) != p {
					t.Fatalf("step %d: id %d inserted at old row %d, want %d", step, id, at[j], p)
				}
				merged.AppendRows(&want, prevRow, p)
				merged.AppendRow(&te, j)
				prevRow = p
			}
			merged.AppendRows(&want, prevRow, want.Len())
			want = merged
		case op < 9: // bump ascending rows
			b := next.bumps()
			for g := rng.Intn(50); g < want.Len(); g += 1 + rng.Intn(1+rng.Intn(3000)) {
				n := want.NumArticles[g] + int32(rng.Intn(2))
				want.NumArticles[g] = n
				b.set(int32(g), n, want.FirstMention[g], want.Interval[g])
			}
		default:
			next = next.seal()
			if next.open {
				t.Fatalf("step %d: a seal left the table open", step)
			}
		}
		if next.open {
			opened++
		}
		if err := checkChunks(&next); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := flat(&next); !same(&got, &want) {
			t.Fatalf("step %d: the table differs from the reference", step)
		}
		for probe := 0; probe < 20; probe++ {
			id := rng.Int63n(want.ID[want.Len()-1] + 2)
			g, ok := next.search(id)
			p, found := slices.BinarySearch(want.ID, id)
			if int(g) != p || ok != found {
				t.Fatalf("step %d: search(%d) = (%d, %v), want (%d, %v)", step, id, g, ok, p, found)
			}
			lo := rng.Intn(want.Len() + 1)
			hi := lo + rng.Intn(want.Len()+1-lo)
			g0 := lo
			next.span(lo, hi, func(c *store.EventTable, a, b, base int) {
				if base+a != g0 || a >= b || c.ID[a] != want.ID[g0] || c.ID[b-1] != want.ID[base+b-1] {
					t.Fatalf("step %d: span(%d, %d) handed rows [%d, %d) from %d at global row %d", step, lo, hi, a, b, base, g0)
				}
				g0 = base + b
			})
			if g0 != hi {
				t.Fatalf("step %d: span(%d, %d) stopped at %d", step, lo, hi, g0)
			}
		}
		e = next
	}
	for h, rows := range held {
		if got := flat(h); !same(&got, &rows) {
			t.Fatal("a held version of the table changed")
		}
	}
	t.Logf("%d rows in %d chunks; %d inserts split a chunk, %d versions open", want.Len(), len(e.chunks), splits, opened)
	if splits == 0 || opened == 0 || len(e.chunks) < 5 {
		t.Fatalf("schedule too tame: %d splits, %d open versions, %d chunks", splits, opened, len(e.chunks))
	}
}

// TestTopEventsTieBreak checks TopEvents against a stable sort of every
// row by article count, on a table of 5,000 events with four distinct
// counts — so nearly every cut falls inside a tie class spread over many
// chunks — cut as New cuts it and then spliced unevenly by inserts: among
// events that tie, the lower row ranks first, whatever chunk holds it.
func TestTopEventsTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	event := func(id int64) *store.EventTable {
		return &store.EventTable{ID: []int64{id}, Interval: []int32{0}, Country: []int32{-1},
			NumArticles: []int32{int32(rng.Intn(4))}, FirstMention: []int32{0}, SourceURL: []string{fmt.Sprint(id)}}
	}
	var tab store.EventTable
	for id := int64(0); id < 8000; id += 2 {
		tab.AppendRow(event(id), 0)
	}
	s := &DB{events: cutEvents(&tab)}
	for _, lo := range []int64{1, 2001, 4801, 7001, 7601} { // odd ids: new
		var add store.EventTable
		var rows []int32
		for id := lo; add.Len() < 200; id += 2 {
			add.AppendRow(event(id), 0)
			rows = append(rows, int32(len(rows)))
		}
		s.events.insert(&add, rows)
	}
	all := GlobalEvents(s)
	order := make([]int, all.Len())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(all.NumArticles[b], all.NumArticles[a]) })
	for _, k := range []int{0, 1, 7, 500, 1023, 2500, all.Len(), all.Len() + 5} {
		got := s.View().TopEvents(k)
		if len(got) != min(k, all.Len()) {
			t.Fatalf("k=%d: %d events", k, len(got))
		}
		for i, e := range got {
			r := order[i]
			if e.EventID != all.ID[r] || e.Mentions != int64(all.NumArticles[r]) || e.SourceURL != all.SourceURL[r] {
				t.Fatalf("k=%d: rank %d is event %d (%d articles), want event %d (%d articles)",
					k, i, e.EventID, e.Mentions, all.ID[r], all.NumArticles[r])
			}
		}
	}
}
