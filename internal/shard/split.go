package shard

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"gdeltmine/internal/store"
)

// Single wraps a loaded monolithic store as a K=1 world: db itself is the
// one part (no Split copy of its mention, GKG or index columns) and, being
// the tail, its dictionaries are the world's. It is how a server or test
// runs a monolith through the sharded execution path.
func Single(db *store.DB) (*DB, error) {
	return New([]*store.DB{db}, []int32{0, db.Meta.Intervals})
}

// Split re-slices a loaded monolithic store into k equal time-range shards
// (k is clamped to the interval count). Every part shares the monolith's
// dictionaries, so global ids — and therefore every id-order tie-break in
// top-k selections — are identical to the monolithic execution.
func Split(db *store.DB, k int) (*DB, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: split into %d shards", k)
	}
	iv := int(db.Meta.Intervals)
	if k > iv {
		k = iv
	}
	bounds := make([]int32, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = int32(i * iv / k)
	}
	return SplitAt(db, bounds)
}

// SplitAt re-slices a monolith on explicit capture-interval boundaries.
// bounds must tile [0, Intervals]; the metamorphic battery uses it to prove
// results are invariant under boundary moves.
func SplitAt(db *store.DB, bounds []int32) (*DB, error) {
	if len(bounds) < 2 {
		return nil, fmt.Errorf("shard: %d bounds", len(bounds))
	}
	parts, err := slice(db, bounds)
	if err != nil {
		return nil, err
	}
	return New(parts, bounds)
}

// slice cuts db into the parts the ascending bounds delimit. Part i holds
// the mentions captured in [bounds[i], bounds[i+1]) plus the events they
// reference and the events homed in the range (so the union of part event
// tables covers every event, including zero-mention ones), and the GKG
// rows captured in the range. The parts share db's dictionaries, so every
// id column but the event rows is copied as it is. Per-event metadata is
// copied verbatim — it stays global on purpose, so queries reading it
// (event sizes, qlang's articles field, wildfire thresholds) agree with the
// monolith without cross-shard recounting.
//
// A part costs its own rows: one pass lists db's events by home part (the
// bounds at or below the clamped home interval, less one), and each part
// marks the rows it holds in a bitset over db's event rows that all parts
// share, then reads them back in row (= id) order, clearing the words.
func slice(db *store.DB, bounds []int32) ([]*store.DB, error) {
	k, ne := len(bounds)-1, db.Events.Len()
	home := make([][]int32, k) // home[i]: the events homed in part i, ascending
	for e, iv := range db.Events.Interval {
		if i, _ := slices.BinarySearch(bounds, min(max(iv, 0), db.Meta.Intervals-1)+1); i > 0 && i <= k {
			home[i-1] = append(home[i-1], int32(e))
		}
	}
	held := make([]uint64, (ne+63)/64)
	g2l := make([]int32, ne) // db event row -> row in the part being cut, for the rows it holds
	parts := make([]*store.DB, k)
	for i := range parts {
		lo, hi := bounds[i], bounds[i+1]
		rLo, rHi := db.MentionRowRange(lo, hi)
		nl, wLo, wHi := 0, len(held), 0
		for _, rows := range [][]int32{home[i], db.Mentions.EventRow[rLo:rHi]} {
			for _, e := range rows {
				if w, b := e>>6, uint64(1)<<(e&63); held[w]&b == 0 {
					held[w] |= b
					nl, wLo, wHi = nl+1, min(wLo, int(w)), max(wHi, int(w)+1)
				}
			}
		}
		// Every column is allocated at its final length: no spare capacity
		// stays resident in a part.
		ev := store.MakeEventTable(nl)
		for w := wLo; w < wHi; w++ {
			for x := held[w]; x != 0; x &= x - 1 {
				e := w<<6 | bits.TrailingZeros64(x)
				g2l[e] = int32(ev.Len())
				ev.AppendRow(&db.Events, e)
			}
			held[w] = 0
		}
		mn := store.MentionTable{
			EventRow:   make([]int32, rHi-rLo),
			Source:     rows(db.Mentions.Source, rLo, rHi),
			Interval:   rows(db.Mentions.Interval, rLo, rHi),
			Delay:      rows(db.Mentions.Delay, rLo, rHi),
			DocLen:     rows(db.Mentions.DocLen, rLo, rHi),
			Tone:       rows(db.Mentions.Tone, rLo, rHi),
			Confidence: rows(db.Mentions.Confidence, rLo, rHi),
		}
		for r, e := range db.Mentions.EventRow[rLo:rHi] {
			mn.EventRow[r] = g2l[e]
		}
		p, err := store.AssembleDB(db.Meta, db.Sources, ev, mn, db.Report)
		if err == nil && db.GKG != nil {
			err = sliceGKG(db.GKG, p, lo, hi)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d [%d, %d): %w", i, lo, hi, err)
		}
		parts[i] = p
	}
	return parts, nil
}

// sliceGKG carves the (interval-sorted, hence contiguous) GKG rows captured
// in [lo, hi) into p's table over g's theme dictionary: each theme's
// postings are cut to those rows by binary search and rebased to the
// part's row numbers.
func sliceGKG(g *store.GKGStore, p *store.DB, lo, hi int32) error {
	src := &g.Table
	n := src.Len()
	gLo := sort.Search(n, func(i int) bool { return src.Interval[i] >= lo })
	gHi := sort.Search(n, func(i int) bool { return src.Interval[i] >= hi })
	t := store.GKGTable{
		Interval:   rows(src.Interval, gLo, gHi),
		Translated: rows(src.Translated, gLo, gHi),
	}
	nt := g.Themes.Len()
	cut := make([][]int32, nt)
	ptr := make([]int64, nt+1)
	for th := range nt {
		post := g.ThemeRows(int32(th))
		a, _ := slices.BinarySearch(post, int32(gLo))
		b, _ := slices.BinarySearch(post, int32(gHi))
		cut[th] = post[a:b]
		ptr[th+1] = ptr[th] + int64(b-a)
	}
	idx := make([]int32, 0, ptr[nt])
	for _, post := range cut {
		for _, r := range post {
			idx = append(idx, r-int32(gLo))
		}
	}
	return store.AssembleGKG(p, t, g.Themes, ptr, idx)
}

// rows returns a copy of s[lo:hi] with no spare capacity.
func rows[T any, I int | int64](s []T, lo, hi I) []T {
	return append(make([]T, 0, hi-lo), s[lo:hi]...)
}
