package shard

import (
	"fmt"
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
	parts := make([]*store.DB, len(bounds)-1)
	for i := range parts {
		p, err := slice(db, bounds[i], bounds[i+1])
		if err != nil {
			return nil, fmt.Errorf("shard %d [%d, %d): %w", i, bounds[i], bounds[i+1], err)
		}
		parts[i] = p
	}
	return New(parts, bounds)
}

// slice builds one shard: the monolith's mentions captured in [lo, hi)
// plus the events they reference and the events homed in the range (so the
// union of shard event tables covers every event, including zero-mention
// ones), and the GKG rows captured in the range. The shard shares db's
// dictionaries, so every id column but the event rows is copied as it is.
// Per-event metadata is copied verbatim — it stays global on purpose, so
// queries reading it (event sizes, qlang's articles field, wildfire
// thresholds) agree with the monolith without cross-shard recounting.
func slice(db *store.DB, lo, hi int32) (*store.DB, error) {
	rLo, rHi := db.MentionRowRange(lo, hi)

	ne := db.Events.Len()
	include := make([]bool, ne)
	for ev := 0; ev < ne; ev++ {
		iv := db.Events.Interval[ev]
		if iv < 0 {
			iv = 0
		}
		if iv >= db.Meta.Intervals {
			iv = db.Meta.Intervals - 1
		}
		if iv >= lo && iv < hi {
			include[ev] = true
		}
	}
	for r := rLo; r < rHi; r++ {
		include[db.Mentions.EventRow[r]] = true
	}

	// Every column is allocated at its final length: no spare capacity
	// stays resident in a part.
	g2l := make([]int32, ne)
	nl := 0
	for e := range ne {
		g2l[e] = -1
		if include[e] {
			g2l[e] = int32(nl)
			nl++
		}
	}
	ev := store.MakeEventTable(nl)
	for e := range ne {
		if include[e] {
			ev.AppendRow(&db.Events, e)
		}
	}

	m := &db.Mentions
	mn := store.MentionTable{
		EventRow:   make([]int32, rHi-rLo),
		Source:     rows(m.Source, rLo, rHi),
		Interval:   rows(m.Interval, rLo, rHi),
		Delay:      rows(m.Delay, rLo, rHi),
		DocLen:     rows(m.DocLen, rLo, rHi),
		Tone:       rows(m.Tone, rLo, rHi),
		Confidence: rows(m.Confidence, rLo, rHi),
	}
	for i, e := range m.EventRow[rLo:rHi] {
		mn.EventRow[i] = g2l[e]
	}

	p, err := store.AssembleDB(db.Meta, db.Sources, ev, mn, db.Report)
	if err != nil {
		return nil, err
	}
	if db.GKG != nil {
		if err := sliceGKG(db.GKG, p, lo, hi); err != nil {
			return nil, err
		}
	}
	return p, nil
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
