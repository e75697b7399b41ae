package store

import (
	"slices"

	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/gdelt"
)

// Bitmap postings (DESIGN.md §12): alongside the row-list postings built by
// buildPostings, each source carries roaring bitmaps — its mention rows, its
// event rows and its repeat-event rows. The row bitmap gives the ad-hoc
// pushdown planner O(containers) cardinalities for selectivity estimation
// and the ascending rows of a source clause. The event bitmaps answer
// CoReport by intersection cardinalities and FollowReport's "which events
// can contribute at all". All are canonical (FromSorted), so equal row sets have equal
// encodings whether a key was rebuilt or carried over from the previous
// tail.

// buildSourceBitmaps derives the per-source row, event and repeat-event
// bitmaps from the freshly built postings, for the sources buildDerived's
// offsets make dirty; the rest are prev's. A source's row bitmap changes
// when it gains rows (a new source always does); its event bitmaps also
// change when an event it mentions moves row, i.e. sits at or above
// movedEv. Row bitmaps come straight from the ascending posting lists; event
// bitmaps are built with one counting pass over the event-sorted mention
// order so each source's event list is ascending and deduplicated before
// FromSorted.
func (db *DB) buildSourceBitmaps(prev *DB, newRow, newSrc, movedEv int) {
	ns := db.Sources.Len()
	dirtyRows := make([]bool, ns)
	for s := newSrc; s < ns; s++ {
		dirtyRows[s] = true
	}
	for _, s := range db.Mentions.Source[newRow:] {
		dirtyRows[s] = true
	}
	dirtyEvs := slices.Clone(dirtyRows)
	for _, s := range db.byEventSrc[db.byEventPtr[movedEv]:] {
		dirtyEvs[s] = true
	}
	db.srcRowBM = make([]*bitmap.Bitmap, ns)
	db.srcEvBM = make([]*bitmap.Bitmap, ns)
	db.srcRepEvBM = make([]*bitmap.Bitmap, ns)
	for s := 0; s < ns; s++ {
		if dirtyRows[s] {
			db.srcRowBM[s] = bitmap.FromSorted(db.SourceMentions(int32(s)))
		} else {
			db.srcRowBM[s] = prev.srcRowBM[s]
		}
		if !dirtyEvs[s] {
			db.srcEvBM[s], db.srcRepEvBM[s] = prev.srcEvBM[s], prev.srcRepEvBM[s]
		}
	}

	// Count distinct events per dirty source by walking events in ascending
	// row order and deduplicating consecutive repeats per source.
	lastEv := make([]int32, ns)
	for s := range lastEv {
		lastEv[s] = -1
	}
	counts := make([]int64, ns)
	ne := db.Events.Len()
	for e := 0; e < ne; e++ {
		for _, s := range db.EventMentionSources(int32(e)) {
			if dirtyEvs[s] && lastEv[s] != int32(e) {
				lastEv[s] = int32(e)
				counts[s]++
			}
		}
	}
	evs := make([][]int32, ns)
	for s := 0; s < ns; s++ {
		if dirtyEvs[s] {
			evs[s] = make([]int32, 0, counts[s])
		}
		lastEv[s] = -1
	}
	// Repeat events: events a source mentions at least twice. lastRep marks
	// the second sighting within one event, so each repeat event is appended
	// exactly once and the lists stay ascending.
	reps := make([][]int32, ns)
	lastRep := make([]int32, ns)
	for s := range lastRep {
		lastRep[s] = -1
	}
	for e := 0; e < ne; e++ {
		for _, s := range db.EventMentionSources(int32(e)) {
			if !dirtyEvs[s] {
				continue
			}
			if lastEv[s] != int32(e) {
				lastEv[s] = int32(e)
				evs[s] = append(evs[s], int32(e))
			} else if lastRep[s] != int32(e) {
				lastRep[s] = int32(e)
				reps[s] = append(reps[s], int32(e))
			}
		}
	}
	for s := 0; s < ns; s++ {
		if dirtyEvs[s] {
			db.srcEvBM[s] = bitmap.FromSorted(evs[s])
			db.srcRepEvBM[s] = bitmap.FromSorted(reps[s])
		}
	}
}

// buildValueBitmaps derives the per-country mention-row bitmaps for qlang
// predicate pushdown: one bitmap per publisher country (the source's
// TLD-attributed country) and one per event country (the mentioned event's
// tag). Unattributable (-1) rows appear in no bitmap — matching the closure
// semantics, where an untagged row never satisfies an equality.
func (db *DB) buildValueBitmaps(prev *DB, newRow int) {
	var prevS, prevE []*bitmap.Bitmap
	if prev != nil {
		prevS, prevE = prev.ctryRowBM, prev.evCtryRowBM
	}
	db.ctryRowBM = db.countryBitmaps(prevS, newRow, func(row int) int16 { return db.SourceCountry[db.Mentions.Source[row]] })
	db.evCtryRowBM = db.countryBitmaps(prevE, newRow, func(row int) int16 { return db.Events.Country[db.Mentions.EventRow[row]] })
}

// countryBitmaps returns one mention-row bitmap per country index, nil
// where no row has the country. A row's country never changes and mention
// rows never move, so only the countries of rows from newRow on are
// rebuilt; the others are prev's (all nil without one).
func (db *DB) countryBitmaps(prev []*bitmap.Bitmap, newRow int, country func(row int) int16) []*bitmap.Bitmap {
	nc, nm := len(gdelt.Countries), db.Mentions.Len()
	dirty := make([]bool, nc)
	for row := newRow; row < nm; row++ {
		if c := country(row); c >= 0 {
			dirty[c] = true
		}
	}
	rows := make([][]int32, nc)
	for row := 0; row < nm; row++ {
		if c := country(row); c >= 0 && dirty[c] {
			rows[c] = append(rows[c], int32(row))
		}
	}
	out := make([]*bitmap.Bitmap, nc)
	copy(out, prev)
	for c := range out {
		if dirty[c] {
			out[c] = bitmap.FromSorted(rows[c])
		}
	}
	return out
}

// valueBitmap returns key k's bitmap of a keyed value index: an empty
// bitmap for an out-of-range or empty key.
func valueBitmap(bms []*bitmap.Bitmap, k int) *bitmap.Bitmap {
	if k < 0 || k >= len(bms) || bms[k] == nil {
		return bitmap.New()
	}
	return bms[k]
}

// CountryRowBitmap returns the bitmap of mention rows whose source is
// TLD-attributed to country index c (into gdelt.Countries). Out-of-range
// indexes return an empty bitmap. Read-only.
func (db *DB) CountryRowBitmap(c int) *bitmap.Bitmap { return valueBitmap(db.ctryRowBM, c) }

// EventCountryRowBitmap returns the bitmap of mention rows whose mentioned
// event is tagged with country index c. Out-of-range indexes return an
// empty bitmap. Read-only.
func (db *DB) EventCountryRowBitmap(c int) *bitmap.Bitmap { return valueBitmap(db.evCtryRowBM, c) }

// SourceRowBitmap returns the bitmap of mention rows of source s. Read-only;
// canonical, so AppendTo bytes are deterministic.
func (db *DB) SourceRowBitmap(s int32) *bitmap.Bitmap { return db.srcRowBM[s] }

// SourceEventBitmap returns the bitmap of event rows source s mentions.
// Read-only.
func (db *DB) SourceEventBitmap(s int32) *bitmap.Bitmap { return db.srcEvBM[s] }

// SourceRepeatEventBitmap returns the bitmap of event rows source s mentions
// two or more times — the events where a source can follow itself.
// FollowReport's contributing-events set needs them: an event
// contributes only when it holds at least two selected rows, i.e. when two
// distinct selected sources co-occur or one selected source repeats.
// Read-only.
func (db *DB) SourceRepeatEventBitmap(s int32) *bitmap.Bitmap { return db.srcRepEvBM[s] }
