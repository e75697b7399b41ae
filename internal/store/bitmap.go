package store

import (
	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/gdelt"
)

// Bitmap postings (DESIGN.md §12): each source carries two roaring bitmaps
// over event rows — the events it mentions and the events it mentions at
// least twice. They answer CoReport by intersection cardinalities and
// FollowReport's "which events can contribute at all". Both are canonical
// (FromSorted), so equal row sets have equal encodings whether a key was
// rebuilt or carried over from the previous tail. A source's mention rows
// need no bitmap: they are its by-source postings.

// buildSourceBitmaps derives the per-source event and repeat-event bitmaps
// from the event payload, for the sources buildDerived's offsets make
// dirty; the rest are prev's. A source's bitmaps change when it gains rows
// (a new source always does) or when an event it mentions moves row, i.e.
// sits at or above movedEv.
func (db *DB) buildSourceBitmaps(prev *DB, newRow, newSrc, movedEv int) {
	ns := db.Sources.Len()
	dirty := make([]bool, ns)
	for s := newSrc; s < ns; s++ {
		dirty[s] = true
	}
	for _, s := range db.Mentions.Source[newRow:] {
		dirty[s] = true
	}
	for _, s := range db.byEventSrc[db.byEventPtr[movedEv]:] {
		dirty[s] = true
	}
	// One walk over the payload in ascending event order: a dirty source's
	// first sighting in an event appends the event to its list, the second
	// to its repeat list (events it mentions at least twice), so both stay
	// ascending and deduplicated for FromSorted. A source's postings length
	// bounds its list.
	evs, reps := make([][]int32, ns), make([][]int32, ns)
	lastEv, lastRep := make([]int32, ns), make([]int32, ns)
	for s := range ns {
		lastEv[s], lastRep[s] = -1, -1
		if dirty[s] {
			evs[s] = make([]int32, 0, len(db.SourceMentions(int32(s))))
		}
	}
	for e := range int32(db.Events.Len()) {
		for _, s := range db.EventMentionSources(e) {
			if !dirty[s] {
				continue
			}
			if lastEv[s] != e {
				lastEv[s] = e
				evs[s] = append(evs[s], e)
			} else if lastRep[s] != e {
				lastRep[s] = e
				reps[s] = append(reps[s], e)
			}
		}
	}
	db.srcEvBM, db.srcRepEvBM = make([]*bitmap.Bitmap, ns), make([]*bitmap.Bitmap, ns)
	for s := range ns {
		if dirty[s] {
			db.srcEvBM[s], db.srcRepEvBM[s] = bitmap.FromSorted(evs[s]), bitmap.FromSorted(reps[s])
		} else {
			db.srcEvBM[s], db.srcRepEvBM[s] = prev.srcEvBM[s], prev.srcRepEvBM[s]
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
