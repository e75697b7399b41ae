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
// rebuilt or carried over from the previous tail, and an empty one is
// stored as nil, like an empty country key: a part holds a key for every
// source of the world's dictionary it shares, most of them with no events
// in the part. A source's mention rows need no bitmap: they are its
// by-source postings.

// buildSourceBitmaps derives the per-source event and repeat-event bitmaps
// from the event payload, for the sources buildDerived's offsets make
// dirty; the rest are prev's. A source's bitmaps change when it gains rows
// (a new source always does) or when an event it mentions moves row, i.e.
// sits at or above movedEv.
func (db *DB) buildSourceBitmaps(prev *DB, newRow, newSrc, movedEv int) {
	ns := db.Sources.Len()
	// The dirty sources, numbered densely: slot[s] is s's place in dirty
	// plus one, 0 for a clean source. A tick's scratch is then sized by the
	// sources it touched, not by the dictionary, which in a log's tail is
	// the whole world's.
	slot := make([]int32, ns)
	var dirty []int32
	mark := func(s int32) {
		if slot[s] == 0 {
			dirty = append(dirty, s)
			slot[s] = int32(len(dirty))
		}
	}
	for s := newSrc; s < ns; s++ {
		mark(int32(s))
	}
	for _, s := range db.Mentions.Source[newRow:] {
		mark(s)
	}
	for _, s := range db.byEventSrc[db.byEventPtr[movedEv]:] {
		mark(s)
	}
	// One walk over the payload in ascending event order: a dirty source's
	// first sighting in an event appends the event to its list, the second
	// to its repeat list (events it mentions at least twice), so both stay
	// ascending and deduplicated for FromSorted. A source's postings length
	// bounds its list.
	evs, reps := make([][]int32, len(dirty)), make([][]int32, len(dirty))
	lastEv, lastRep := make([]int32, len(dirty)), make([]int32, len(dirty))
	for d, s := range dirty {
		lastEv[d], lastRep[d] = -1, -1
		evs[d] = make([]int32, 0, len(db.SourceMentions(s)))
	}
	for e := range int32(db.Events.Len()) {
		for _, s := range db.EventMentionSources(e) {
			d := slot[s] - 1
			if d < 0 {
				continue
			}
			if lastEv[d] != e {
				lastEv[d] = e
				evs[d] = append(evs[d], e)
			} else if lastRep[d] != e {
				lastRep[d] = e
				reps[d] = append(reps[d], e)
			}
		}
	}
	db.srcEvBM, db.srcRepEvBM = make([]*bitmap.Bitmap, ns), make([]*bitmap.Bitmap, ns)
	if prev != nil {
		copy(db.srcEvBM, prev.srcEvBM)
		copy(db.srcRepEvBM, prev.srcRepEvBM)
	}
	for d, s := range dirty {
		db.srcEvBM[s], db.srcRepEvBM[s] = keyBitmap(evs[d]), keyBitmap(reps[d])
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
	db.ctryRowBM = db.countryBitmaps(prevS, newRow, func(row int) int32 { return db.SourceCountry[db.Mentions.Source[row]] })
	db.evCtryRowBM = db.countryBitmaps(prevE, newRow, func(row int) int32 { return db.Events.Country[db.Mentions.EventRow[row]] })
}

// countryBitmaps returns one mention-row bitmap per country index, nil
// where no row has the country. A row's country never changes and mention
// rows never move, so only the countries of rows from newRow on are
// rebuilt; the others are prev's (all nil without one).
func (db *DB) countryBitmaps(prev []*bitmap.Bitmap, newRow int, country func(row int) int32) []*bitmap.Bitmap {
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

// keyBitmap returns the bitmap of a source's ascending event rows, or nil
// when it has none.
func keyBitmap(rows []int32) *bitmap.Bitmap {
	if len(rows) == 0 {
		return nil
	}
	return bitmap.FromSorted(rows)
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

// SourceEventBitmap returns the bitmap of event rows source s mentions,
// empty for an id past the dictionary (see SourceMentions). Read-only.
func (db *DB) SourceEventBitmap(s int32) *bitmap.Bitmap { return valueBitmap(db.srcEvBM, int(s)) }

// SourceRepeatEventBitmap returns the bitmap of event rows source s mentions
// two or more times — the events where a source can follow itself.
// FollowReport's contributing-events set needs them: an event
// contributes only when it holds at least two selected rows, i.e. when two
// distinct selected sources co-occur or one selected source repeats.
// Read-only.
func (db *DB) SourceRepeatEventBitmap(s int32) *bitmap.Bitmap {
	return valueBitmap(db.srcRepEvBM, int(s))
}
