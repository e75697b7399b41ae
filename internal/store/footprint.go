package store

import (
	"unsafe"

	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/gdelt"
)

// Footprint returns the resident bytes of every structure db holds, keyed
// by field path: one entry per column of Events, Mentions and GKG.Table
// ("Events.ID", "GKG.Table.Interval"), one per other field of the DB and
// the GKG store ("bySourceIdx", "GKG.Themes"). A slice counts its capacity,
// a string its bytes, a pointer its target, a map its entries at key plus
// value size. Fixed-size fields (Meta, the version) have no entry.
func (db *DB) Footprint() map[string]int {
	ev, mn := &db.Events, &db.Mentions
	out := map[string]int{
		"Sources":             dictionaryBytes(db.Sources),
		"Events.ID":           sliceBytes(ev.ID),
		"Events.Interval":     sliceBytes(ev.Interval),
		"Events.Country":      sliceBytes(ev.Country),
		"Events.NumArticles":  sliceBytes(ev.NumArticles),
		"Events.FirstMention": sliceBytes(ev.FirstMention),
		"Events.SourceURL":    stringsBytes(ev.SourceURL),
		"Mentions.EventRow":   sliceBytes(mn.EventRow),
		"Mentions.Source":     sliceBytes(mn.Source),
		"Mentions.Interval":   sliceBytes(mn.Interval),
		"Mentions.Delay":      sliceBytes(mn.Delay),
		"Mentions.DocLen":     sliceBytes(mn.DocLen),
		"Mentions.Tone":       sliceBytes(mn.Tone),
		"Mentions.Confidence": sliceBytes(mn.Confidence),
		"SourceCountry":       sliceBytes(db.SourceCountry),
		"bySourcePtr":         sliceBytes(db.bySourcePtr),
		"bySourceIdx":         sliceBytes(db.bySourceIdx),
		"byEventPtr":          sliceBytes(db.byEventPtr),
		"byEventSrc":          sliceBytes(db.byEventSrc),
		"byEventIv":           sliceBytes(db.byEventIv),
		"srcEvBM":             bitmapsBytes(db.srcEvBM),
		"srcRepEvBM":          bitmapsBytes(db.srcRepEvBM),
		"ctryRowBM":           bitmapsBytes(db.ctryRowBM),
		"evCtryRowBM":         bitmapsBytes(db.evCtryRowBM),
		"quarterRow":          sliceBytes(db.quarterRow),
		"Report":              reportBytes(db.Report),
	}
	if db.cal != nil {
		out["cal"] = int(unsafe.Sizeof(*db.cal)) + sliceBytes(db.cal.lut)
	}
	if g := db.GKG; g != nil {
		out["GKG.Table.Interval"] = sliceBytes(g.Table.Interval)
		out["GKG.Table.Translated"] = sliceBytes(g.Table.Translated)
		out["GKG.Themes"] = dictionaryBytes(g.Themes)
		out["GKG.themePtr"] = sliceBytes(g.themePtr)
		out["GKG.themeIdx"] = sliceBytes(g.themeIdx)
	}
	return out
}

func sliceBytes[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

func stringsBytes(s []string) int {
	n := sliceBytes(s)
	for _, x := range s {
		n += len(x)
	}
	return n
}

// dictionaryBytes counts each name once: the map's keys share the name
// list's strings.
func dictionaryBytes(d *Dictionary) int {
	entry := unsafe.Sizeof("") + unsafe.Sizeof(int32(0))
	return int(unsafe.Sizeof(*d)) + len(d.byName)*int(entry) + stringsBytes(d.names)
}

func bitmapsBytes(bs []*bitmap.Bitmap) int {
	n := sliceBytes(bs)
	for _, b := range bs {
		if b != nil {
			n += b.Footprint()
		}
	}
	return n
}

func reportBytes(r *gdelt.ValidationReport) int {
	if r == nil {
		return 0
	}
	n := int(unsafe.Sizeof(*r))
	for _, ex := range r.Examples {
		n += stringsBytes(ex)
	}
	return n
}
