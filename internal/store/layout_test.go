package store

import (
	"testing"
	"unsafe"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
)

// residentBytes is the backing-array size of s, spare capacity included.
func residentBytes[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// TestPostingsLayout is the counted layout guard of the mention postings
// (DESIGN.md §10): on the Small preset their resident bytes must equal the
// documented layout — 4 B per mention for each of bySourceIdx, byEventIdx,
// byEventSrc and byEventIv, and a 4 B offset per source and per event plus
// one sentinel each. A change that adds resident bytes here has to update
// the figure.
func TestPostingsLayout(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(gdelt.Timestamp(c.World.Cfg.Start), int32(c.World.Days()*gdelt.IntervalsPerDay))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Events {
		ev := c.EventRecord(i)
		b.AddEvent(&ev)
	}
	for j := range c.Mentions {
		mn := c.MentionRecord(j)
		b.AddMention(&mn)
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	nm, ns, ne := db.Mentions.Len(), db.Sources.Len(), db.Events.Len()
	for _, f := range []struct {
		name      string
		got, want int
	}{
		{"bySourcePtr", residentBytes(db.bySourcePtr), 4 * (ns + 1)},
		{"bySourceIdx", residentBytes(db.bySourceIdx), 4 * nm},
		{"byEventPtr", residentBytes(db.byEventPtr), 4 * (ne + 1)},
		{"byEventIdx", residentBytes(db.byEventIdx), 4 * nm},
		{"byEventSrc", residentBytes(db.byEventSrc), 4 * nm},
		{"byEventIv", residentBytes(db.byEventIv), 4 * nm},
	} {
		if f.got != f.want {
			t.Errorf("%s holds %d B, the layout says %d B", f.name, f.got, f.want)
		}
	}
	t.Logf("postings of %d mentions, %d sources, %d events: %d B", nm, ns, ne, 16*nm+4*(ns+1)+4*(ne+1))
}
