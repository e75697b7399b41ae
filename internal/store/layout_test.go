package store_test

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// exactColumns fails for every column of table (an EventTable or a
// MentionTable) that holds spare capacity beyond its rows.
func exactColumns(t *testing.T, what string, table any) {
	t.Helper()
	v := reflect.ValueOf(table)
	for i := range v.NumField() {
		if f := v.Field(i); f.Cap() != f.Len() {
			t.Errorf("%s %s: cap %d, len %d", what, v.Type().Field(i).Name, f.Cap(), f.Len())
		}
	}
}

// TestPostingsLayout is the counted layout guard of the mention postings
// (DESIGN.md §10): on the Small preset their resident bytes must equal the
// documented layout — 4 B per mention for bySourceIdx, 8 B per mention for
// the event payload (byEventSrc, byEventIv), and a 4 B offset per source
// and per event plus one sentinel each; there is no other postings column.
// Every mention and event column must sit at its exact length, on the built
// store and on each part of a shard.Split. A change that adds resident
// bytes here has to update the figures.
func TestPostingsLayout(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.NewBuilder(gdelt.Timestamp(c.World.Cfg.Start), int32(c.World.Days()*gdelt.IntervalsPerDay))
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
	want := map[string]int{
		"bySourcePtr": 4 * (ns + 1),
		"bySourceIdx": 4 * nm,
		"byEventPtr":  4 * (ne + 1),
		"byEventSrc":  4 * nm,
		"byEventIv":   4 * nm,
	}
	got := store.PostingsBytes(db)
	if !slices.Equal(slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want))) {
		t.Errorf("postings columns %v, the layout names %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s holds %d B, the layout says %d B", name, got[name], w)
		}
	}
	t.Logf("postings of %d mentions, %d sources, %d events: %d B", nm, ns, ne, 12*nm+4*(ns+1)+4*(ne+1))

	exactColumns(t, "built", db.Mentions)
	exactColumns(t, "built", db.Events)
	sdb, err := shard.Split(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sdb.K() {
		exactColumns(t, "part", sdb.Part(i).Mentions)
		exactColumns(t, "part", sdb.Part(i).Events)
	}
}
