package store

import (
	"slices"
	"testing"

	"gdeltmine/internal/gdelt"
)

func buildGKGDB(t *testing.T) *DB {
	t.Helper()
	b, err := NewBuilder(20150218000000, 96*10)
	if err != nil {
		t.Fatal(err)
	}
	ev := gdelt.Event{GlobalEventID: 1, Day: 20150218, SourceURL: "https://a.com/1",
		DateAdded: gdelt.IntervalStart(0)}
	b.AddEvent(&ev)
	mn := gdelt.Mention{GlobalEventID: 1, EventTime: gdelt.IntervalStart(0),
		MentionTime: gdelt.IntervalStart(0), MentionType: 1, SourceName: "a.com"}
	b.AddMention(&mn)

	recs := []gdelt.GKGRecord{
		{RecordID: "r2", Date: gdelt.IntervalStart(5), SourceName: "b.co.uk",
			Themes: []string{"KILL"}, Persons: []string{"jane doe"}, Translated: true},
		{RecordID: "r1", Date: gdelt.IntervalStart(1), SourceName: "a.com",
			Themes: []string{"TERROR", "KILL"}, Organizations: []string{"police"}, Tone: -5},
		{RecordID: "out-of-range", Date: gdelt.IntervalStart(96 * 20), SourceName: "a.com"},
	}
	for i := range recs {
		b.AddGKG(&recs[i])
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGKGBuilderSortsAndIndexes(t *testing.T) {
	db := buildGKGDB(t)
	g := db.GKG
	if g == nil {
		t.Fatal("no GKG store")
	}
	// Out-of-range record dropped; remaining two sorted by interval.
	if g.Table.Len() != 2 {
		t.Fatalf("rows %d", g.Table.Len())
	}
	if g.Table.Interval[0] != 1 || g.Table.Interval[1] != 5 {
		t.Fatalf("intervals %v", g.Table.Interval)
	}
	// Row 0 is the r1 record (TERROR, KILL), row 1 r2's (KILL).
	if g.Table.Translated[0] || !g.Table.Translated[1] {
		t.Fatal("translation flags wrong")
	}
	// Theme postings in row numbers: KILL carries both rows, TERROR row 0.
	kill := g.Themes.Lookup("KILL")
	terror := g.Themes.Lookup("TERROR")
	if kill < 0 || terror < 0 {
		t.Fatal("themes not interned")
	}
	if !slices.Equal(g.ThemeRows(kill), []int32{0, 1}) || !slices.Equal(g.ThemeRows(terror), []int32{0}) {
		t.Fatalf("postings: KILL %v TERROR %v", g.ThemeRows(kill), g.ThemeRows(terror))
	}
	// GKG sources share the main dictionary; b.co.uk exists only via GKG.
	if db.Sources.Lookup("b.co.uk") < 0 {
		t.Fatal("GKG-only source not interned")
	}
	// The dropped record counted as a bad row.
	if db.Report.Counts[gdelt.DefectBadRow] != 1 {
		t.Fatalf("bad rows %d", db.Report.Counts[gdelt.DefectBadRow])
	}
}

func TestGKGValidateCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(g *GKGStore)
	}{
		{"unsorted rows", func(g *GKGStore) { g.Table.Interval[1] = 0 }},
		{"short column", func(g *GKGStore) { g.Table.Translated = g.Table.Translated[:1] }},
		{"theme id out of range", func(g *GKGStore) { g.themePtr = append(g.themePtr, g.themePtr[len(g.themePtr)-1]) }},
		{"rows descending", func(g *GKGStore) { g.themeIdx[0], g.themeIdx[1] = 1, 0 }},
		{"row past the table", func(g *GKGStore) { g.themeIdx[len(g.themeIdx)-1] = 2 }},
		{"pointer past the ids", func(g *GKGStore) { g.themePtr[len(g.themePtr)-1]++ }},
		{"pointers not monotone", func(g *GKGStore) { g.themePtr[1] = g.themePtr[2] + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGKGDB(t).GKG
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			tc.tamper(g)
			if err := g.Validate(); err == nil {
				t.Fatal("corruption not caught")
			}
		})
	}
}

func TestBuilderWithoutGKG(t *testing.T) {
	b, err := NewBuilder(20150218000000, 96)
	if err != nil {
		t.Fatal(err)
	}
	ev := gdelt.Event{GlobalEventID: 1, Day: 20150218, SourceURL: "x", DateAdded: gdelt.IntervalStart(0)}
	b.AddEvent(&ev)
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if db.GKG != nil {
		t.Fatal("GKG store without GKG records")
	}
}
