package store

import (
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
	// Row 0 is the r1 record (two themes, no person), row 1 r2's.
	if len(g.Table.RowThemes(0)) != 2 || len(g.Table.RowPersons(0)) != 0 || len(g.Table.RowPersons(1)) != 1 {
		t.Fatalf("row 0 annotations wrong")
	}
	if g.Table.Translated[0] || !g.Table.Translated[1] {
		t.Fatal("translation flags wrong")
	}
	// Theme postings: KILL appears in both rows, TERROR in one.
	kill := g.Themes.Lookup("KILL")
	terror := g.Themes.Lookup("TERROR")
	if kill < 0 || terror < 0 {
		t.Fatal("themes not interned")
	}
	if len(g.ThemeRows(kill)) != 2 || len(g.ThemeRows(terror)) != 1 {
		t.Fatalf("postings: KILL %d TERROR %d", len(g.ThemeRows(kill)), len(g.ThemeRows(terror)))
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
	db := buildGKGDB(t)
	g := db.GKG
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	saved := g.Table.ThemeIDs[0]
	g.Table.ThemeIDs[0] = 999
	if err := g.Table.Validate(g.Themes, g.Persons); err == nil {
		t.Fatal("bad theme id not caught")
	}
	g.Table.ThemeIDs[0] = saved
	savedIv := g.Table.Interval[1]
	g.Table.Interval[1] = 0 // breaks sort order
	if err := g.Table.Validate(g.Themes, g.Persons); err == nil {
		t.Fatal("unsorted rows not caught")
	}
	g.Table.Interval[1] = savedIv
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
