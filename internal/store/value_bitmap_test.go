package store

import (
	"testing"

	"gdeltmine/internal/gdelt"
)

// The qlang pushdown value bitmaps (DESIGN.md §13) must agree exactly with
// a brute-force scan of the mention columns: every attributed row in its
// country's bitmap, unattributed (-1) rows in none, quarter bitmaps the
// contiguous quarter row ranges.

func TestValueBitmapsMatchBruteForce(t *testing.T) {
	db, _ := buildTinyDB(t)
	nm := db.Mentions.Len()
	nc := len(gdelt.Countries)

	wantCtry := make([]map[int32]bool, nc)
	wantEv := make([]map[int32]bool, nc)
	for c := 0; c < nc; c++ {
		wantCtry[c] = map[int32]bool{}
		wantEv[c] = map[int32]bool{}
	}
	for row := 0; row < nm; row++ {
		if c := db.SourceCountry[db.Mentions.Source[row]]; c >= 0 {
			wantCtry[c][int32(row)] = true
		}
		if c := db.Events.Country[db.Mentions.EventRow[row]]; c >= 0 {
			wantEv[c][int32(row)] = true
		}
	}
	var attributed int
	for c := 0; c < nc; c++ {
		attributed += len(wantCtry[c])
		for _, probe := range []struct {
			name string
			got  []int32
			want map[int32]bool
		}{
			{"country", db.CountryRowBitmap(c).AppendRows(nil), wantCtry[c]},
			{"event-country", db.EventCountryRowBitmap(c).AppendRows(nil), wantEv[c]},
		} {
			if len(probe.got) != len(probe.want) {
				t.Fatalf("%s %s bitmap has %d rows, want %d",
					probe.name, gdelt.Countries[c].FIPS, len(probe.got), len(probe.want))
			}
			for _, r := range probe.got {
				if !probe.want[r] {
					t.Fatalf("%s %s bitmap holds unexpected row %d", probe.name, gdelt.Countries[c].FIPS, r)
				}
			}
		}
	}
	if attributed == 0 {
		t.Fatal("test world has no country-attributed rows; bitmaps unexercised")
	}

	// Out-of-range keys answer with an empty bitmap, never a panic.
	for _, bm := range []interface{ Cardinality() int64 }{
		db.CountryRowBitmap(-1), db.CountryRowBitmap(nc + 5),
		db.EventCountryRowBitmap(-1), db.EventCountryRowBitmap(nc + 5),
	} {
		if bm.Cardinality() != 0 {
			t.Fatal("out-of-range value bitmap not empty")
		}
	}
}

// TestValueBitmapsRebuiltOnAppend: CloneAppend must refresh the value
// bitmaps along with the postings they derive from.
func TestValueBitmapsRebuiltOnAppend(t *testing.T) {
	db, _ := buildTinyDB(t)
	us := gdelt.CountryIndex("US")
	before := db.CountryRowBitmap(int(us)).Cardinality()

	iv := int64(db.Meta.Intervals) - 1
	evs := []gdelt.Event{{GlobalEventID: 500, Day: 20160101, ActionCountry: "US",
		SourceURL: "https://d.com/1", DateAdded: gdelt.IntervalStart(iv)}}
	mns := []gdelt.Mention{{GlobalEventID: 500, EventTime: gdelt.IntervalStart(iv),
		MentionTime: gdelt.IntervalStart(iv), MentionType: 1, SourceName: "d.com", DocLen: 50}}
	db, _, err := db.CloneAppend(EventTable{}, evs, mns)
	if err != nil {
		t.Fatal(err)
	}
	after := db.CountryRowBitmap(int(us)).Cardinality()
	if after != before+1 {
		t.Fatalf("US country bitmap cardinality %d after append, want %d", after, before+1)
	}
	rows := db.CountryRowBitmap(int(us)).AppendRows(nil)
	found := false
	for _, r := range rows {
		if db.Sources.Name(db.Mentions.Source[r]) == "d.com" {
			found = true
		}
	}
	if !found {
		t.Fatal("appended d.com row missing from US country bitmap")
	}
}
