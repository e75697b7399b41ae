package qlang

import (
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/store"
)

var cachedDB *store.DB

func testDB(t testing.TB) *store.DB {
	t.Helper()
	if cachedDB == nil {
		c, err := gen.Generate(gen.Small())
		if err != nil {
			t.Fatal(err)
		}
		res, err := convert.FromCorpus(c)
		if err != nil {
			t.Fatal(err)
		}
		cachedDB = res.DB
	}
	return cachedDB
}

func count(t *testing.T, f *Filter, db *store.DB) int64 {
	t.Helper()
	return int64(len(f.Select(0, db.Mentions.Len(), nil)))
}

func TestEmptyExpressionMatchesAll(t *testing.T) {
	db := testDB(t)
	f, err := Compile(db, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.stages) != 0 || f.none {
		t.Fatal("stages in empty filter")
	}
	if got := count(t, f, db); got != int64(db.Mentions.Len()) {
		t.Fatalf("matched %d of %d", got, db.Mentions.Len())
	}
}

func TestDelayClause(t *testing.T) {
	db := testDB(t)
	f, err := Compile(db, "delay > 96")
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, d := range db.Mentions.Delay {
		if d > 96 {
			want++
		}
	}
	if got := count(t, f, db); got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestConjunction(t *testing.T) {
	db := testDB(t)
	for _, expr := range []string{
		"delay>96 and doclen<1000",
		"delay>96 && doclen<1000",
		"delay > 96 AND doclen < 1000",
	} {
		f, err := Compile(db, expr)
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		var want int64
		for row := 0; row < db.Mentions.Len(); row++ {
			if db.Mentions.Delay[row] > 96 && db.Mentions.DocLen[row] < 1000 {
				want++
			}
		}
		if got := count(t, f, db); got != want {
			t.Fatalf("%q: got %d want %d", expr, got, want)
		}
	}
}

func TestCountryClauses(t *testing.T) {
	db := testDB(t)
	f, err := Compile(db, "sourcecountry=UK and eventcountry=US")
	if err != nil {
		t.Fatal(err)
	}
	uk := int32(gdelt.CountryIndex("UK"))
	us := int32(gdelt.CountryIndex("US"))
	var want int64
	for row := 0; row < db.Mentions.Len(); row++ {
		if db.SourceCountry[db.Mentions.Source[row]] == uk &&
			db.Events.Country[db.Mentions.EventRow[row]] == us {
			want++
		}
	}
	got := count(t, f, db)
	if got != want || want == 0 {
		t.Fatalf("got %d want %d", got, want)
	}
	// Negation.
	f2, err := Compile(db, "sourcecountry!=UK")
	if err != nil {
		t.Fatal(err)
	}
	var notUK int64
	for row := 0; row < db.Mentions.Len(); row++ {
		if db.SourceCountry[db.Mentions.Source[row]] != uk {
			notUK++
		}
	}
	if got := count(t, f2, db); got != notUK {
		t.Fatalf("negation got %d want %d", got, notUK)
	}
}

func TestQuarterClause(t *testing.T) {
	db := testDB(t)
	f, err := Compile(db, "quarter>=2016Q1 and quarter<=2016Q4")
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for row := 0; row < db.Mentions.Len(); row++ {
		q := db.QuarterOfInterval(db.Mentions.Interval[row])
		if q >= 4 && q <= 7 { // 2015Q1 is quarter 0
			want++
		}
	}
	got := count(t, f, db)
	if got != want || want == 0 {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestSourceClause(t *testing.T) {
	db := testDB(t)
	name := db.Sources.Name(0)
	f, err := Compile(db, "source='"+name+"'")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(db.SourceMentions(0)))
	if got := count(t, f, db); got != want {
		t.Fatalf("got %d want %d", got, want)
	}
	// Unknown source matches nothing under = (id -1).
	f2, err := Compile(db, "source=nosuch.example")
	if err != nil {
		t.Fatal(err)
	}
	if got := count(t, f2, db); got != 0 {
		t.Fatalf("unknown source matched %d", got)
	}
}

func TestToneAndArticlesClauses(t *testing.T) {
	db := testDB(t)
	f, err := Compile(db, "tone<-2.5 and articles>=10")
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for row := 0; row < db.Mentions.Len(); row++ {
		if float64(db.Mentions.Tone[row]) < -2.5 &&
			db.Events.NumArticles[db.Mentions.EventRow[row]] >= 10 {
			want++
		}
	}
	if got := count(t, f, db); got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestCompileErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"delay >",                // incomplete
		"delay ! 5",              // bad operator
		"nosuchfield = 1",        // unknown field
		"delay = abc",            // non-integer
		"tone = abc",             // non-float
		"quarter = 2016X3",       // bad quarter literal
		"quarter = Q3",           // bad quarter literal
		"source < x",             // unsupported op
		"sourcecountry < UK",     // unsupported op
		"sourcecountry = XXFAKE", // unknown country
		"delay & 5",              // lone ampersand
		"source='unterminated",   // unterminated string
		"= 5",                    // missing field
		"delay delay 5",          // missing operator
	}
	for _, expr := range bad {
		if _, err := Compile(db, expr); err == nil {
			t.Fatalf("%q compiled", expr)
		}
	}
}

func TestOpString(t *testing.T) {
	for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		if op.String() == "?" {
			t.Fatalf("op %d has no name", op)
		}
	}
}
