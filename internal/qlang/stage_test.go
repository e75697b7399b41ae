package qlang

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/store"
)

// naiveMatch is the reference the typed stages are pinned to: every clause
// evaluated per row against the raw columns with plain comparisons — no
// spans, no clamping, no lookup tables (the quarter comes from
// QuarterOfInterval, the source from the dictionary name).
func naiveMatch(db *store.DB, clauses []Clause, row int) bool {
	cmp := func(a, b int64, op Op) bool {
		switch op {
		case OpEq:
			return a == b
		case OpNe:
			return a != b
		case OpLt:
			return a < b
		case OpLe:
			return a <= b
		case OpGt:
			return a > b
		}
		return a >= b
	}
	m := &db.Mentions
	for _, c := range clauses {
		var ok bool
		switch c.Field {
		case "delay":
			ok = cmp(int64(m.Delay[row]), c.Value.Int, c.Op)
		case "interval":
			ok = cmp(int64(m.Interval[row]), c.Value.Int, c.Op)
		case "doclen":
			ok = cmp(int64(m.DocLen[row]), c.Value.Int, c.Op)
		case "confidence":
			ok = cmp(int64(m.Confidence[row]), c.Value.Int, c.Op)
		case "articles":
			ok = cmp(int64(db.Events.NumArticles[m.EventRow[row]]), c.Value.Int, c.Op)
		case "quarter":
			ok = cmp(int64(db.QuarterOfInterval(m.Interval[row])), int64(QuarterIndex(db, c.Value)), c.Op)
		case "tone":
			a, b := float64(m.Tone[row]), c.Value.Float
			switch c.Op {
			case OpEq:
				ok = a == b
			case OpNe:
				ok = a != b
			case OpLt:
				ok = a < b
			case OpLe:
				ok = a <= b
			case OpGt:
				ok = a > b
			default:
				ok = a >= b
			}
		case "source":
			ok = (db.Sources.Name(m.Source[row]) == c.Value.Str) == (c.Op == OpEq)
		case "sourcecountry":
			ok = (int(db.SourceCountry[m.Source[row]]) == gdelt.CountryIndex(c.Value.Str)) == (c.Op == OpEq)
		case "eventcountry":
			ok = (int(db.Events.Country[m.EventRow[row]]) == gdelt.CountryIndex(c.Value.Str)) == (c.Op == OpEq)
		default:
			panic("naiveMatch: field " + c.Field)
		}
		if !ok {
			return false
		}
	}
	return true
}

// naiveSelect lists the rows of [lo, hi) naiveMatch accepts.
func naiveSelect(db *store.DB, clauses []Clause, lo, hi int) []int32 {
	var out []int32
	for r := lo; r < hi; r++ {
		if naiveMatch(db, clauses, r) {
			out = append(out, int32(r))
		}
	}
	return out
}

// stageLiterals lists, per field, the literals the table test crosses with
// every operator the field accepts: typical values and values the column
// holds, values just outside each column type's range, the int64 limits,
// NaN and the infinities, quarters before and after the archive, an
// unknown source, and a country no row carries.
func stageLiterals(db *store.DB) map[string][]string {
	i64 := func(vs ...int64) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = strconv.FormatInt(v, 10)
		}
		return out
	}
	lim := []int64{math.MinInt64, math.MaxInt64, math.MinInt32 - 1, math.MaxInt32 + 1}
	absent := gdelt.Countries[len(gdelt.Countries)-1].FIPS
	for i := len(gdelt.Countries) - 1; i >= 0; i-- {
		if !slices.Contains(db.SourceCountry, int32(i)) && !slices.Contains(db.Events.Country, int32(i)) {
			absent = gdelt.Countries[i].FIPS
			break
		}
	}
	// tone renders a row's tone exactly, so = and the strict operators meet
	// a value the column holds. The two full-precision literals beside them
	// lie just off two-decimal tones the column holds (-0.82, -1.5), so =
	// meets nothing and the ordered operators must split between neighbours.
	tone := func(row int) string {
		return strconv.FormatFloat(float64(db.Mentions.Tone[row]), 'g', -1, 64)
	}
	iv := int64(db.Meta.Intervals)
	y := db.Meta.Start.Year()
	return map[string][]string{
		"delay":      i64(append([]int64{-1, 0, 1, 2, 96}, lim...)...),
		"interval":   i64(append([]int64{0, iv / 2, iv - 1, iv}, lim...)...),
		"doclen":     i64(append([]int64{0, 1000, 2500}, lim...)...),
		"confidence": i64(append([]int64{0, 20, 100, 127, 128, -128, -129}, lim...)...),
		"articles":   i64(append([]int64{0, 1, 10}, lim...)...),
		"tone": {"-2.5", "0", "-0", "3.25", "1e300", "-1e300", "NaN", "Inf", "-Inf",
			tone(0), tone(db.Mentions.Len() / 2), "-0.8180182576179504", "-1.496586561203003"},
		"quarter": {db.QuarterLabel(0), db.QuarterLabel(db.NumQuarters() / 2),
			db.QuarterLabel(db.NumQuarters() - 1), fmt.Sprintf("%dQ1", y-3),
			fmt.Sprintf("%dQ4", y+40)},
		"source":        {db.Sources.Name(0), db.Sources.Name(int32(db.Sources.Len() - 1)), "nosuch.example"},
		"sourcecountry": {"US", "UK", absent},
		"eventcountry":  {"US", "UK", absent},
	}
}

// stageWindows are the [lo, hi) ranges every expression is selected over:
// empty, one row, odd-sized, the last row and the full table.
func stageWindows(n int) [][2]int {
	return [][2]int{{0, 0}, {n / 2, n / 2}, {7, 8}, {13, 13 + 1001}, {n - 1, n}, {0, n}}
}

// checkSelect pins one compiled expression against naiveSelect over every
// window: Select into an empty and into a non-empty buffer (whose prefix
// must survive), Refine of the window's rows, and Refine of a strided
// selection.
func checkSelect(t *testing.T, db *store.DB, expr string) {
	t.Helper()
	e, err := Parse(expr)
	if err != nil {
		t.Fatalf("%q: %v", expr, err)
	}
	f, err := Compile(db, expr)
	if err != nil {
		t.Fatalf("%q: %v", expr, err)
	}
	n := db.Mentions.Len()
	for _, w := range stageWindows(n) {
		want := naiveSelect(db, e.Clauses, w[0], w[1])
		if got := f.Select(w[0], w[1], nil); !slices.Equal(got, want) {
			t.Fatalf("%q Select[%d,%d): %d rows, want %d", expr, w[0], w[1], len(got), len(want))
		}
		prefix := []int32{-7, 3, -7}
		got := f.Select(w[0], w[1], slices.Clone(prefix))
		if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("%q Select[%d,%d) into a non-empty buffer lost its prefix or rows", expr, w[0], w[1])
		}
		all := make([]int32, 0, w[1]-w[0])
		for r := w[0]; r < w[1]; r++ {
			all = append(all, int32(r))
		}
		if got := f.Refine(all); !slices.Equal(got, want) {
			t.Fatalf("%q Refine[%d,%d): %d rows, want %d", expr, w[0], w[1], len(got), len(want))
		}
	}
	var strided, wantStrided []int32
	for r := 0; r < n; r += 3 {
		strided = append(strided, int32(r))
		if naiveMatch(db, e.Clauses, r) {
			wantStrided = append(wantStrided, int32(r))
		}
	}
	if got := f.Refine(strided); !slices.Equal(got, wantStrided) {
		t.Fatalf("%q Refine(strided): %d rows, want %d", expr, len(got), len(wantStrided))
	}
}

// TestStagesMatchNaiveEvaluator crosses every field with every operator it
// accepts and the edge literals of stageLiterals, then runs conjunctions
// mixing direct, gathered and constant clauses.
func TestStagesMatchNaiveEvaluator(t *testing.T) {
	db := testDB(t)
	for field, lits := range stageLiterals(db) {
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		if fieldTable[field] == fieldString {
			ops = ops[:2]
		}
		for _, lit := range lits {
			for _, op := range ops {
				expr := field + op + "'" + lit + "'"
				if fieldTable[field] != fieldString {
					expr = field + op + lit
				}
				t.Run(expr, func(t *testing.T) { checkSelect(t, db, expr) })
			}
		}
	}
	for _, expr := range []string{
		"sourcecountry=US and tone<0",
		"delay>2 and sourcecountry=US and quarter>=" + db.QuarterLabel(1),
		"delay>1 and confidence>=20",
		"tone<0 and sourcecountry=UK and eventcountry!=US and articles>=3",
		"delay>9223372036854775807 and tone<0",
		"tone!=NaN and source!=nosuch.example and doclen>=0",
		"eventcountry!=US and eventcountry!=UK",
	} {
		t.Run(expr, func(t *testing.T) { checkSelect(t, db, expr) })
	}
}

// TestStagesUntaggedEvents pins eventcountry's != over untagged events
// (country -1): they pass != for every country and = for none.
func TestStagesUntaggedEvents(t *testing.T) {
	db := testDB(t)
	untagged := 0
	for _, r := range db.Mentions.EventRow {
		if db.Events.Country[r] < 0 {
			untagged++
		}
	}
	if untagged == 0 {
		t.Skip("world has no mention of an untagged event")
	}
	f, err := Compile(db, "eventcountry!=US")
	if err != nil {
		t.Fatal(err)
	}
	sel := f.Select(0, db.Mentions.Len(), nil)
	passed := 0
	for _, r := range sel {
		if db.Events.Country[db.Mentions.EventRow[r]] < 0 {
			passed++
		}
	}
	if passed != untagged {
		t.Fatalf("eventcountry!=US kept %d of %d untagged mentions", passed, untagged)
	}
}
