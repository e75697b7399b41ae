package queries

import (
	"math"
	"testing"

	"gdeltmine/internal/gdelt"
)

func TestToneByCountry(t *testing.T) {
	e := testEngine(t)
	series := ToneByCountry(e, []string{"UK", "US", "XX"})
	if len(series) != 3 {
		t.Fatal("series count")
	}
	nq := cachedDB.NumQuarters()
	for _, s := range series[:2] {
		if len(s.Average) != nq || len(s.Count) != nq {
			t.Fatalf("%s: shape", s.Country)
		}
		var total int64
		for q := 0; q < nq; q++ {
			total += s.Count[q]
			if s.Count[q] > 0 && (math.IsNaN(s.Average[q]) || s.Average[q] < -20 || s.Average[q] > 20) {
				t.Fatalf("%s q%d tone %v", s.Country, q, s.Average[q])
			}
			if s.Count[q] == 0 && s.Average[q] != 0 {
				t.Fatalf("%s q%d has tone without articles", s.Country, q)
			}
		}
		if total == 0 {
			t.Fatalf("%s: no articles attributed", s.Country)
		}
	}
	// Unknown country: all zero.
	for q, n := range series[2].Count {
		if n != 0 || series[2].Average[q] != 0 {
			t.Fatal("unknown country should be empty")
		}
	}
}

func TestToneByCountryMatchesSerial(t *testing.T) {
	e := testEngine(t)
	db := cachedDB
	series := ToneByCountry(e, []string{"UK"})
	uk := series[0]
	// Serial recomputation of one quarter.
	const q = 5
	var sum float64
	var n int64
	ukIdx := int32(gdelt.CountryIndex("UK"))
	for row := 0; row < db.Mentions.Len(); row++ {
		if db.SourceCountry[db.Mentions.Source[row]] != ukIdx {
			continue
		}
		if db.QuarterOfInterval(db.Mentions.Interval[row]) != q {
			continue
		}
		sum += float64(db.Mentions.Tone[row])
		n++
	}
	if n != uk.Count[q] {
		t.Fatalf("count %d want %d", uk.Count[q], n)
	}
	if n > 0 && math.Abs(uk.Average[q]-sum/float64(n)) > 1e-9 {
		t.Fatalf("avg %v want %v", uk.Average[q], sum/float64(n))
	}
}
