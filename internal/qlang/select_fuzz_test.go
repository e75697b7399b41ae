package qlang

import (
	"slices"
	"testing"
)

// FuzzFilterSelect pins Compile and Select on arbitrary input over the
// Small world: a parse error is the only way compiling may fail, and the
// rows Select keeps from any window [lo, hi) are exactly the naive
// evaluator's, appended after an existing prefix.
func FuzzFilterSelect(f *testing.F) {
	for _, s := range parseFuzzSeeds() {
		f.Add(s, 0, 1<<20)
	}
	f.Add("sourcecountry=US and tone<0", 100, 5000)
	f.Add("delay<-9223372036854775808 or", 3, 4)
	f.Add("tone!=NaN and eventcountry!=US", 17, 17)
	f.Add("quarter<1999Q1 and articles>=2", -5, 40000)
	f.Fuzz(func(t *testing.T, expr string, lo, hi int) {
		db := testDB(t)
		fl, err := Compile(db, expr)
		if err != nil {
			if _, perr := Parse(expr); perr == nil {
				t.Fatalf("%q parses but does not compile: %v", expr, err)
			}
			return
		}
		e, _ := Parse(expr)
		n := uint(db.Mentions.Len() + 1)
		lo, hi = int(uint(lo)%n), int(uint(hi)%n)
		if lo > hi {
			lo, hi = hi, lo
		}
		got := fl.Select(lo, hi, []int32{-1})
		want := naiveSelect(db, e.Clauses, lo, hi)
		if got[0] != -1 || !slices.Equal(got[1:], want) {
			t.Fatalf("%q over [%d,%d): Select kept %d rows, naive %d", expr, lo, hi, len(got)-1, len(want))
		}
	})
}
