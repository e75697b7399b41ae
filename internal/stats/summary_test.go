package stats

import (
	"math"
	"testing"
)

func TestIntSummary(t *testing.T) {
	var s IntSummary
	if !math.IsNaN(s.Mean()) {
		t.Fatal("empty int summary mean should be NaN")
	}
	for _, x := range []int64{10, -2, 7} {
		s.Add(x)
	}
	if s.N != 3 || s.Min != -2 || s.Max != 10 || s.Sum != 15 {
		t.Fatalf("summary %+v", s)
	}
}
