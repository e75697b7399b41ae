package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	one := []float64{42}
	for _, q := range []float64{0, 0.5, 1} {
		if Quantile(one, q) != 42 {
			t.Fatalf("single-element quantile q=%v", q)
		}
	}
	xs := []float64{1, 2, 3, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatal("extreme quantiles should be min/max")
	}
	if got := Quantile(xs, 0.5); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 4 {
		t.Fatal("out-of-range q should clamp")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := Quantile(xs, 0.25); math.Abs(got-20) > 1e-12 {
		t.Fatalf("q25 = %v want 20", got)
	}
	if got := Quantile(xs, 0.1); math.Abs(got-14) > 1e-12 {
		t.Fatalf("q10 = %v want 14", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Median(xs); got != 2 {
		t.Fatalf("median %v", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Median mutated its input")
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("empty median should be NaN")
	}
}

func TestMedianInt64LowerMedian(t *testing.T) {
	if got := MedianInt64([]int64{5, 1, 3}); got != 3 {
		t.Fatalf("odd median %d", got)
	}
	if got := MedianInt64([]int64{4, 1, 3, 2}); got != 2 {
		t.Fatalf("even lower median %d, want 2", got)
	}
	if got := MedianInt64(nil); got != 0 {
		t.Fatalf("empty median %d", got)
	}
}

func TestCountingMedianMatchesMedianInt64(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return CountingMedian(nil, 0) == 0
		}
		counts := make([]int64, 256)
		vals := make([]int64, len(raw))
		for i, v := range raw {
			counts[v]++
			vals[i] = int64(v)
		}
		return CountingMedian(counts, int64(len(raw))) == MedianInt64(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
