package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogHistogramBuckets(t *testing.T) {
	h := NewLogHistogram(2, 10)
	cases := map[float64]int{0.5: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1 << 20: 9}
	for x, want := range cases {
		if got := h.Bucket(x); got != want {
			t.Fatalf("bucket(%v) = %d want %d", x, got, want)
		}
	}
	h.Add(4)
	h.AddN(4, 2)
	if h.Counts[2] != 3 {
		t.Fatalf("counts %v", h.Counts)
	}
	lo, hi := h.BucketBounds(3)
	if math.Abs(lo-8) > 1e-9 || math.Abs(hi-16) > 1e-9 {
		t.Fatalf("bounds [%v,%v)", lo, hi)
	}
}

func TestLogHistogramPanics(t *testing.T) {
	assertPanics(t, func() { NewLogHistogram(1, 4) })
	assertPanics(t, func() { NewLogHistogram(2, 0) })
}

func TestCountTable(t *testing.T) {
	ct := NewCountTable(100)
	if ct.Median() != -1 || !math.IsNaN(ct.Mean()) {
		t.Fatal("empty table accessors wrong")
	}
	for _, v := range []int64{5, 5, 7, 200, -3} {
		ct.Add(v)
	}
	// 200 clamps to 100, -3 clamps to 0.
	if ct.N != 5 || ct.Counts[0] != 1 || ct.Counts[100] != 1 {
		t.Fatalf("table n=%d counts[0]=%d counts[100]=%d", ct.N, ct.Counts[0], ct.Counts[100])
	}
	if ct.Median() != 5 {
		t.Fatalf("median %d", ct.Median())
	}
	want := (5.0 + 5 + 7 + 100 + 0) / 5
	if got := ct.Mean(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean %v want %v", got, want)
	}
}

func TestCountTableMerge(t *testing.T) {
	a, b := NewCountTable(10), NewCountTable(10)
	a.Add(1)
	b.Add(2)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N != 2 || a.Counts[1] != 1 || a.Counts[2] != 1 {
		t.Fatalf("merged %+v", a)
	}
	c := NewCountTable(11)
	if err := a.Merge(c); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestCountTableMedianProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		ct := NewCountTable(255)
		vals := make([]int64, len(raw))
		for i, v := range raw {
			ct.Add(int64(v))
			vals[i] = int64(v)
		}
		if len(raw) == 0 {
			return ct.Median() == -1
		}
		return ct.Median() == MedianInt64(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
