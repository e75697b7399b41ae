package matrix

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestJaccardSets(t *testing.T) {
	a := []int32{1, 2, 3, 4}
	b := []int32{3, 4, 5, 6}
	if got := JaccardSets(a, b); math.Abs(got-2.0/6.0) > 1e-12 {
		t.Fatalf("jaccard %v", got)
	}
	if got := JaccardSets(a, a); got != 1 {
		t.Fatalf("self jaccard %v", got)
	}
	if got := JaccardSets(nil, nil); got != 0 {
		t.Fatalf("empty jaccard %v", got)
	}
	if got := JaccardSets(a, nil); got != 0 {
		t.Fatalf("half-empty jaccard %v", got)
	}
}

func TestIntersectionSize(t *testing.T) {
	if got := IntersectionSize([]int32{1, 3, 5}, []int32{2, 3, 5, 9}); got != 2 {
		t.Fatalf("intersection %d", got)
	}
	if got := IntersectionSize(nil, []int32{1}); got != 0 {
		t.Fatalf("intersection %d", got)
	}
}

func TestJaccardFromPairCountsMatchesSets(t *testing.T) {
	// Three sources with known event sets.
	sets := [][]int32{
		{1, 2, 3, 4, 5},
		{4, 5, 6},
		{7},
	}
	n := len(sets)
	pair := NewInt64(n, n)
	totals := make([]int64, n)
	for i := range sets {
		totals[i] = int64(len(sets[i]))
		for j := range sets {
			pair.Set(i, j, IntersectionSize(sets[i], sets[j]))
		}
	}
	c, err := JaccardFromPairCounts(pair, totals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sets {
		for j := range sets {
			if i == j {
				if c.At(i, j) != 0 {
					t.Fatalf("diagonal (%d,%d) = %v, want 0", i, j, c.At(i, j))
				}
				continue
			}
			want := JaccardSets(sets[i], sets[j])
			if math.Abs(c.At(i, j)-want) > 1e-12 {
				t.Fatalf("c(%d,%d) = %v want %v", i, j, c.At(i, j), want)
			}
		}
	}
	if !c.IsSymmetric(1e-15) {
		t.Fatal("co-reporting matrix must be symmetric")
	}
}

func TestJaccardFromPairCountsErrors(t *testing.T) {
	if _, err := JaccardFromPairCounts(NewInt64(2, 3), []int64{1, 2}); err == nil {
		t.Fatal("non-square should fail")
	}
	if _, err := JaccardFromPairCounts(NewInt64(2, 2), []int64{1}); err == nil {
		t.Fatal("totals mismatch should fail")
	}
}

func TestJaccardSetsPropertyAgainstMaps(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		amap := map[int32]bool{}
		bmap := map[int32]bool{}
		for _, v := range ra {
			amap[int32(v)] = true
		}
		for _, v := range rb {
			bmap[int32(v)] = true
		}
		var a, b []int32
		for v := range amap {
			a = append(a, v)
		}
		for v := range bmap {
			b = append(b, v)
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		var inter, union int
		for v := range amap {
			if bmap[v] {
				inter++
			}
		}
		union = len(amap) + len(bmap) - inter
		want := 0.0
		if union > 0 {
			want = float64(inter) / float64(union)
		}
		return math.Abs(JaccardSets(a, b)-want) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// JaccardSets computes the Jaccard index of two ascending-sorted int32 sets
// by a linear merge: the reference JaccardFromPairCounts is checked against.
func JaccardSets(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	var inter int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// IntersectionSize returns |a ∩ b| for ascending-sorted int32 sets.
func IntersectionSize(a, b []int32) int64 {
	var inter int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return inter
}
