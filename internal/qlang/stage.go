package qlang

import (
	"math"
	"slices"
)

// Typed batch stages: the evaluation form of a bound clause. Each stage
// tests one column shape in a tight loop over a window or a selection
// vector, with no per-row call:
//
//   - colStage: a direct integer column (delay, doclen, interval, source:
//     int32; confidence: int8);
//   - gatherStage: an integer lookup table gathered through an int32
//     column, lut[idx[row]] (sourcecountry, eventcountry, articles,
//     quarter);
//   - floatStage: the float32 tone column, compared in float64.
//
// Integer tests are one unsigned compare, uint32(v-lo) <= width, against
// the clause's range clamped to the element type. Every stage writes the
// row unconditionally and advances the output cursor by the outcome
// (buf[k] = r; k += pass): a predicate near 50 % selectivity, such as
// tone<0, would mispredict a data-dependent branch on every other row.

// stage is one compiled clause.
type stage interface {
	// sel appends the rows of [lo, hi) that pass to out.
	sel(lo, hi int, out []int32) []int32
	// refine narrows sel in place to the rows that pass.
	refine(sel []int32) []int32
	// gathered reports whether the stage reads through a lookup table.
	gathered() bool
}

// intElem is an integer column or lookup-table element.
type intElem interface {
	int8 | int16 | int32
}

// elemBounds returns the value range of T.
func elemBounds[T intElem]() (lo, hi int64) {
	switch any(T(0)).(type) {
	case int8:
		return math.MinInt8, math.MaxInt8
	case int16:
		return math.MinInt16, math.MaxInt16
	}
	return math.MinInt32, math.MaxInt32
}

// b2i converts a comparison outcome to 0/1 without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// grow extends out by m writable elements and returns it with the
// extension as buf.
func grow(out []int32, m int) (ext, buf []int32) {
	n := len(out)
	ext = slices.Grow(out, m)[:n+m]
	return ext, ext[n:]
}

// intTest is a span clamped to an element type: v passes when
// uint32(int32(v)-lo) <= width, xor neg.
type intTest struct {
	lo    int32
	width uint32
	neg   int
}

// intTestOf clamps sp to T; a nil test means the outcome is constant.
func intTestOf[T intElem](sp span) (t *intTest, pass bool) {
	c, constant, pass := sp.clamp(elemBounds[T]())
	if constant {
		return nil, pass
	}
	return &intTest{lo: int32(c.lo), width: uint32(c.hi - c.lo), neg: b2i(c.neg)}, false
}

// colStage tests a direct integer column.
type colStage[T intElem] struct {
	col []T
	intTest
}

func colStageOf[T intElem](col []T, sp span) (stage, bool) {
	t, pass := intTestOf[T](sp)
	if t == nil {
		return nil, pass
	}
	return &colStage[T]{col, *t}, false
}

func (s *colStage[T]) gathered() bool { return false }

func (s *colStage[T]) sel(lo, hi int, out []int32) []int32 {
	out, buf := grow(out, hi-lo)
	k := 0
	for i, v := range s.col[lo:hi] {
		buf[k] = int32(lo + i)
		k += b2i(uint32(int32(v)-s.lo) <= s.width) ^ s.neg
	}
	return out[:len(out)-len(buf)+k]
}

func (s *colStage[T]) refine(sel []int32) []int32 {
	k := 0
	for _, r := range sel {
		sel[k] = r
		k += b2i(uint32(int32(s.col[r])-s.lo) <= s.width) ^ s.neg
	}
	return sel[:k]
}

// gatherStage tests an integer lookup table read through an int32 column.
type gatherStage[L intElem] struct {
	idx []int32
	lut []L
	intTest
}

func gatherStageOf[L intElem](idx []int32, lut []L, sp span) (stage, bool) {
	t, pass := intTestOf[L](sp)
	if t == nil {
		return nil, pass
	}
	return &gatherStage[L]{idx, lut, *t}, false
}

func (s *gatherStage[L]) gathered() bool { return true }

func (s *gatherStage[L]) sel(lo, hi int, out []int32) []int32 {
	out, buf := grow(out, hi-lo)
	lut, k := s.lut, 0
	for i, j := range s.idx[lo:hi] {
		buf[k] = int32(lo + i)
		k += b2i(uint32(int32(lut[j])-s.lo) <= s.width) ^ s.neg
	}
	return out[:len(out)-len(buf)+k]
}

func (s *gatherStage[L]) refine(sel []int32) []int32 {
	idx, lut, k := s.idx, s.lut, 0
	for _, r := range sel {
		sel[k] = r
		k += b2i(uint32(int32(lut[idx[r]])-s.lo) <= s.width) ^ s.neg
	}
	return sel[:k]
}

// floatStage tests the float32 tone column against an inclusive float64
// range: v passes when lo <= float64(v) <= hi, xor neg. A NaN value is in
// no range, so it fails every operator but != — exactly as comparing in
// float64 does.
type floatStage struct {
	col    []float32
	lo, hi float64
	neg    int
}

// floatStageOf lowers a float comparison against v to its range: x < v is
// x <= the next float64 below v (x is a float32 widened exactly), and
// x > v is x >= the next one above. A NaN literal makes every operator
// but != false for every row, and != true.
func floatStageOf(col []float32, op Op, v float64) (stage, bool) {
	inf := math.Inf(1)
	s := &floatStage{col: col}
	switch {
	case math.IsNaN(v):
		return nil, op == OpNe
	case op == OpEq || op == OpNe:
		s.lo, s.hi, s.neg = v, v, b2i(op == OpNe)
	case op == OpLt:
		if v == -inf {
			return nil, false
		}
		s.lo, s.hi = -inf, math.Nextafter(v, -inf)
	case op == OpLe:
		s.lo, s.hi = -inf, v
	case op == OpGt:
		if v == inf {
			return nil, false
		}
		s.lo, s.hi = math.Nextafter(v, inf), inf
	default:
		s.lo, s.hi = v, inf
	}
	return s, false
}

func (s *floatStage) gathered() bool { return false }

func (s *floatStage) sel(lo, hi int, out []int32) []int32 {
	out, buf := grow(out, hi-lo)
	k := 0
	for i, v := range s.col[lo:hi] {
		x := float64(v)
		buf[k] = int32(lo + i)
		k += (b2i(x >= s.lo) & b2i(x <= s.hi)) ^ s.neg
	}
	return out[:len(out)-len(buf)+k]
}

func (s *floatStage) refine(sel []int32) []int32 {
	k := 0
	for _, r := range sel {
		x := float64(s.col[r])
		sel[k] = r
		k += (b2i(x >= s.lo) & b2i(x <= s.hi)) ^ s.neg
	}
	return sel[:k]
}
