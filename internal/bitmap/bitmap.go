// Package bitmap implements roaring-style compressed bitmaps over int32 row
// ids: the row space is split into 2^16-row chunks and each non-empty chunk
// is stored in whichever of three container representations is smallest —
// a sorted uint16 array (sparse chunks), a 1024-word bitset (dense chunks),
// or a list of (start, last) runs (contiguous chunks). This is the predicate
// layer behind the store's per-dictionary-value postings (DESIGN.md §12):
// selections become container-wise unions and intersections instead of
// row-list merges, and cardinalities are O(1) per container, which is what
// lets the query planner estimate selectivity without touching row data.
//
// Bitmaps built by FromSorted and the set operations are canonical: a given
// row set always has exactly one representation (and therefore exactly one
// encoding — so a postings bitmap an append carried over from the previous
// tail equals, structurally, the one a rebuild makes). Containers are immutable
// once built; set operations share container memory with their inputs
// rather than copying, so results must be treated as read-only, like the
// store's postings slices.
package bitmap

import (
	"fmt"
	"math/bits"
	"slices"
)

const (
	chunkBits = 16
	// chunkSize is the number of rows one container covers.
	chunkSize = 1 << chunkBits
	// arrayMax is the largest cardinality stored as a sorted uint16 array;
	// past it a bitset (8 KiB) is smaller than the array (2 bytes/row).
	arrayMax = chunkSize / 16
	// bitsetWords is the fixed word count of a bitset container.
	bitsetWords = chunkSize / 64
	// maxChunk keeps every representable row inside the int32 domain.
	maxChunk = 1<<15 - 1
)

// Container types, also the on-disk type tags of the codec.
const (
	typeArray  = 1
	typeBitset = 2
	typeRun    = 3
)

// container is one chunk's row set. Exactly one of arr/bits is populated:
// typeArray keeps sorted low-16 values in arr, typeRun keeps (start, last)
// pairs flattened into arr, typeBitset keeps the 1024-word bitset in bits.
type container struct {
	typ  uint8
	card int32
	arr  []uint16
	bits []uint64
}

// Bitmap is a compressed set of int32 row ids. The zero value is empty and
// ready to use.
type Bitmap struct {
	keys []uint16 // chunk indices, strictly ascending
	cs   []container
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// runsInSorted counts the maximal consecutive runs of an ascending value
// slice.
func runsInSorted(vals []uint16) int {
	if len(vals) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1]+1 {
			runs++
		}
	}
	return runs
}

// runsInBits counts the runs of a bitset: a run starts at every set bit
// whose predecessor is clear, so it is popcount(b &^ (b << 1)) with the
// carry of the previous word's top bit.
func runsInBits(words []uint64) int {
	runs := 0
	var carry uint64 // top bit of the previous word
	for _, w := range words {
		runs += bits.OnesCount64(w &^ (w<<1 | carry))
		carry = w >> 63
	}
	return runs
}

// canonType picks the canonical representation for a chunk of the given
// cardinality and run count: the smallest encoding, ties broken
// deterministically (run beats array beats bitset).
func canonType(card, runs int) uint8 {
	runBytes := 4 * runs
	arrBytes := 2 * card
	switch {
	case runBytes <= arrBytes && runBytes < 8*bitsetWords:
		return typeRun
	case card <= arrayMax:
		return typeArray
	default:
		return typeBitset
	}
}

// fromValues builds the canonical container for an ascending, duplicate-free
// value slice. The slice is copied when kept.
func fromValues(vals []uint16) container {
	card := len(vals)
	switch canonType(card, runsInSorted(vals)) {
	case typeRun:
		runs := make([]uint16, 0, 8)
		start := vals[0]
		prev := vals[0]
		for _, v := range vals[1:] {
			if v != prev+1 {
				runs = append(runs, start, prev)
				start = v
			}
			prev = v
		}
		runs = append(runs, start, prev)
		return container{typ: typeRun, card: int32(card), arr: runs}
	case typeArray:
		return container{typ: typeArray, card: int32(card), arr: append([]uint16(nil), vals...)}
	default:
		words := make([]uint64, bitsetWords)
		for _, v := range vals {
			words[v>>6] |= 1 << (v & 63)
		}
		return container{typ: typeBitset, card: int32(card), bits: words}
	}
}

// fromBits builds the canonical container for a scratch bitset; words is
// consumed (kept or discarded) and must not be reused by the caller.
func fromBits(words []uint64) (container, bool) {
	card := 0
	for _, w := range words {
		card += bits.OnesCount64(w)
	}
	if card == 0 {
		return container{}, false
	}
	switch canonType(card, runsInBits(words)) {
	case typeBitset:
		return container{typ: typeBitset, card: int32(card), bits: words}, true
	default:
		vals := make([]uint16, 0, card)
		for wi, w := range words {
			base := uint16(wi << 6)
			for w != 0 {
				vals = append(vals, base+uint16(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		return fromValues(vals), true
	}
}

// contains reports whether the container holds v.
func (c *container) contains(v uint16) bool {
	switch c.typ {
	case typeArray:
		lo, hi := 0, len(c.arr)
		for lo < hi {
			mid := (lo + hi) / 2
			if c.arr[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(c.arr) && c.arr[lo] == v
	case typeRun:
		for i := 0; i < len(c.arr); i += 2 {
			if v < c.arr[i] {
				return false
			}
			if v <= c.arr[i+1] {
				return true
			}
		}
		return false
	case typeBitset:
		return c.bits[v>>6]&(1<<(v&63)) != 0
	}
	return false
}

// toBits expands the container into dst (a bitsetWords-long scratch slice,
// zeroed by the caller).
func (c *container) toBits(dst []uint64) {
	switch c.typ {
	case typeArray:
		for _, v := range c.arr {
			dst[v>>6] |= 1 << (v & 63)
		}
	case typeRun:
		for i := 0; i < len(c.arr); i += 2 {
			for v := int(c.arr[i]); v <= int(c.arr[i+1]); v++ {
				dst[v>>6] |= 1 << (v & 63)
			}
		}
	case typeBitset:
		copy(dst, c.bits)
	}
}

// orInto ORs the container into dst (a bitsetWords-long accumulator that
// may already hold bits — unlike toBits, whose bitset case overwrites).
func (c *container) orInto(dst []uint64) {
	if c.typ == typeBitset {
		for w, v := range c.bits {
			dst[w] |= v
		}
		return
	}
	c.toBits(dst)
}

// appendRows appends the container's rows (offset by base) to dst with
// direct per-representation loops — the extraction inner loop of the
// ad-hoc pushdown and FollowReport's candidate events, kept free of
// per-value closure calls.
func (c *container) appendRows(base int32, dst []int32) []int32 {
	switch c.typ {
	case typeArray:
		for _, v := range c.arr {
			dst = append(dst, base|int32(v))
		}
	case typeRun:
		for i := 0; i < len(c.arr); i += 2 {
			for v := int32(c.arr[i]); v <= int32(c.arr[i+1]); v++ {
				dst = append(dst, base|v)
			}
		}
	case typeBitset:
		for wi, w := range c.bits {
			wordBase := base | int32(wi<<6)
			for w != 0 {
				dst = append(dst, wordBase|int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
	return dst
}

// FromSorted builds a bitmap from an ascending row list (duplicates
// collapse). Postings lists are already ascending, so this is the store's
// O(n) construction path. Rows must be non-negative.
func FromSorted(rows []int32) *Bitmap {
	b := &Bitmap{}
	// Most postings of a small store (an append-log tail) are short or
	// empty; do not pay a container-sized scratch buffer for each.
	vals := make([]uint16, 0, min(len(rows), chunkSize/8))
	var key uint16
	flush := func() {
		if len(vals) > 0 {
			b.keys = append(b.keys, key)
			b.cs = append(b.cs, fromValues(vals))
			vals = vals[:0]
		}
	}
	prev := int32(-1)
	for _, r := range rows {
		if r < prev {
			panic(fmt.Sprintf("bitmap: FromSorted input not ascending (%d after %d)", r, prev))
		}
		if r == prev {
			continue
		}
		prev = r
		k := uint16(r >> chunkBits)
		if len(vals) > 0 && k != key {
			flush()
		}
		key = k
		vals = append(vals, uint16(r&(chunkSize-1)))
	}
	flush()
	return b
}

// Cardinality returns the number of set rows in O(containers).
func (b *Bitmap) Cardinality() int64 {
	if b == nil {
		return 0
	}
	var n int64
	for i := range b.cs {
		n += int64(b.cs[i].card)
	}
	return n
}

// AppendRows appends every set row to dst in ascending order and returns
// the extended slice — the bitmap-pruned row extraction of the ad-hoc
// pushdown path.
func (b *Bitmap) AppendRows(dst []int32) []int32 {
	if b == nil {
		return dst
	}
	for ci := range b.cs {
		dst = b.cs[ci].appendRows(int32(b.keys[ci])<<chunkBits, dst)
	}
	return dst
}

// Union returns a ∪ b. Inputs are never modified; the result may share
// container memory with them.
func Union(a, b *Bitmap) *Bitmap {
	if a == nil || len(a.cs) == 0 {
		if b == nil {
			return New()
		}
		return b
	}
	if b == nil || len(b.cs) == 0 {
		return a
	}
	out := &Bitmap{keys: make([]uint16, 0, len(a.keys)+len(b.keys))}
	out.cs = make([]container, 0, cap(out.keys))
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			out.keys = append(out.keys, a.keys[i])
			out.cs = append(out.cs, a.cs[i])
			i++
		case a.keys[i] > b.keys[j]:
			out.keys = append(out.keys, b.keys[j])
			out.cs = append(out.cs, b.cs[j])
			j++
		default:
			out.keys = append(out.keys, a.keys[i])
			out.cs = append(out.cs, unionContainers(&a.cs[i], &b.cs[j]))
			i++
			j++
		}
	}
	out.keys = append(out.keys, a.keys[i:]...)
	out.cs = append(out.cs, a.cs[i:]...)
	out.keys = append(out.keys, b.keys[j:]...)
	out.cs = append(out.cs, b.cs[j:]...)
	return out
}

func unionContainers(x, y *container) container {
	if x.typ == typeArray && y.typ == typeArray && int(x.card)+int(y.card) <= arrayMax {
		merged := make([]uint16, 0, x.card+y.card)
		i, j := 0, 0
		for i < len(x.arr) && j < len(y.arr) {
			switch {
			case x.arr[i] < y.arr[j]:
				merged = append(merged, x.arr[i])
				i++
			case x.arr[i] > y.arr[j]:
				merged = append(merged, y.arr[j])
				j++
			default:
				merged = append(merged, x.arr[i])
				i++
				j++
			}
		}
		merged = append(merged, x.arr[i:]...)
		merged = append(merged, y.arr[j:]...)
		return fromValues(merged)
	}
	words := make([]uint64, bitsetWords)
	x.toBits(words)
	scratch := make([]uint64, bitsetWords)
	y.toBits(scratch)
	for w := range words {
		words[w] |= scratch[w]
	}
	c, _ := fromBits(words)
	return c
}

// UnionAll returns the union of every bitmap in bs. Unlike a fold of
// pairwise Union calls — which rebuilds the ever-denser accumulator once
// per input — each chunk is accumulated once in a word-parallel bitset
// scratch and canonicalized once, so the cost is O(inputs × words) machine
// words regardless of how dense the accumulator gets. This is the
// selection-union primitive of the selection queries, where the inputs are
// the per-source postings bitmaps of a panel.
func UnionAll(bs []*Bitmap) *Bitmap {
	live := make([]*Bitmap, 0, len(bs))
	for _, b := range bs {
		if b != nil && len(b.cs) > 0 {
			live = append(live, b)
		}
	}
	switch len(live) {
	case 0:
		return New()
	case 1:
		return live[0]
	case 2:
		return Union(live[0], live[1])
	}
	out := &Bitmap{}
	pos := make([]int, len(live))
	for {
		key, n := -1, 0
		for i, b := range live {
			if pos[i] == len(b.keys) {
				continue
			}
			switch k := int(b.keys[pos[i]]); {
			case key < 0 || k < key:
				key, n = k, 1
			case k == key:
				n++
			}
		}
		if key < 0 {
			return out
		}
		var c container
		if n == 1 {
			for i, b := range live {
				if pos[i] < len(b.keys) && int(b.keys[pos[i]]) == key {
					c = b.cs[pos[i]] // sole owner: share the container
					pos[i]++
				}
			}
		} else {
			words := make([]uint64, bitsetWords)
			for i, b := range live {
				if pos[i] < len(b.keys) && int(b.keys[pos[i]]) == key {
					b.cs[pos[i]].orInto(words)
					pos[i]++
				}
			}
			c, _ = fromBits(words)
		}
		out.keys = append(out.keys, uint16(key))
		out.cs = append(out.cs, c)
	}
}

// AtLeastTwo returns the set of rows present in two or more of the input
// bitmaps — equivalently the union of all pairwise intersections, computed
// in one O(inputs × words) pass with a seen/duplicate word pair instead of
// O(inputs²) intersections. FollowReport uses it to find events where two
// distinct selected sources co-occur.
func AtLeastTwo(bs []*Bitmap) *Bitmap {
	live := make([]*Bitmap, 0, len(bs))
	for _, b := range bs {
		if b != nil && len(b.cs) > 0 {
			live = append(live, b)
		}
	}
	out := &Bitmap{}
	if len(live) < 2 {
		return out
	}
	pos := make([]int, len(live))
	seen := make([]uint64, bitsetWords)
	scratch := make([]uint64, bitsetWords)
	for {
		key, n := -1, 0
		for i, b := range live {
			if pos[i] == len(b.keys) {
				continue
			}
			switch k := int(b.keys[pos[i]]); {
			case key < 0 || k < key:
				key, n = k, 1
			case k == key:
				n++
			}
		}
		if key < 0 {
			return out
		}
		if n == 1 {
			for i, b := range live {
				if pos[i] < len(b.keys) && int(b.keys[pos[i]]) == key {
					pos[i]++ // a chunk no other input shares has no duplicates
				}
			}
			continue
		}
		for w := range seen {
			seen[w] = 0
		}
		dup := make([]uint64, bitsetWords)
		for i, b := range live {
			if pos[i] < len(b.keys) && int(b.keys[pos[i]]) == key {
				for w := range scratch {
					scratch[w] = 0
				}
				b.cs[pos[i]].orInto(scratch)
				for w, v := range scratch {
					dup[w] |= seen[w] & v
					seen[w] |= v
				}
				pos[i]++
			}
		}
		if c, ok := fromBits(dup); ok {
			out.keys = append(out.keys, uint16(key))
			out.cs = append(out.cs, c)
		}
	}
}

// PairwiseIntersectCards returns the symmetric matrix m[i][j] = |bs[i] ∩
// bs[j]| (diagonal zero). Rather than k² pairwise merges — quadratic in
// container cardinalities when the inputs are arrays — each input's chunk
// is expanded once into a bitset scratch and every pair is then a
// word-AND-popcount pass, so the cost is O(k·words + k²·words) machine
// words per shared chunk. This is the whole co-reporting pair matrix when
// the inputs are the selection's event bitmaps.
func PairwiseIntersectCards(bs []*Bitmap) [][]int64 {
	k := len(bs)
	m := make([][]int64, k)
	for i := range m {
		m[i] = make([]int64, k)
	}
	pos := make([]int, k)
	words := make([][]uint64, k)
	present := make([]int, 0, k)
	for {
		key, n := -1, 0
		for i, b := range bs {
			if b == nil || pos[i] == len(b.keys) {
				continue
			}
			switch ck := int(b.keys[pos[i]]); {
			case key < 0 || ck < key:
				key, n = ck, 1
			case ck == key:
				n++
			}
		}
		if key < 0 {
			return m
		}
		present = present[:0]
		for i, b := range bs {
			if b == nil || pos[i] == len(b.keys) || int(b.keys[pos[i]]) != key {
				continue
			}
			if n >= 2 {
				if words[i] == nil {
					words[i] = make([]uint64, bitsetWords)
				} else {
					for w := range words[i] {
						words[i][w] = 0
					}
				}
				b.cs[pos[i]].orInto(words[i])
				present = append(present, i)
			}
			pos[i]++
		}
		for a := 0; a < len(present); a++ {
			for b := a + 1; b < len(present); b++ {
				i, j := present[a], present[b]
				var c int64
				wi, wj := words[i], words[j]
				for w, v := range wi {
					c += int64(bits.OnesCount64(v & wj[w]))
				}
				m[i][j] += c
				m[j][i] += c
			}
		}
	}
}

// Intersect returns a ∩ b.
func Intersect(a, b *Bitmap) *Bitmap {
	out := New()
	if a == nil || b == nil {
		return out
	}
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			if c, ok := intersectContainers(&a.cs[i], &b.cs[j]); ok {
				out.keys = append(out.keys, a.keys[i])
				out.cs = append(out.cs, c)
			}
			i++
			j++
		}
	}
	return out
}

func intersectContainers(x, y *container) (container, bool) {
	if y.typ == typeArray && x.typ != typeArray {
		x, y = y, x
	}
	if x.typ == typeArray {
		vals := make([]uint16, 0, x.card)
		if y.typ == typeArray {
			i, j := 0, 0
			for i < len(x.arr) && j < len(y.arr) {
				switch {
				case x.arr[i] < y.arr[j]:
					i++
				case x.arr[i] > y.arr[j]:
					j++
				default:
					vals = append(vals, x.arr[i])
					i++
					j++
				}
			}
		} else {
			for _, v := range x.arr {
				if y.contains(v) {
					vals = append(vals, v)
				}
			}
		}
		if len(vals) == 0 {
			return container{}, false
		}
		return fromValues(vals), true
	}
	words := make([]uint64, bitsetWords)
	x.toBits(words)
	scratch := make([]uint64, bitsetWords)
	y.toBits(scratch)
	for w := range words {
		words[w] &= scratch[w]
	}
	return fromBits(words)
}

// Equal reports whether a and b hold the same row set. Canonical
// representations make this a structural comparison.
func Equal(a, b *Bitmap) bool {
	if a == nil {
		a = New()
	}
	if b == nil {
		b = New()
	}
	if len(a.cs) != len(b.cs) {
		return false
	}
	for i := range a.cs {
		if a.keys[i] != b.keys[i] || a.cs[i].card != b.cs[i].card {
			return false
		}
		x, y := &a.cs[i], &b.cs[i]
		if x.typ != y.typ || !slices.Equal(x.arr, y.arr) || !slices.Equal(x.bits, y.bits) {
			return false
		}
	}
	return true
}
