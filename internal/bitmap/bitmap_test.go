package bitmap

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refSet is the naive []uint64 bitset the battery cross-checks against:
// one bit per row over the whole domain, with the obvious O(domain) ops.
type refSet struct {
	words []uint64
	n     int32 // domain size (rows are in [0, n))
}

func newRef(n int32) *refSet { return &refSet{words: make([]uint64, (n+63)/64), n: n} }

func (r *refSet) add(row int32)      { r.words[row>>6] |= 1 << (row & 63) }
func (r *refSet) has(row int32) bool { return r.words[row>>6]&(1<<(row&63)) != 0 }
func (r *refSet) union(o *refSet) *refSet {
	out := newRef(r.n)
	for i := range out.words {
		out.words[i] = r.words[i] | o.words[i]
	}
	return out
}
func (r *refSet) intersect(o *refSet) *refSet {
	out := newRef(r.n)
	for i := range out.words {
		out.words[i] = r.words[i] & o.words[i]
	}
	return out
}
func (r *refSet) difference(o *refSet) *refSet {
	out := newRef(r.n)
	for i := range out.words {
		out.words[i] = r.words[i] &^ o.words[i]
	}
	return out
}
func (r *refSet) rows() []int32 {
	var out []int32
	for i := int32(0); i < r.n; i++ {
		if r.has(i) {
			out = append(out, i)
		}
	}
	return out
}
func (r *refSet) rank(row int32) int64 {
	var n int64
	for i := int32(0); i <= row && i < r.n; i++ {
		if r.has(i) {
			n++
		}
	}
	return n
}

// genRef draws a random row set designed to hit every container shape:
// sparse scatters (array), dense blocks past the 4096 promotion point
// (bitset), contiguous spans (run), and values hugging chunk boundaries.
func genRef(rng *rand.Rand, domain int32) *refSet {
	r := newRef(domain)
	// Sparse scatter.
	for i, n := 0, rng.Intn(400); i < n; i++ {
		r.add(rng.Int31n(domain))
	}
	// Contiguous runs (run containers).
	for i, n := 0, rng.Intn(4); i < n; i++ {
		start := rng.Int31n(domain)
		length := rng.Int31n(3000) + 1
		for v := start; v < start+length && v < domain; v++ {
			r.add(v)
		}
	}
	// A dense block that crosses the array→bitset promotion threshold.
	if rng.Intn(2) == 0 {
		base := rng.Int31n(domain)
		for i, n := int32(0), int32(arrayMax+500); i < n; i++ {
			v := base + i*3
			if v >= domain {
				break
			}
			r.add(v)
		}
	}
	// Chunk-boundary values.
	for _, v := range []int32{0, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize - 1, 2 * chunkSize} {
		if v < domain && rng.Intn(2) == 0 {
			r.add(v)
		}
	}
	return r
}

func fromRef(t *testing.T, r *refSet) *Bitmap {
	t.Helper()
	return FromSorted(r.rows())
}

func checkRows(t *testing.T, tag string, b *Bitmap, want []int32) {
	t.Helper()
	got := b.AppendRows(nil)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row[%d] = %d, want %d", tag, i, got[i], want[i])
		}
	}
	if b.Cardinality() != int64(len(want)) {
		t.Fatalf("%s: cardinality %d, want %d", tag, b.Cardinality(), len(want))
	}
}

// TestBitmapAgainstReference is the property battery: randomized sets built
// through FromSorted and Add, every operation cross-checked bit-exactly
// against the naive bitset reference.
func TestBitmapAgainstReference(t *testing.T) {
	const domain = 3 * chunkSize // three chunks, so boundary cases repeat
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ra, rb := genRef(rng, domain), genRef(rng, domain)
		a, b := fromRef(t, ra), fromRef(t, rb)
		checkRows(t, "a", a, ra.rows())
		checkRows(t, "b", b, rb.rows())

		// Add in shuffled order must converge to the same set.
		rows := ra.rows()
		perm := rng.Perm(len(rows))
		inc := New()
		for _, i := range perm {
			inc.Add(rows[i])
		}
		inc.Add(rows[len(rows)/2]) // duplicate adds are no-ops
		if !Equal(inc, a) {
			t.Fatalf("seed %d: incremental Add disagrees with FromSorted", seed)
		}
		checkRows(t, "inc", inc, rows)

		checkRows(t, "union", Union(a, b), ra.union(rb).rows())
		checkRows(t, "intersect", Intersect(a, b), ra.intersect(rb).rows())
		checkRows(t, "difference", Difference(a, b), ra.difference(rb).rows())

		// Algebraic identities (metamorphic checks).
		if !Equal(Union(Intersect(a, b), Difference(a, b)), a) {
			t.Fatalf("seed %d: (a∩b) ∪ (a\\b) != a", seed)
		}
		if !Equal(Difference(a, Difference(a, b)), Intersect(a, b)) {
			t.Fatalf("seed %d: a \\ (a\\b) != a∩b", seed)
		}
		if !Equal(Union(a, b), Union(b, a)) {
			t.Fatalf("seed %d: union not commutative", seed)
		}

		// Multi-way operations against the reference: UnionAll and
		// AtLeastTwo over a small family, IntersectCard vs the materialized
		// intersection.
		rc := genRef(rng, domain)
		c := fromRef(t, rc)
		family := []*Bitmap{a, b, c, nil, New()}
		checkRows(t, "unionAll", UnionAll(family), ra.union(rb).union(rc).rows())
		if got, want := IntersectCard(a, b), Intersect(a, b).Cardinality(); got != want {
			t.Fatalf("seed %d: IntersectCard = %d, want %d", seed, got, want)
		}
		// AtLeastTwo == union of pairwise intersections.
		pairwise := ra.intersect(rb).union(ra.intersect(rc)).union(rb.intersect(rc))
		checkRows(t, "atLeastTwo", AtLeastTwo(family), pairwise.rows())
		if got := AtLeastTwo([]*Bitmap{a, nil}); got.Cardinality() != 0 {
			t.Fatalf("seed %d: AtLeastTwo of one live input returned %d rows", seed, got.Cardinality())
		}
		if !Equal(UnionAll(family), Union(Union(a, b), c)) {
			t.Fatalf("seed %d: UnionAll disagrees with folded Union", seed)
		}
		cards := PairwiseIntersectCards(family)
		for i, x := range family {
			for j, y := range family {
				want := int64(0)
				if i != j {
					want = Intersect(x, y).Cardinality()
				}
				if cards[i][j] != want {
					t.Fatalf("seed %d: PairwiseIntersectCards[%d][%d] = %d, want %d",
						seed, i, j, cards[i][j], want)
				}
			}
		}

		// Rank / Select / Contains against the reference.
		for i := 0; i < 64; i++ {
			v := rng.Int31n(domain)
			if a.Contains(v) != ra.has(v) {
				t.Fatalf("seed %d: Contains(%d) = %v", seed, v, a.Contains(v))
			}
			if got, want := a.Rank(v), ra.rank(v); got != want {
				t.Fatalf("seed %d: Rank(%d) = %d, want %d", seed, v, got, want)
			}
		}
		for i, want := range rows {
			got, ok := a.Select(int64(i))
			if !ok || got != want {
				t.Fatalf("seed %d: Select(%d) = %d,%v, want %d", seed, i, got, ok, want)
			}
		}
		if _, ok := a.Select(int64(len(rows))); ok {
			t.Fatalf("seed %d: Select past the end succeeded", seed)
		}
		if got := a.Rank(domain - 1); got != int64(len(rows)) {
			t.Fatalf("seed %d: Rank(max) = %d, want %d", seed, got, len(rows))
		}

		// Codec round trip: deterministic bytes, equal decode.
		enc := a.AppendTo(nil)
		if !bytes.Equal(enc, a.AppendTo(nil)) {
			t.Fatalf("seed %d: encoding not deterministic", seed)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !Equal(dec, a) {
			t.Fatalf("seed %d: decode round trip disagrees", seed)
		}
		if !bytes.Equal(dec.AppendTo(nil), enc) {
			t.Fatalf("seed %d: re-encoding decoded bitmap changed bytes", seed)
		}
	}
}

// TestContainerShapes pins the promotion rules: a dense chunk becomes a
// bitset, a contiguous span becomes runs, and both survive the codec.
func TestContainerShapes(t *testing.T) {
	// 5000 scattered values in one chunk: past arrayMax, no long runs.
	var rows []int32
	for i := int32(0); i < 5000; i++ {
		rows = append(rows, i*13%chunkSize)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	b := FromSorted(rows)
	if b.cs[0].typ != typeBitset {
		t.Fatalf("dense scattered chunk stored as type %d, want bitset", b.cs[0].typ)
	}
	// A full contiguous span becomes one run pair.
	span := make([]int32, chunkSize)
	for i := range span {
		span[i] = int32(i)
	}
	r := FromSorted(span)
	if r.cs[0].typ != typeRun || len(r.cs[0].arr) != 2 {
		t.Fatalf("full chunk stored as type %d with %d run words", r.cs[0].typ, len(r.cs[0].arr))
	}
	for _, bm := range []*Bitmap{b, r} {
		dec, err := Decode(bm.AppendTo(nil))
		if err != nil || !Equal(dec, bm) {
			t.Fatalf("shape round trip failed: %v", err)
		}
	}
}

// TestConcurrentReads exercises the read-only contract under -race: one
// shared bitmap read from many goroutines, including set operations that
// share container memory with it.
func TestConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ra, rb := genRef(rng, 2*chunkSize), genRef(rng, 2*chunkSize)
	a, b := FromSorted(ra.rows()), FromSorted(rb.rows())
	want := a.Cardinality()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if a.Cardinality() != want {
					t.Errorf("cardinality changed under concurrent reads")
					return
				}
				_ = a.Contains(int32(g*1000 + i))
				_ = a.Rank(int32(i * 100))
				_ = Union(a, b).AppendRows(nil)
				_ = Intersect(a, b)
				_ = a.AppendTo(nil)
			}
		}(g)
	}
	wg.Wait()
}
