package engine

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/store"
)

var cachedDB *store.DB

func testDB(t testing.TB) *store.DB {
	t.Helper()
	if cachedDB == nil {
		c, err := gen.Generate(gen.Small())
		if err != nil {
			t.Fatal(err)
		}
		res, err := convert.FromCorpus(c)
		if err != nil {
			t.Fatal(err)
		}
		cachedDB = res.DB
	}
	return cachedDB
}

// The kernel tests below pin the engine's scan primitives against serial
// loops: ScanWindow (through the closure helpers at the end of this file,
// the primitive the fused qlang folds run on) and the typed group- and
// cross-count kernels. The generic closure kernels they once exercised are
// references in internal/baseline now, with their own tests there.

func TestCountMentionsMatchesSerial(t *testing.T) {
	db := testDB(t)
	e := New(db)
	pred := func(row int) bool { return db.Mentions.Delay[row] > 96 }
	var want int64
	for row := 0; row < db.Mentions.Len(); row++ {
		if pred(row) {
			want++
		}
	}
	for _, w := range []int{1, 2, 7} {
		if got := countRows(e.WithWorkers(w), pred); got != want {
			t.Fatalf("workers=%d count %d want %d", w, got, want)
		}
	}
}

func TestGroupCountBySource(t *testing.T) {
	db := testDB(t)
	e := New(db)
	got := groupRows(e, db.Sources.Len(), func(row int) int { return int(db.Mentions.Source[row]) })
	want := make([]int64, db.Sources.Len())
	for _, s := range db.Mentions.Source {
		want[s]++
	}
	for s := range want {
		if got[s] != want[s] {
			t.Fatalf("source %d count %d want %d", s, got[s], want[s])
		}
	}
	// Postings agree with the group counts.
	for s := 0; s < db.Sources.Len(); s++ {
		if int64(len(db.SourceMentions(int32(s)))) != want[s] {
			t.Fatalf("postings disagree for source %d", s)
		}
	}
}

func TestGroupCountSkipsNegative(t *testing.T) {
	db := testDB(t)
	e := New(db)
	got := groupRows(e, 1, func(row int) int {
		if db.Mentions.Delay[row] > 10 {
			return -1
		}
		return 0
	})
	var want int64
	for _, d := range db.Mentions.Delay {
		if d <= 10 {
			want++
		}
	}
	if got[0] != want {
		t.Fatalf("count %d want %d", got[0], want)
	}
}

func TestGroupCountEvents(t *testing.T) {
	db := testDB(t)
	e := New(db)
	got := e.GroupCountEventsCol(db.NumQuarters(), db.Events.Interval, db.QuarterLUT(), ColPred{})
	var total int64
	for _, v := range got {
		total += v
	}
	if total != int64(db.Events.Len()) {
		t.Fatalf("event quarter counts sum %d want %d", total, db.Events.Len())
	}
}

func TestCrossCountMatchesSerial(t *testing.T) {
	db := testDB(t)
	e := New(db)
	keys := func(row int) (int, int) {
		ev := db.Mentions.EventRow[row]
		rc := int(db.Events.Country[ev])
		cc := int(db.SourceCountry[db.Mentions.Source[row]])
		return rc, cc
	}
	got := crossCountries(e)
	want := make(map[[2]int]int64)
	for row := 0; row < db.Mentions.Len(); row++ {
		r, c := keys(row)
		if r >= 0 && c >= 0 {
			want[[2]int{r, c}]++
		}
	}
	var checked int
	for rc, n := range want {
		if got.At(rc[0], rc[1]) != n {
			t.Fatalf("cell %v: %d want %d", rc, got.At(rc[0], rc[1]), n)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no tagged cells checked")
	}
	// Worker counts do not change the result.
	for _, w := range []int{1, 3, 16} {
		alt := crossCountries(e.WithWorkers(w))
		for i := range got.Data {
			if alt.Data[i] != got.Data[i] {
				t.Fatalf("workers=%d cell %d differs", w, i)
			}
		}
	}
}

func TestSumByGroup(t *testing.T) {
	db := testDB(t)
	e := New(db)
	got := sumRows(e, db.NumQuarters(), func(row int) (int, float64) {
		return db.QuarterOfInterval(db.Mentions.Interval[row]), float64(db.Mentions.Delay[row])
	})
	want := make([]float64, db.NumQuarters())
	for row := 0; row < db.Mentions.Len(); row++ {
		q := db.QuarterOfInterval(db.Mentions.Interval[row])
		want[q] += float64(db.Mentions.Delay[row])
	}
	for q := range want {
		if diff := got[q] - want[q]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("quarter %d sum %v want %v", q, got[q], want[q])
		}
	}
}

func TestWorkersAccessors(t *testing.T) {
	db := testDB(t)
	e := New(db)
	if e.DB() != db {
		t.Fatal("DB accessor")
	}
	if e.WithWorkers(3).Workers() != 3 {
		t.Fatal("WithWorkers")
	}
	if e.WithWorkers(3).WithWorkers(0).Workers() <= 0 {
		t.Fatal("default workers")
	}
	// WithWorkers must not mutate the receiver.
	e2 := e.WithWorkers(5)
	if e.workers != 0 || e2.workers != 5 {
		t.Fatal("WithWorkers mutated receiver")
	}
}

// TestDerivedViewsNeverMutateParent pins the documented With* contract: every
// mutator copies the receiver by value, so a shared base engine can be
// derived from concurrently (one view per request) without any view
// observing another's settings.
func TestDerivedViewsNeverMutateParent(t *testing.T) {
	db := testDB(t)
	base := New(db)
	snapshot := *base

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	derived := base.
		WithWorkers(7).
		WithKind("country").
		WithContext(ctx).
		WithInterval(0, db.Meta.Intervals/2)

	if *base != snapshot {
		t.Fatalf("derivation mutated the parent: %+v -> %+v", snapshot, *base)
	}
	if base.Kind() != "adhoc" || base.Context() != context.Background() {
		t.Fatal("parent kind/context changed")
	}
	if lo, hi := base.Window(); lo != 0 || hi != db.Mentions.Len() {
		t.Fatal("parent window changed")
	}
	if derived.Workers() != 7 || derived.Kind() != "country" || derived.Context() != ctx {
		t.Fatalf("derived view lost settings: workers=%d kind=%s", derived.Workers(), derived.Kind())
	}
	if derived.WindowSize() >= db.Mentions.Len() {
		t.Fatal("derived window not applied")
	}
	// Sibling derivations are independent of each other too.
	sib := base.WithKind("stats")
	if sib.Workers() != base.Workers() || derived.Kind() != "country" {
		t.Fatal("sibling derivation leaked settings")
	}
}

func TestTopK(t *testing.T) {
	vals := []int64{5, 1, 9, 9, 3, 0, 7}
	got := TopK(vals, 3)
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 6 {
		t.Fatalf("top3 %v", got)
	}
	// k > n returns all, sorted.
	got = TopK(vals, 100)
	if len(got) != len(vals) || got[0] != 2 || got[len(got)-1] != 5 {
		t.Fatalf("topAll %v", got)
	}
	if TopK([]int64(nil), 3) != nil || TopK(vals, 0) != nil {
		t.Fatal("degenerate TopK should be nil")
	}
}

func TestTopKMatchesSortRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(50))
		}
		got := TopK(vals, k)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if vals[idx[a]] != vals[idx[b]] {
				return vals[idx[a]] > vals[idx[b]]
			}
			return idx[a] < idx[b]
		})
		want := idx
		if k < n {
			want = idx[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pos %d got %d want %d (vals %v)", trial, i, got[i], want[i], vals)
			}
		}
	}
}

// countRows counts the window rows satisfying pred through ScanWindow.
func countRows(e *Engine, pred func(row int) bool) int64 {
	return ScanWindow(e, func() int64 { return 0 },
		func(acc int64, lo, hi int) int64 {
			for row := lo; row < hi; row++ {
				if pred(row) {
					acc++
				}
			}
			return acc
		},
		func(dst, src int64) int64 { return dst + src })
}

// groupRows counts the window rows into n groups through ScanWindow;
// groupOf returns a row's group, or a negative value to skip it.
func groupRows(e *Engine, n int, groupOf func(row int) int) []int64 {
	return ScanWindow(e, func() []int64 { return make([]int64, n) },
		func(acc []int64, lo, hi int) []int64 {
			for row := lo; row < hi; row++ {
				if g := groupOf(row); g >= 0 {
					acc[g]++
				}
			}
			return acc
		},
		func(dst, src []int64) []int64 {
			for i, c := range src {
				dst[i] += c
			}
			return dst
		})
}

// sumRows sums keyVal's value of every window row into n groups through
// ScanWindow.
func sumRows(e *Engine, n int, keyVal func(row int) (g int, v float64)) []float64 {
	return ScanWindow(e, func() []float64 { return make([]float64, n) },
		func(acc []float64, lo, hi int) []float64 {
			for row := lo; row < hi; row++ {
				if g, v := keyVal(row); g >= 0 {
					acc[g] += v
				}
			}
			return acc
		},
		func(dst, src []float64) []float64 {
			for i, v := range src {
				dst[i] += v
			}
			return dst
		})
}

// crossCountries is the typed event-country × source-country cross-count
// of the window, over the store's country columns.
func crossCountries(e *Engine) *matrix.Int64 {
	db := e.DB()
	return e.CrossCountRemap(61, 61, db.Mentions.EventRow, db.Events.Country, db.Mentions.Source, db.SourceCountry)
}
