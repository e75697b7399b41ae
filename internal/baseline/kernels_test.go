package baseline

import (
	"context"
	"sync/atomic"
	"testing"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/store"
)

// The reference closure kernels (kernels.go) against serial loops: worker
// counts, windows and cancellation must not change what they count, since
// every differential battery trusts them.

var cachedKernelDB *store.DB

func kernelDB(t *testing.T) *store.DB {
	t.Helper()
	if cachedKernelDB == nil {
		cachedKernelDB = buildCorpus(t, gen.Small())
	}
	return cachedKernelDB
}

func TestCountMentionsMatchesSerial(t *testing.T) {
	db := kernelDB(t)
	e := engine.New(db)
	pred := func(row int) bool { return db.Mentions.Delay[row] > 96 }
	var want int64
	for row := 0; row < db.Mentions.Len(); row++ {
		if pred(row) {
			want++
		}
	}
	for _, w := range []int{1, 2, 7} {
		if got := CountMentions(e.WithWorkers(w), pred); got != want {
			t.Fatalf("workers=%d count %d want %d", w, got, want)
		}
	}
}

func TestGroupCountBySource(t *testing.T) {
	db := kernelDB(t)
	e := engine.New(db)
	got := GroupCount(e, db.Sources.Len(), func(row int) int { return int(db.Mentions.Source[row]) })
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
	db := kernelDB(t)
	e := engine.New(db)
	got := GroupCount(e, 1, func(row int) int {
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
	db := kernelDB(t)
	e := engine.New(db)
	got := GroupCountEvents(e, db.NumQuarters(), func(row int) int {
		return db.QuarterOfInterval(db.Events.Interval[row])
	})
	var total int64
	for _, v := range got {
		total += v
	}
	if total != int64(db.Events.Len()) {
		t.Fatalf("event quarter counts sum %d want %d", total, db.Events.Len())
	}
}

func TestCrossCountMatchesSerial(t *testing.T) {
	db := kernelDB(t)
	e := engine.New(db)
	keys := func(row int) (int, int) {
		ev := db.Mentions.EventRow[row]
		rc := int(db.Events.Country[ev])
		cc := int(db.SourceCountry[db.Mentions.Source[row]])
		return rc, cc
	}
	got := CrossCount(e, 61, 61, keys)
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
		alt := CrossCount(e.WithWorkers(w), 61, 61, keys)
		for i := range got.Data {
			if alt.Data[i] != got.Data[i] {
				t.Fatalf("workers=%d cell %d differs", w, i)
			}
		}
	}
}

func TestSumByGroup(t *testing.T) {
	db := kernelDB(t)
	e := engine.New(db)
	got := SumByGroup(e, db.NumQuarters(), func(row int) (int, float64) {
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

func TestWithIntervalRestrictsScans(t *testing.T) {
	db := kernelDB(t)
	e := engine.New(db)
	total := CountMentions(e, func(int) bool { return true })
	if total != int64(db.Mentions.Len()) {
		t.Fatalf("unwindowed count %d", total)
	}

	// Split the archive at the midpoint interval; the two halves partition
	// the mentions.
	mid := db.Meta.Intervals / 2
	first := e.WithInterval(0, mid)
	second := e.WithInterval(mid, db.Meta.Intervals)
	c1 := CountMentions(first, func(int) bool { return true })
	c2 := CountMentions(second, func(int) bool { return true })
	if c1+c2 != total {
		t.Fatalf("window halves %d+%d != %d", c1, c2, total)
	}
	if c1 == 0 || c2 == 0 {
		t.Fatal("degenerate split")
	}
	if first.WindowSize() != int(c1) || second.WindowSize() != int(c2) {
		t.Fatal("WindowSize disagrees with count")
	}

	// Every row visible in the first window is actually before mid.
	bad := CountMentions(first, func(row int) bool { return db.Mentions.Interval[row] >= mid })
	if bad != 0 {
		t.Fatalf("%d rows outside window visible", bad)
	}
}

func TestWithIntervalEmptyWindow(t *testing.T) {
	db := kernelDB(t)
	e := engine.New(db).WithInterval(5, 5)
	if got := CountMentions(e, func(int) bool { return true }); got != 0 {
		t.Fatalf("empty window counted %d", got)
	}
	if e.WindowSize() != 0 {
		t.Fatal("empty window size")
	}
	// Window before any data.
	e2 := engine.New(db).WithInterval(0, 0)
	if e2.WindowSize() != 0 {
		t.Fatal("zero-width window should be empty")
	}
}

func TestWindowedGroupCountPartitions(t *testing.T) {
	db := kernelDB(t)
	e := engine.New(db)
	whole := GroupCount(e, db.Sources.Len(), func(row int) int { return int(db.Mentions.Source[row]) })
	mid := db.Meta.Intervals / 3
	a := GroupCount(e.WithInterval(0, mid), db.Sources.Len(), func(row int) int { return int(db.Mentions.Source[row]) })
	b := GroupCount(e.WithInterval(mid, db.Meta.Intervals), db.Sources.Len(), func(row int) int { return int(db.Mentions.Source[row]) })
	for s := range whole {
		if a[s]+b[s] != whole[s] {
			t.Fatalf("source %d: %d+%d != %d", s, a[s], b[s], whole[s])
		}
	}
}

func TestWindowedSumByGroupPartitions(t *testing.T) {
	db := kernelDB(t)
	e := engine.New(db)
	keyVal := func(row int) (int, float64) {
		return db.QuarterOfInterval(db.Mentions.Interval[row]), float64(db.Mentions.Delay[row])
	}
	whole := SumByGroup(e, db.NumQuarters(), keyVal)
	mid := db.Meta.Intervals / 2
	a := SumByGroup(e.WithInterval(0, mid), db.NumQuarters(), keyVal)
	b := SumByGroup(e.WithInterval(mid, db.Meta.Intervals), db.NumQuarters(), keyVal)
	for q := range whole {
		if diff := a[q] + b[q] - whole[q]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("quarter %d: %v + %v != %v", q, a[q], b[q], whole[q])
		}
	}
}

func TestWindowedCrossCountSubsetOfWhole(t *testing.T) {
	db := kernelDB(t)
	e := engine.New(db)
	keys := func(row int) (int, int) {
		ev := db.Mentions.EventRow[row]
		return int(db.Events.Country[ev]), int(db.SourceCountry[db.Mentions.Source[row]])
	}
	whole := CrossCount(e, 61, 61, keys)
	win := CrossCount(e.WithInterval(0, db.Meta.Intervals/2), 61, 61, keys)
	for i := range whole.Data {
		if win.Data[i] > whole.Data[i] {
			t.Fatalf("windowed cell %d exceeds whole", i)
		}
	}
	if win.Sum() >= whole.Sum() {
		t.Fatal("window did not restrict anything")
	}
}

// TestWithContextStopsScanEarly cancels mid-scan and checks the engine
// stopped visiting rows well before the end of the mention table.
func TestWithContextStopsScanEarly(t *testing.T) {
	db := kernelDB(t)
	n := int64(db.Mentions.Len())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := engine.New(db).WithWorkers(4).WithContext(ctx)

	var visited atomic.Int64
	CountMentions(e, func(row int) bool {
		if visited.Add(1) == 100 {
			cancel()
		}
		return true
	})
	got := visited.Load()
	if got >= n {
		t.Fatalf("scan visited all %d rows despite cancellation", n)
	}
	if ctx.Err() == nil {
		t.Fatal("context not cancelled")
	}
}

func TestWithContextNilBehavesNormally(t *testing.T) {
	db := kernelDB(t)
	e := engine.New(db).WithWorkers(4)
	all := CountMentions(e, func(row int) bool { return true })
	if all != int64(db.Mentions.Len()) {
		t.Fatalf("uncancelled count %d, want %d", all, db.Mentions.Len())
	}
	// An already-cancelled context yields an (empty) partial aggregate.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := CountMentions(e.WithContext(ctx), func(row int) bool { return true })
	if got != 0 {
		t.Fatalf("pre-cancelled count %d, want 0", got)
	}
}
