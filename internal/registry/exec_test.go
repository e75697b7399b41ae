package registry

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/shard"
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

// testWorld wraps the shared dataset as the K=1 world a server runs a
// monolith through, so one query costs one scan per kernel.
func testWorld(t testing.TB) *shard.DB {
	t.Helper()
	sdb, err := shard.Single(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// scanCounter returns the engine's scan counter for a kind label; obs
// deduplicates by name+labels, so this is the same counter the engine
// increments.
func scanCounter(kind string) *obs.Counter {
	return obs.Default.Counter("engine_scans_total", "scan kernels executed", obs.L("kind", kind))
}

func defaultParams(t *testing.T, d *Descriptor) Params {
	t.Helper()
	p, err := d.ParseParams(func(string) []string { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNilExecutorBypasses(t *testing.T) {
	d := MustLookup("stats")
	e := testWorld(t).View().WithKind(d.Kind)
	p := defaultParams(t, d)

	var ex *Executor
	v, out, err := ex.ExecuteSharded(d, e, p)
	if err != nil || v == nil || out != qcache.Bypass {
		t.Fatalf("nil executor: %v %v %v", v, out, err)
	}
	v, out, err = (&Executor{}).ExecuteSharded(d, e, p)
	if err != nil || v == nil || out != qcache.Bypass {
		t.Fatalf("nil cache: %v %v %v", v, out, err)
	}
}

func TestExecutorMissThenHit(t *testing.T) {
	d := MustLookup("series-articles")
	ex := &Executor{Cache: qcache.New(0)}
	e := testWorld(t).View().WithKind(d.Kind)
	p := defaultParams(t, d)

	scans := scanCounter(d.Kind)
	before := scans.Value()
	v1, out, err := ex.ExecuteSharded(d, e, p)
	if err != nil || out != qcache.Miss {
		t.Fatalf("first: %v %v", out, err)
	}
	if scans.Value() != before+1 {
		t.Fatalf("miss ran %d scans, want 1", scans.Value()-before)
	}
	v2, out, err := ex.ExecuteSharded(d, e, p)
	if err != nil || out != qcache.Hit {
		t.Fatalf("second: %v %v", out, err)
	}
	if scans.Value() != before+1 {
		t.Fatalf("hit ran a scan: %d total", scans.Value()-before)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("hit returned a different result")
	}
	// Different k = different canonical params = different entry. The
	// scan counter above needs a kind that scans; top-publishers takes k
	// but answers from the postings, so it only checks the keys.
	tp := MustLookup("top-publishers")
	te := e.WithKind(tp.Kind)
	if _, out, _ := ex.ExecuteSharded(tp, te, defaultParams(t, tp)); out != qcache.Miss {
		t.Fatalf("default k outcome %v, want miss", out)
	}
	p5, err := tp.ParseParams(func(name string) []string {
		if name == "k" {
			return []string{"5"}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, out, _ := ex.ExecuteSharded(tp, te, p5); out != qcache.Miss {
		t.Fatalf("distinct params outcome %v, want miss", out)
	}
	if _, out, _ := ex.ExecuteSharded(tp, te, p5); out != qcache.Hit {
		t.Fatalf("repeated k=5 outcome %v, want hit", out)
	}
}

func TestExecutorWindowIsPartOfKey(t *testing.T) {
	sdb := testWorld(t)
	d := MustLookup("stats")
	ex := &Executor{Cache: qcache.New(0)}
	p := defaultParams(t, d)

	full := sdb.View().WithKind(d.Kind)
	if _, out, _ := ex.ExecuteSharded(d, full, p); out != qcache.Miss {
		t.Fatal("full window should miss")
	}
	windowed := full.WithWindow(0, sdb.Meta().Intervals/2)
	v, out, err := ex.ExecuteSharded(d, windowed, p)
	if err != nil || out != qcache.Miss {
		t.Fatalf("windowed view must have its own key: %v %v", out, err)
	}
	if v == nil {
		t.Fatal("windowed result nil")
	}
	if _, out, _ := ex.ExecuteSharded(d, windowed, p); out != qcache.Hit {
		t.Fatal("repeated windowed query should hit")
	}
}

// TestSingleFlight32Goroutines is the ISSUE's concurrency acceptance test:
// 32 goroutines requesting the same descriptor concurrently result in
// exactly one underlying scan, one miss, 31 hits or coalesced waiters, and
// byte-identical results.
func TestSingleFlight32Goroutines(t *testing.T) {
	d := MustLookup("series-articles")
	ex := &Executor{Cache: qcache.New(0)}
	e := testWorld(t).View().WithKind(d.Kind)
	p := defaultParams(t, d)

	scans := scanCounter(d.Kind)
	before := scans.Value()

	const goroutines = 32
	var (
		wg       sync.WaitGroup
		start    = make(chan struct{})
		results  [goroutines]any
		outcomes [goroutines]qcache.Outcome
		errs     [goroutines]error
	)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], outcomes[i], errs[i] = ex.ExecuteSharded(d, e, p)
		}()
	}
	close(start)
	wg.Wait()

	if got := scans.Value() - before; got != 1 {
		t.Fatalf("%d goroutines ran %d scans, want exactly 1", goroutines, got)
	}
	var miss, served int
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		switch outcomes[i] {
		case qcache.Miss:
			miss++
		case qcache.Hit, qcache.Coalesced:
			served++
		default:
			t.Fatalf("goroutine %d outcome %v", i, outcomes[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("goroutine %d result diverges", i)
		}
	}
	if miss != 1 || served != goroutines-1 {
		t.Fatalf("miss=%d served=%d, want 1 and %d", miss, served, goroutines-1)
	}
}

// TestLogAppendInvalidates proves the end-to-end invalidation protocol: a
// feed chunk folded through shard.Log.Append publishes a world whose tail
// carries the next snapshot version, which forces the next identical query
// to recompute and lets the fresh result cache at the new version.
func TestLogAppendInvalidates(t *testing.T) {
	db := testDB(t)
	lg := shard.NewLog(testWorld(t))
	d := MustLookup("series-articles")
	ex := &Executor{Cache: qcache.New(0)}
	ex.Cache.SetStale(func(k qcache.Key) bool { return lg.Snapshot().StaleKey(k) })
	p := defaultParams(t, d)
	run := func() qcache.Outcome {
		t.Helper()
		_, out, err := ex.ExecuteSharded(d, lg.Snapshot().View().WithKind(d.Kind), p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	if out := run(); out != qcache.Miss {
		t.Fatal("want initial miss")
	}
	if out := run(); out != qcache.Hit {
		t.Fatal("want hit before the append")
	}

	ts := gdelt.IntervalStart(db.Meta.Start.IntervalIndex() + int64(db.Meta.Intervals) - 1)
	v0 := lg.Snapshot().Tail().Version()
	if _, err := lg.Append(nil, []gdelt.Mention{{GlobalEventID: db.Events.ID[0], EventTime: ts,
		MentionTime: ts, MentionType: gdelt.MentionTypeWeb, SourceName: db.Sources.Name(0)}}); err != nil {
		t.Fatal(err)
	}
	if got := lg.Snapshot().Tail().Version(); got != v0+1 {
		t.Fatalf("version %d after append, want %d", got, v0+1)
	}
	scans := scanCounter(d.Kind)
	before := scans.Value()
	if out := run(); out != qcache.Miss {
		t.Fatal("append must invalidate the cached result")
	}
	if scans.Value() <= before {
		t.Fatal("post-append query did not rescan")
	}
	if out := run(); out != qcache.Hit {
		t.Fatal("fresh result should cache at the new version")
	}
}

// TestCancelledComputationNotCached: a context cancelled mid-execution must
// surface as the context error and leave nothing poisoned in the cache.
func TestCancelledComputationNotCached(t *testing.T) {
	sdb := testWorld(t)
	d := MustLookup("stats")
	ex := &Executor{Cache: qcache.New(0)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the scan even starts: worst-case partial
	e := sdb.View().WithContext(ctx).WithKind(d.Kind)
	p := defaultParams(t, d)

	_, _, err := ex.ExecuteSharded(d, e, p)
	if err == nil {
		t.Fatal("cancelled execution returned no error")
	}
	// The next request with a live context recomputes: nothing was cached.
	live := sdb.View().WithKind(d.Kind)
	if _, out, _ := ex.ExecuteSharded(d, live, p); out != qcache.Miss {
		t.Fatal("cancelled partial result was cached")
	}
}

// TestCancelledArchiveNotCached: a cancelled computation of a kind's
// archive half must surface as the context error and leave no archive
// entry behind, and the next live request recomputes it and caches it.
func TestCancelledArchiveNotCached(t *testing.T) {
	sdb := testWorld(t)
	d := MustLookup("country")
	ex := &Executor{Cache: qcache.New(0)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := defaultParams(t, d)

	_, _, err := ex.ExecuteSharded(d, sdb.View().WithContext(ctx).WithKind(d.Kind), p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execution returned %v, want the context error", err)
	}
	if _, ok := ex.Cache.Get(archiveKey(d, sdb)); ok {
		t.Fatal("cancelled archive half was cached")
	}
	if ex.Cache.Len() != 0 {
		t.Fatalf("cancelled execution left %d cache entries", ex.Cache.Len())
	}

	live := sdb.View().WithKind(d.Kind)
	got, out, err := ex.ExecuteSharded(d, live, p)
	if err != nil || out != qcache.Miss {
		t.Fatalf("live request after the cancelled one: %v %v, want miss", out, err)
	}
	archive, ok := ex.Cache.Get(archiveKey(d, sdb))
	if !ok {
		t.Fatal("live request did not cache the archive half")
	}
	// The archive is charged to the budget, and stays compact: the
	// symmetric pair counts are stored once (~15 KB at 60 countries).
	if size := qcache.Approx(archive); size > 20<<10 || ex.Cache.UsedBytes() < size {
		t.Fatalf("archive costs %d B of %d B used, want ≤ 20 KiB and charged", size, ex.Cache.UsedBytes())
	}
	want, err := d.RunSharded(live, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("answer over the recomputed archive differs from the uncached one")
	}
}

// TestArchiveSharedAcrossConcurrentWindows: concurrent country misses at
// eight different windows compute the archive half once (single-flight on
// its key) and finish from the one shared value; every answer equals the
// uncached one. Run under -race, it checks that Finish only reads the
// shared archive.
func TestArchiveSharedAcrossConcurrentWindows(t *testing.T) {
	sdb := testWorld(t)
	iv := sdb.Meta().Intervals
	registered := MustLookup("country")
	var archives atomic.Int64
	d := *registered
	d.Archive = func(v *shard.View) any {
		archives.Add(1)
		return registered.Archive(v)
	}
	ex := &Executor{Cache: qcache.New(0)}
	p := defaultParams(t, &d)

	const windows = 8
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [windows]any
		errs  [windows]error
	)
	view := func(i int) *shard.View {
		return sdb.View().WithWindow(int32(i)*iv/(2*windows), iv-int32(i)*iv/(4*windows)).WithKind(d.Kind)
	}
	for i := 0; i < windows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], _, errs[i] = ex.ExecuteSharded(&d, view(i), p)
		}(i)
	}
	close(start)
	wg.Wait()

	if n := archives.Load(); n != 1 {
		t.Fatalf("%d concurrent windows computed the archive %d times, want 1", windows, n)
	}
	for i := 0; i < windows; i++ {
		if errs[i] != nil {
			t.Fatalf("window %d: %v", i, errs[i])
		}
		want, err := registered.RunSharded(view(i), p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("window %d: cached answer differs from the uncached one", i)
		}
	}
}

func TestDeriveEngineCommonParams(t *testing.T) {
	db := testDB(t)
	base := engine.New(db)

	e, err := DeriveEngine(base, getter(map[string][]string{"workers": {"3"}}))
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != 3 {
		t.Fatalf("workers %d", e.Workers())
	}
	if e == base {
		t.Fatal("DeriveEngine must return a derived view, not the receiver")
	}
	if _, err := DeriveEngine(base, getter(map[string][]string{"workers": {"-1"}})); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := DeriveEngine(base, getter(map[string][]string{"from": {"bogus"}})); err == nil {
		t.Fatal("unparseable from accepted")
	}
}
