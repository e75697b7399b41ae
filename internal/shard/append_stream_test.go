// The sharded half of the append-then-query battery (see
// internal/baseline/append_differential_test.go for the monolith half).
// Lives in shard_test with the other stream-adjacent shard tests.
package shard_test

import (
	"reflect"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// TestAppendTailRebuildsAndInvalidates pins the sharded stale-postings
// hazard end to end: one chunk folded through Log.Append must (1) land in
// the tail shard with its bitmap postings rebuilt, (2) home events the
// chunk mentions that the tail never held, (3) keep the global per-event
// metadata agreed across shards, (4) bump only the tail version so cached
// answers that read every part go stale while window-only answers over
// cold windows stay warm, and (5) leave the sharded answers identical to a
// monolith that folded the same chunk.
func TestAppendTailRebuildsAndInvalidates(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	mono := res.DB
	sdb, err := shard.Split(mono, 3)
	if err != nil {
		t.Fatal(err)
	}
	ranked, _ := queries.TopPublishers(engine.New(mono), mono.Sources.Len())
	panel := append([]int32(nil), ranked[:16]...)

	// Appends go through the log and queries read its current snapshot, the
	// way serve.NewLive wires the cache.
	lg := shard.NewLog(sdb)
	ex := &registry.Executor{Cache: qcache.New(0)}
	ex.Cache.SetStale(func(k qcache.Key) bool { return lg.Snapshot().StaleKey(k) })
	coreport := registry.MustLookup("coreport")
	series := registry.MustLookup("series-articles") // window-only
	full := func() *shard.View { return lg.Snapshot().View() }
	cold := func() *shard.View { return lg.Snapshot().View().WithWindow(0, sdb.Bounds()[1]) }
	run := func(d *registry.Descriptor, v func() *shard.View) (any, qcache.Outcome) {
		t.Helper()
		p, err := d.ParseParams(func(string) []string { return nil })
		if err != nil {
			t.Fatal(err)
		}
		res, out, err := ex.ExecuteSharded(d, v().WithKind(d.Kind), p)
		if err != nil {
			t.Fatal(err)
		}
		return res, out
	}
	for _, want := range []qcache.Outcome{qcache.Miss, qcache.Hit} {
		if _, out := run(coreport, full); out != want {
			t.Fatalf("full-window warmup: %v, want %v", out, want)
		}
		if _, out := run(coreport, cold); out != want {
			t.Fatalf("cold-window warmup: %v, want %v", out, want)
		}
		if _, out := run(series, cold); out != want {
			t.Fatalf("cold-window series warmup: %v, want %v", out, want)
		}
	}

	// Build the chunk: a mention of an event that lives in an early shard
	// but not the tail (forces adoption), a brand-new event, a brand-new
	// source.
	tail := sdb.Tail()
	var earlyID int64 = -1
	p0 := sdb.Part(0)
	for i := 0; i < p0.Events.Len(); i++ {
		if id := p0.Events.ID[i]; tail.EventRowByID(id) < 0 && p0.Events.NumArticles[i] > 0 {
			earlyID = id
			break
		}
	}
	if earlyID < 0 {
		t.Fatal("no early-shard event absent from the tail; pick another world")
	}
	base := sdb.Meta().Start.IntervalIndex()
	lastIv := sdb.Meta().Intervals - 1
	ts := gdelt.IntervalStart(base + int64(lastIv))
	maxID := mono.Events.ID[len(mono.Events.ID)-1]
	evs := []gdelt.Event{{GlobalEventID: maxID + 1000, Day: 20191231, DateAdded: ts,
		SourceURL: "http://tail-news.example/new"}}
	web := func(id int64, src string) gdelt.Mention {
		return gdelt.Mention{GlobalEventID: id, EventTime: ts, MentionTime: ts,
			MentionType: gdelt.MentionTypeWeb, SourceName: src, DocLen: 900, Confidence: 70}
	}
	mns := []gdelt.Mention{
		web(earlyID, mono.Sources.Name(panel[0])),
		web(earlyID, "tail-news.example"),
		web(maxID+1000, "tail-news.example"),
	}

	// Fold the same chunk into the monolith reference.
	mono, _, err = mono.CloneAppend(store.EventTable{}, evs, mns)
	if err != nil {
		t.Fatal(err)
	}

	tailBefore := tail.Version()
	st, err := lg.Append(evs, mns)
	if err != nil {
		t.Fatal(err)
	}
	if st.AppendedMentions != 3 || st.AppendedEvents != 1 || st.DanglingMentions != 0 {
		t.Fatalf("append stats %+v, want 3 mentions / 1 event / 0 dangling", st)
	}
	sdb = lg.Snapshot()
	tail, p0 = sdb.Tail(), sdb.Part(0)
	if got := tail.Version(); got != tailBefore+1 {
		t.Fatalf("tail version %d after append, want %d", got, tailBefore+1)
	}
	if got := p0.Version(); got != 0 {
		t.Fatalf("cold shard version bumped to %d by a tail append", got)
	}

	// Adoption homed the early event in the tail, and the global per-event
	// metadata agrees across every copy.
	tr := tail.EventRowByID(earlyID)
	if tr < 0 {
		t.Fatal("early-shard event was not adopted into the tail")
	}
	monoRow := mono.EventRowByID(earlyID)
	if tail.Events.NumArticles[tr] != mono.Events.NumArticles[monoRow] {
		t.Fatalf("tail copy counts %d articles, monolith %d",
			tail.Events.NumArticles[tr], mono.Events.NumArticles[monoRow])
	}
	if lr := p0.EventRowByID(earlyID); p0.Events.NumArticles[lr] != tail.Events.NumArticles[tr] {
		t.Fatal("shard copies disagree on the appended event's article count")
	}
	if tail.EventRowByID(maxID+1000) < 0 {
		t.Fatal("appended event missing from the tail")
	}

	// Cache: co-report reads event bitmaps that the append changed in
	// every part, so its entries went stale at both windows and recompute
	// the uncached answer; the window-only series over the cold window
	// stayed warm.
	for name, v := range map[string]func() *shard.View{"full": full, "cold": cold} {
		got, out := run(coreport, v)
		if out != qcache.Miss {
			t.Fatalf("%s-window coreport after append: %v, want miss (stale aggregate!)", name, out)
		}
		p, _ := coreport.ParseParams(func(string) []string { return nil })
		want, err := coreport.RunSharded(v().WithKind(coreport.Kind), p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s-window coreport after append differs from the uncached answer", name)
		}
	}
	if _, out := run(series, cold); out != qcache.Hit {
		t.Fatalf("cold-window series after append: %v, want hit (cold shard untouched)", out)
	}

	// Sharded answers equal the monolith that folded the same chunk —
	// through the planner default and with the new source in the panel.
	panel = append(panel, mono.Sources.Lookup("tail-news.example"))
	wantCo, err := queries.CoReportScan(engine.New(mono).WithWorkers(1), panel)
	if err != nil {
		t.Fatal(err)
	}
	gotCo, err := sdb.View().WithWorkers(1).CoReport(panel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantCo.Pair.Data {
		if gotCo.Pair.Data[i] != wantCo.Pair.Data[i] {
			t.Fatalf("sharded coreport pair[%d] = %d, monolith %d",
				i, gotCo.Pair.Data[i], wantCo.Pair.Data[i])
		}
	}
	wantFo := queries.FollowReportScan(engine.New(mono).WithWorkers(1), panel)
	gotFo := sdb.View().WithWorkers(1).FollowReport(panel)
	for i := range wantFo.N.Data {
		if gotFo.N.Data[i] != wantFo.N.Data[i] {
			t.Fatalf("sharded follow n[%d] = %d, monolith %d",
				i, gotFo.N.Data[i], wantFo.N.Data[i])
		}
	}

	// A chunk below the tail window is rejected before any mutation.
	low := web(earlyID, "tail-news.example")
	low.MentionTime = gdelt.IntervalStart(base) // interval 0
	if _, err := lg.Append(nil, []gdelt.Mention{low}); err == nil {
		t.Fatal("append below the tail window succeeded")
	}
	if lg.Snapshot() != sdb {
		t.Fatal("rejected append published a new world")
	}
}
