package baseline

import (
	"reflect"
	"slices"
	"testing"

	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/store"
)

// Append-then-query battery: the stream append path (store.DB.CloneAppend)
// extends tables whose derived indexes — above all the per-source bitmap
// postings the selection queries answer from — are built at assembly time. The hazard
// class pinned here is an append that extends the columns but leaves a
// derived index stale: the closure scan would see the new rows while the
// bitmap-algebra selection queries keep answering from the pre-append
// snapshot, a silent wrong answer. Two pins: appending a feed suffix must be
// byte-equivalent to rebuilding from the whole feed (tables, dictionary, and
// every bitmap), and the selection queries must agree with the scan on the
// post-append data.

// buildTruncated assembles a store from the corpus records with mentions
// restricted to capture intervals below cut (cut < 0 keeps everything),
// without GKG, so both sides of the append≡rebuild comparison share one
// build path.
func buildTruncated(t *testing.T, c *gen.Corpus, cut int32) (*store.DB, store.BuildStats) {
	t.Helper()
	b, err := store.NewBuilder(gdelt.Timestamp(c.World.Cfg.Start),
		int32(c.World.Days()*gdelt.IntervalsPerDay))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Events {
		ev := c.EventRecord(i)
		b.AddEvent(&ev)
	}
	for j := range c.Mentions {
		if cut >= 0 && c.Mentions[j].Interval >= cut {
			continue
		}
		mn := c.MentionRecord(j)
		b.AddMention(&mn)
	}
	db, stats, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return db, stats
}

func TestAppendEqualsRebuild(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	intervals := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := intervals - 10*gdelt.IntervalsPerDay

	full, fullStats := buildTruncated(t, c, -1)
	db, preStats := buildTruncated(t, c, cut)
	// The suffix arrives the way a feed delivers it: one tick per capture
	// interval.
	ticks := make([][]gdelt.Mention, intervals-cut)
	for j := range c.Mentions {
		if iv := c.Mentions[j].Interval; iv >= cut {
			ticks[iv-cut] = append(ticks[iv-cut], c.MentionRecord(j))
		}
	}

	// The same panel resolves in both builds: intern order is identical.
	ranked := rankSources(full)
	panel := ranked[:min(16, len(ranked))]

	// Pre-append answer from the event bitmaps; its post-append
	// disagreement with the scan is exactly the stale-postings hazard.
	pre, err := queries.CoReport(engine.New(db), panel)
	if err != nil {
		t.Fatal(err)
	}

	// Every append rebuilds only the derived keys its tick dirtied; each
	// must equal a rebuild from scratch.
	appends := uint64(0)
	dangling, dropped := preStats.DanglingMentions, preStats.DroppedMentions
	for i, tick := range ticks {
		if len(tick) == 0 {
			continue
		}
		next, st, err := db.CloneAppend(store.EventTable{}, nil, tick)
		if err != nil {
			t.Fatal(err)
		}
		if err := next.DiffFromRebuild(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		db = next
		appends++
		dangling += st.DanglingMentions
		dropped += st.DroppedMentions
	}
	if appends < 100 {
		t.Fatalf("only %d ticks past the cut; lower it", appends)
	}
	if db.Version() != appends {
		t.Fatalf("version %d after %d appends", db.Version(), appends)
	}
	// Drop accounting composes: truncated build + appended ticks == full build.
	if got, want := dangling, fullStats.DanglingMentions; got != want {
		t.Errorf("dangling mentions: truncated+append = %d, full build = %d", got, want)
	}
	if got, want := dropped, fullStats.DroppedMentions; got != want {
		t.Errorf("dropped mentions: truncated+append = %d, full build = %d", got, want)
	}

	// Tables and dictionary byte-identical to the full rebuild.
	if !reflect.DeepEqual(db.Events, full.Events) {
		t.Fatal("event table after append differs from a fresh rebuild")
	}
	if !reflect.DeepEqual(db.Mentions, full.Mentions) {
		t.Fatal("mention table after append differs from a fresh rebuild")
	}
	if !reflect.DeepEqual(db.Sources.Names(), full.Sources.Names()) {
		t.Fatal("source dictionary after append differs from a fresh rebuild")
	}

	// Every source posting identical to a fresh build — the stale-index pin.
	for s := int32(0); int(s) < db.Sources.Len(); s++ {
		if !slices.Equal(db.SourceMentions(s), full.SourceMentions(s)) ||
			!bitmap.Equal(db.SourceEventBitmap(s), full.SourceEventBitmap(s)) ||
			!bitmap.Equal(db.SourceRepeatEventBitmap(s), full.SourceRepeatEventBitmap(s)) {
			t.Fatalf("source %d bitmap postings differ from a fresh rebuild", s)
		}
	}

	// The selection queries answer the post-append question like the scan...
	wantCo, err := queries.CoReportScan(engine.New(db), panel)
	if err != nil {
		t.Fatal(err)
	}
	wantFo := queries.FollowReportScan(engine.New(db), panel)
	gotCo, err := queries.CoReport(engine.New(db), panel)
	if err != nil {
		t.Fatal(err)
	}
	eqSeries(t, "post-append coreport pair", gotCo.Pair.Data, wantCo.Pair.Data)
	eqSeries(t, "post-append coreport events", gotCo.EventCounts, wantCo.EventCounts)
	eqFloats(t, "post-append coreport jaccard", gotCo.Jaccard.Data, wantCo.Jaccard.Data, 1)
	gotFo := queries.FollowReport(engine.New(db), panel)
	eqSeries(t, "post-append follow n", gotFo.N.Data, wantFo.N.Data)
	eqSeries(t, "post-append follow articles", gotFo.Articles, wantFo.Articles)
	eqFloats(t, "post-append follow f", gotFo.F.Data, wantFo.F.Data, 1)
	// ...and differently from before the append, so the pin has teeth.
	if reflect.DeepEqual(pre.Pair.Data, wantCo.Pair.Data) {
		t.Fatal("append did not change the co-reporting answer; hazard pin is vacuous")
	}
}

func TestAppendNewEventsAndSources(t *testing.T) {
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	db, _ := buildTruncated(t, c, -1)
	base := db.Meta.Start.IntervalIndex()
	lastIv := db.Meta.Intervals - 1
	ts := gdelt.IntervalStart(base + int64(lastIv))
	maxID := db.Events.ID[len(db.Events.ID)-1]
	existingID := db.Events.ID[len(db.Events.ID)/2]
	exRow := db.EventRowByID(existingID)
	exArticles := db.Events.NumArticles[exRow]
	exURL := db.Events.SourceURL[exRow]
	oldSrc := db.Sources.Len()

	evs := []gdelt.Event{
		{GlobalEventID: maxID + 10, Day: 20191230, ActionCountry: "US", DateAdded: ts,
			SourceURL: "http://brand-new.example/a"},
		{GlobalEventID: maxID + 20, Day: 20191230, DateAdded: ts,
			SourceURL: "http://brand-new.example/b"},
		{GlobalEventID: existingID, Day: 19000101, DateAdded: ts,
			SourceURL: "http://duplicate.example/"}, // duplicate: stored row wins
	}
	web := func(id int64, src string) gdelt.Mention {
		return gdelt.Mention{GlobalEventID: id, EventTime: ts, MentionTime: ts,
			MentionType: gdelt.MentionTypeWeb, SourceName: src, DocLen: 1000, Confidence: 80}
	}
	mns := []gdelt.Mention{
		web(maxID+10, "tail-news.example"),
		web(maxID+10, db.Sources.Name(0)),
		web(existingID, "tail-news.example"),
		web(maxID+999, "tail-news.example"), // dangling: unknown event
		{GlobalEventID: existingID, EventTime: ts, MentionTime: ts,
			MentionType: 3, SourceName: "tv.example"}, // non-web: dropped
		func() gdelt.Mention { // out of range: dropped
			m := web(existingID, "tail-news.example")
			m.MentionTime = gdelt.IntervalStart(base + int64(db.Meta.Intervals) + 5)
			return m
		}(),
	}

	db, st, err := db.CloneAppend(store.EventTable{}, evs, mns)
	if err != nil {
		t.Fatal(err)
	}
	if st.AppendedEvents != 2 || st.DuplicateEvents != 1 {
		t.Fatalf("event stats %+v, want 2 appended / 1 duplicate", st)
	}
	if st.AppendedMentions != 3 || st.DanglingMentions != 1 || st.DroppedMentions != 2 {
		t.Fatalf("mention stats %+v, want 3 appended / 1 dangling / 2 dropped", st)
	}
	newRow := db.EventRowByID(maxID + 10)
	if newRow < 0 || db.Events.NumArticles[newRow] != 2 || db.Events.FirstMention[newRow] != lastIv {
		t.Fatalf("appended event row %d metadata wrong", newRow)
	}
	if r := db.EventRowByID(maxID + 20); r < 0 || db.Events.NumArticles[r] != 0 {
		t.Fatalf("mention-less appended event missing or counted")
	}
	if got := db.Events.NumArticles[db.EventRowByID(existingID)]; got != exArticles+1 {
		t.Fatalf("existing event articles %d, want %d", got, exArticles+1)
	}
	if db.Events.SourceURL[db.EventRowByID(existingID)] != exURL {
		t.Fatal("duplicate chunk event overwrote the stored record")
	}
	ns := db.Sources.Lookup("tail-news.example")
	if ns < int32(oldSrc) {
		t.Fatalf("new source interned at %d, want a fresh id >= %d", ns, oldSrc)
	}
	if got := len(db.SourceMentions(ns)); got != 2 {
		t.Fatalf("new source postings hold %d rows, want 2", got)
	}
	if got := db.SourceEventBitmap(ns).Cardinality(); got != 2 {
		t.Fatalf("new source event bitmap has %d events, want 2", got)
	}

	// Post-append, co-reporting still agrees with the scan on a panel that
	// includes the brand-new source.
	ranked := rankSources(db)
	panel := append([]int32{ns}, ranked[:min(8, len(ranked))]...)
	want, err := queries.CoReportScan(engine.New(db), panel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := queries.CoReport(engine.New(db), panel)
	if err != nil {
		t.Fatal(err)
	}
	eqSeries(t, "new-source coreport pair", got.Pair.Data, want.Pair.Data)
	eqSeries(t, "new-source coreport events", got.EventCounts, want.EventCounts)

	// A chunk regressing behind the stored tail errors without mutating.
	v, nm := db.Version(), db.Mentions.Len()
	m := web(existingID, "tail-news.example")
	m.MentionTime = gdelt.IntervalStart(base) // interval 0
	if _, _, err := db.CloneAppend(store.EventTable{}, nil, []gdelt.Mention{m}); err == nil {
		t.Fatal("append behind the stored tail succeeded")
	}
	if db.Version() != v || db.Mentions.Len() != nm {
		t.Fatal("failed append mutated the store")
	}
}
