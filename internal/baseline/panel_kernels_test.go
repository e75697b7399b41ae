package baseline

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// The scan.cold kinds whose shard kernels answer from the store's indexes
// instead of scanning rows: each answer must still equal the engine row
// scan exactly, on a hand-built store that puts every edge those index
// arguments rely on where a generated corpus seldom does.
var indexKinds = []string{"delays", "themes", "series-active-sources", "wildfires", "top-publishers"}

// edgeParams asks every kind for its widest answer: delays and publishers
// over all sources, wildfires with a threshold the fixture's two fires
// cross and its tie class does not, and k above the candidate count.
func edgeParams(name string) []string {
	switch name {
	case "k":
		return []string{"100000"}
	case "min":
		return []string{"4"}
	}
	return nil
}

// fireCases rank the wildfire tie class too (min 3): k = 1 keeps only the
// six-source fire, and k = 2 + tieCut puts the cut inside the tie class,
// whose members span grain boundaries at four workers.
var fireCases = []struct{ min, k int }{{3, 1}, {3, 2 + tieCut}}

const (
	tieFires = 1500 // events with exactly three early sources
	tieCut   = 300  // tie-class members fireCases keeps
)

func edgeDay(d int) int64 { return int64(d * gdelt.IntervalsPerDay) }

// publisherWindows are top-publishers capture windows: the first starts on
// some.com's day-5 mention and ends exactly on its day-333 one, so both
// edges fall inside its postings; edges.com has no row in the second; the
// third is the explicitly empty window.
var publisherWindows = [][2]int32{
	{int32(edgeDay(5) + 40), int32(edgeDay(333) + 40)},
	{int32(edgeDay(100)), int32(edgeDay(200))},
	{0, 0},
}

// edgeMention is one fixture mention: capture and event intervals are
// offsets from the archive start (the event one may precede it).
type edgeMention struct {
	src        string
	event      int64
	evIv, mnIv int64
}

const edgeDays = 400 // five calendar quarters from the 2015-02-18 epoch

// edgeFixture returns the events and interval-sorted mentions of the
// fixture, plus its GKG records.
func edgeFixture() ([]gdelt.Event, []edgeMention, []gdelt.GKGRecord) {
	day := edgeDay
	var evs []gdelt.Event
	event := func(evIv int64) int64 {
		id := int64(len(evs) + 1)
		ts := gdelt.IntervalStart(max(evIv, 0))
		evs = append(evs, gdelt.Event{GlobalEventID: id, Day: ts.YYYYMMDD(),
			SourceURL: fmt.Sprintf("https://example.org/%d", id), DateAdded: ts})
		return id
	}
	var mns []edgeMention
	// delayed adds a mention at mnIv whose raw delay is d; the builder
	// clamps a negative delay (event time after the capture, a defect row)
	// to 0 and one past the one-year cap to the cap.
	delayed := func(src string, mnIv, d int64) {
		evIv := mnIv - d + 1
		mns = append(mns, edgeMention{src, event(evIv), evIv, mnIv})
	}
	capped := int64(queries.MaxDelay)
	// Count-table medians (span <= n): even and odd counts, the even one's
	// lower and upper medians differ, and its rows sit in four parts.
	for i, d := range []int64{4, 1, 3, 2} {
		delayed("even-count.com", day(10+95*i)+7, d)
	}
	for i, d := range []int64{6, 2, 5, 2, 3} {
		delayed("odd-count.com", day(30+70*i)+3, d)
	}
	// Sorted medians (span > n): a 0-delay defect row and a delay far past
	// the cap in each, even and odd counts.
	delayed("even-sort.com", day(12), -4)
	delayed("even-sort.com", day(150), 3)
	delayed("even-sort.com", day(260), 9)
	delayed("even-sort.com", day(330), 3*capped)
	delayed("odd-sort.com", day(40)+1, -1)
	delayed("odd-sort.com", day(41), 7)
	delayed("odd-sort.com", day(380), 2*capped)
	// A source in the first and last parts only, and one active in the
	// first and last quarters only.
	for _, d := range []int{5, 17, 30, 333, 349} {
		delayed("some.com", day(d)+40, int64(d%4+1))
	}
	for _, d := range []int{1, 2, 391, 395} {
		delayed("edges.com", day(d), 2)
	}
	// Two sources with equal counts, first seen on days 5 and 6, and seen in
	// the reverse order in the last part of a split (days 390 and 392): a
	// part dictionary interned in row order would number them reversed.
	for _, m := range []struct {
		src string
		d   int
	}{{"tie-x.com", 5}, {"tie-y.com", 6}, {"tie-y.com", 390}, {"tie-x.com", 392}} {
		delayed(m.src, day(m.d)+41, 1)
	}
	// Wildfires within a window of 8: one fire with a repeat reporter and a
	// late article, one straddling the K=5 boundary at day 80 with a source
	// on both sides of it, and a busy event with too few distinct sources.
	fire := func(evIv int64, reports []int, srcs ...string) {
		id := event(evIv)
		for i, s := range srcs {
			mns = append(mns, edgeMention{s, id, evIv, evIv + int64(reports[i])})
		}
	}
	fire(day(60)+10, []int{0, 1, 1, 2, 4, 5, 7, 30},
		"f1.com", "f2.com", "f1.com", "f3.com", "f4.com", "f5.com", "f6.com", "f6.com")
	fire(day(80)-3, []int{0, 1, 2, 3, 4, 5},
		"f2.com", "f3.com", "f1.com", "f2.com", "f4.com", "f7.com")
	fire(day(210), []int{0, 0, 1, 1, 2, 3},
		"f1.com", "f2.com", "f1.com", "f2.com", "f1.com", "f2.com")
	for i := range tieFires {
		fire(day(1)+int64(25*i), []int{0, 1, 2}, "t1.com", "t2.com", "t3.com")
	}
	sort.SliceStable(mns, func(a, b int) bool { return mns[a].mnIv < mns[b].mnIv })

	gkg := func(d int, themes ...string) gdelt.GKGRecord {
		return gdelt.GKGRecord{RecordID: fmt.Sprintf("g%d", d), SourceName: "f1.com",
			Date: gdelt.IntervalStart(day(d)), Themes: themes}
	}
	recs := []gdelt.GKGRecord{
		gkg(3, "DUP", "COMMON", "DUP"), // a row listing a theme twice
		gkg(100, "COMMON", "RARE"),
		gkg(200, "ONLYMID", "COMMON"), // a theme in one part only
		gkg(350, "COMMON", "DUP"),
	}
	return evs, mns, recs
}

// buildEdgeStore assembles the fixture, keeping mentions captured below cut
// (cut < 0 keeps all); GKG records join only the full build.
func buildEdgeStore(t *testing.T, cut int64) *store.DB {
	t.Helper()
	evs, mns, recs := edgeFixture()
	b, err := store.NewBuilder(gdelt.EpochTimestamp, edgeDays*gdelt.IntervalsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		b.AddEvent(&evs[i])
	}
	for _, m := range mns {
		if cut >= 0 && m.mnIv >= cut {
			continue
		}
		mn := m.record()
		b.AddMention(&mn)
	}
	if cut < 0 {
		for i := range recs {
			b.AddGKG(&recs[i])
		}
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func (m edgeMention) record() gdelt.Mention {
	return gdelt.Mention{GlobalEventID: m.event, EventTime: gdelt.IntervalStart(m.evIv),
		MentionTime: gdelt.IntervalStart(m.mnIv), MentionType: gdelt.MentionTypeWeb,
		SourceName: m.src, DocLen: 100, Confidence: 50}
}

// runKind runs one registry kind with edgeParams through the engine
// (v == nil) or a view.
func runKind(t *testing.T, kind string, db *store.DB, v *shard.View) any {
	t.Helper()
	return runKindWith(t, kind, edgeParams, db, v)
}

func runKindWith(t *testing.T, kind string, get func(string) []string, db *store.DB, v *shard.View) any {
	t.Helper()
	d := registry.MustLookup(kind)
	p, err := d.ParseParams(get)
	if err != nil {
		t.Fatal(err)
	}
	var res any
	if v == nil {
		res, err = d.Run(engine.New(db).WithWorkers(1).WithKind(kind), p)
	} else {
		res, err = d.RunSharded(v.WithKind(kind), p)
	}
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return res
}

func TestPanelKernelsExactEdges(t *testing.T) {
	db := buildEdgeStore(t, -1)
	refs := map[string]any{}
	for _, kind := range indexKinds {
		refs[kind] = runKind(t, kind, db, nil)
	}
	fireRefs := make([]any, len(fireCases))
	for i, c := range fireCases {
		fireRefs[i] = runKindWith(t, "wildfires", fireParams(c.min, c.k), db, nil)
	}
	checkEdgeFixture(t, db, refs, fireRefs)

	for _, k := range []int{0, 1, 3, 5} {
		sdb := shardWorld(t, db, k)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("k%d/w%d", k, workers), func(t *testing.T) {
				v := sdb.View().WithWorkers(workers)
				for _, kind := range indexKinds {
					if got := runKind(t, kind, db, v); !reflect.DeepEqual(got, refs[kind]) {
						t.Errorf("%s: shard kernel\n got %+v\nwant %+v", kind, got, refs[kind])
					}
				}
				for i, c := range fireCases {
					if got := runKindWith(t, "wildfires", fireParams(c.min, c.k), db, v); !reflect.DeepEqual(got, fireRefs[i]) {
						t.Errorf("wildfires min %d k %d: shard kernel\n got %+v\nwant %+v", c.min, c.k, got, fireRefs[i])
					}
				}
				checkPublisherEdges(t, db, v)
			})
		}
		// With a context set every runner folds grain after grain into one
		// accumulator, so the floor a runner carries from its earlier
		// grains decides what later grains skip.
		for _, workers := range []int{1, 2, 4} {
			v := sdb.View().WithWorkers(workers).WithContext(context.Background())
			for i, c := range fireCases {
				if got := runKindWith(t, "wildfires", fireParams(c.min, c.k), db, v); !reflect.DeepEqual(got, fireRefs[i]) {
					t.Errorf("k%d/w%d grained: wildfires min %d k %d: shard kernel\n got %+v\nwant %+v",
						k, workers, c.min, c.k, got, fireRefs[i])
				}
			}
		}
	}

	// A live log whose tail still holds unsealed appends. Appends do not
	// extend GKG, so themes sits this half out.
	cut := int64(300 * gdelt.IntervalsPerDay)
	prefix, err := shard.Split(buildEdgeStore(t, cut), 2)
	if err != nil {
		t.Fatal(err)
	}
	lg := shard.NewLog(prefix)
	_, mns, _ := edgeFixture()
	step := int64(15 * gdelt.IntervalsPerDay)
	for lo, ticks := cut, 0; lo < edgeDays*gdelt.IntervalsPerDay; lo += step {
		var tick []gdelt.Mention
		for _, m := range mns {
			if m.mnIv >= lo && m.mnIv < lo+step {
				tick = append(tick, m.record())
			}
		}
		if len(tick) == 0 {
			continue
		}
		if _, err := lg.Append(nil, tick); err != nil {
			t.Fatal(err)
		}
		if ticks++; ticks == 2 {
			if _, err := lg.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if lg.TailRows() == 0 {
		t.Fatal("live log tail is empty; the fixture must leave appends unsealed")
	}
	for _, workers := range []int{1, 4} {
		v := lg.Snapshot().View().WithWorkers(workers)
		for _, kind := range indexKinds {
			if kind == "themes" {
				continue
			}
			if got := runKind(t, kind, db, v); !reflect.DeepEqual(got, refs[kind]) {
				t.Errorf("live w%d %s:\n got %+v\nwant %+v", workers, kind, got, refs[kind])
			}
		}
	}
}

// fireParams asks wildfires for the top k events with at least min early
// sources in the default window.
func fireParams(min, k int) func(string) []string {
	return func(name string) []string {
		switch name {
		case "k":
			return []string{fmt.Sprint(k)}
		case "min":
			return []string{fmt.Sprint(min)}
		}
		return nil
	}
}

// checkPublisherEdges checks the top-publishers plan over every source —
// on v and on the monolith's engine — in each publisherWindows window,
// against publisherRef over the monolith's rows.
func checkPublisherEdges(t *testing.T, db *store.DB, v *shard.View) {
	t.Helper()
	d := registry.MustLookup("top-publishers")
	p, err := d.ParseParams(edgeParams)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, want []registry.PublisherRow, got any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("top-publishers %s: %v", what, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("top-publishers %s:\n got %v\nwant %v", what, got, want)
		}
	}
	for _, w := range publisherWindows {
		want := publisherRef(db, func(iv int32) bool { return iv >= w[0] && iv < w[1] })
		what := fmt.Sprintf("in [%d, %d)", w[0], w[1])
		got, err := d.RunSharded(v.WithWindow(w[0], w[1]), p)
		check(what, want, got, err)
		got, err = d.Run(engine.New(db).WithWorkers(1).WithInterval(w[0], w[1]), p)
		check(what+" on the monolith", want, got, err)
	}
}

// publisherRef is top-publishers over every source of db, counting the
// mention rows whose capture interval keep admits (sourceRanking).
func publisherRef(db *store.DB, keep func(iv int32) bool) []registry.PublisherRow {
	ids, per := sourceRanking(db, keep)
	rows := make([]registry.PublisherRow, len(ids))
	for i, s := range ids {
		rows[i] = registry.PublisherRow{Rank: i + 1, Source: db.Sources.Name(s), Articles: per[s]}
	}
	return rows
}

// sourceRanking ranks every source of db by its mention rows whose capture
// interval keep admits — a per-row loop and a sort, sharing no code with
// the planner — and returns the ranked ids with the per-source counts.
// Ties rank the lower id first; sources with no admitted row rank last.
func sourceRanking(db *store.DB, keep func(iv int32) bool) (ids []int32, per []int64) {
	per = make([]int64, db.Sources.Len())
	for r, s := range db.Mentions.Source {
		if keep(db.Mentions.Interval[r]) {
			per[s]++
		}
	}
	ids = make([]int32, len(per))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.SliceStable(ids, func(a, b int) bool { return per[ids[a]] > per[ids[b]] })
	return ids, per
}

// rankSources ranks db's sources by article count over the whole archive.
func rankSources(db *store.DB) []int32 {
	ids, _ := sourceRanking(db, func(int32) bool { return true })
	return ids
}

// checkEdgeFixture pins that the reference answers exercise the edges the
// fixture was built for, so a change to the builder cannot quietly blunt
// the test.
func checkEdgeFixture(t *testing.T, db *store.DB, refs map[string]any, fireRefs []any) {
	t.Helper()
	type median struct {
		lower  int64
		sorted bool // span > n: the shard kernel sorts instead of counting
	}
	medians := map[string]median{"even-count.com": {2, false}, "odd-count.com": {3, false},
		"even-sort.com": {3, true}, "odd-sort.com": {7, true}}
	for _, st := range refs["delays"].([]queries.SourceDelayStats) {
		want, ok := medians[st.Name]
		if !ok {
			continue
		}
		delete(medians, st.Name)
		if st.Median != want.lower || (st.Max-st.Min > st.Articles) != want.sorted {
			t.Errorf("%s: median %d over delays [%d, %d] x %d, want %+v",
				st.Name, st.Median, st.Min, st.Max, st.Articles, want)
		}
		if want.sorted && (st.Min != 0 || st.Max != queries.MaxDelay) {
			t.Errorf("%s: delays [%d, %d], want a defect 0 and the capped %d", st.Name, st.Min, st.Max, queries.MaxDelay)
		}
	}
	if len(medians) != 0 {
		t.Errorf("delays answer misses sources %v", medians)
	}
	if th := refs["themes"].([]queries.ThemeCount); len(th) != 4 || th[1] != (queries.ThemeCount{Theme: "DUP", Articles: 3}) {
		t.Errorf("themes %+v, want DUP counted once per occurrence", th)
	}
	if act := refs["series-active-sources"].(queries.QuarterlySeries).Values; len(act) != 5 {
		t.Errorf("fixture spans %d quarters, want 5", len(act))
	}
	edges := db.Sources.Lookup("edges.com")
	quarters := map[int]bool{}
	for _, r := range db.SourceMentions(edges) {
		quarters[db.QuarterOfInterval(db.Mentions.Interval[r])] = true
	}
	if !reflect.DeepEqual(quarters, map[int]bool{0: true, 4: true}) {
		t.Errorf("edges.com active in quarters %v, want the first and last only", quarters)
	}
	fires := refs["wildfires"].([]queries.Wildfire)
	if len(fires) != 2 || fires[0].EarlySources != 6 || fires[0].EarlyArticles != 7 || fires[1].EarlySources != 5 {
		t.Errorf("wildfires %+v, want the two fires and not the busy event", fires)
	}
	if one := fireRefs[0].([]queries.Wildfire); len(one) != 1 || one[0].EventID != fires[0].EventID {
		t.Errorf("wildfires k=1 %+v, want the six-source fire", one)
	}
	if cut := fireRefs[1].([]queries.Wildfire); len(cut) != 2+tieCut || cut[len(cut)-1].EarlySources != 3 {
		t.Errorf("wildfires k=%d ends %+v, want the cut inside the three-source tie class", 2+tieCut, cut[len(cut)-1])
	}

	rank := map[string]registry.PublisherRow{}
	for _, r := range refs["top-publishers"].([]registry.PublisherRow) {
		rank[r.Source] = r
	}
	if x, y := rank["tie-x.com"], rank["tie-y.com"]; x.Articles != 2 || y.Articles != 2 || x.Rank > y.Rank {
		t.Errorf("tied publishers %+v and %+v, want two articles each, tie-x first", x, y)
	}
	last := shardWorld(t, db, 5).Part(4).Sources
	for _, src := range []string{"tie-x.com", "tie-y.com"} {
		if last.Lookup(src) != db.Sources.Lookup(src) {
			t.Errorf("the last part numbers %s %d, the monolith %d", src, last.Lookup(src), db.Sources.Lookup(src))
		}
	}
	ivs := func(src string) (out []int32) {
		for _, r := range db.SourceMentions(db.Sources.Lookup(src)) {
			out = append(out, db.Mentions.Interval[r])
		}
		return out
	}
	w := publisherWindows
	if some := ivs("some.com"); !slices.Contains(some, w[0][0]) || !slices.Contains(some, w[0][1]) {
		t.Errorf("some.com intervals %v, want mentions on both edges of window %v", some, w[0])
	}
	for _, iv := range ivs("edges.com") {
		if iv >= w[1][0] && iv < w[1][1] {
			t.Errorf("edges.com has a mention at %d inside window %v", iv, w[1])
		}
	}
}
