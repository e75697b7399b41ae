package stream

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

func streamCorpus(t testing.TB) *gen.Corpus {
	t.Helper()
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tickRows is one feed tick of a generated corpus as the raw writer files
// it: the events first mentioned in the tick and the mentions captured in
// it.
type tickRows struct {
	ts  gdelt.Timestamp
	evs []gdelt.Event
	mns []gdelt.Mention
}

// corpusTicks cuts a corpus into ticks of spacing capture intervals.
func corpusTicks(c *gen.Corpus, spacing int32) []tickRows {
	n := (int32(c.World.Days()*gdelt.IntervalsPerDay) + spacing - 1) / spacing
	out := make([]tickRows, n)
	for i := range out {
		out[i].ts = c.IntervalTimestamp(int32(i) * spacing)
	}
	for i := range c.Events {
		k := min(max(c.Events[i].FirstMention/spacing, 0), n-1)
		out[k].evs = append(out[k].evs, c.EventRecord(i))
	}
	for j := range c.Mentions {
		k := c.Mentions[j].Interval / spacing
		out[k].mns = append(out[k].mns, c.MentionRecord(j))
	}
	return out
}

// emptyWorld is an empty K=1 world of intervals capture intervals.
func emptyWorld(t testing.TB, start gdelt.Timestamp, intervals int32) *shard.DB {
	t.Helper()
	b, err := store.NewBuilder(start, intervals)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := shard.Split(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// corpusLog is an in-memory log spanning exactly the corpus's archive.
func corpusLog(t testing.TB, c *gen.Corpus) *shard.Log {
	return shard.NewLog(emptyWorld(t, gdelt.Timestamp(c.World.Cfg.Start), int32(c.World.Days()*gdelt.IntervalsPerDay)))
}

// foldTicks folds ticks in order, skipping the indexes in skip and sealing
// through a compactor after every fold, and returns the alerts fired.
func foldTicks(t *testing.T, m *Monitor, ticks []tickRows, skip ...int) []Alert {
	t.Helper()
	comp := NewCompactor(m.lg, CompactorConfig{MaxTailSpan: 5 * gdelt.IntervalsPerDay})
	var alerts []Alert
	for i, tk := range ticks {
		if slices.Contains(skip, i) || m.SeenChunk(tk.ts) {
			continue
		}
		f, err := m.Fold(tk.ts, tk.evs, tk.mns, nil)
		if errors.Is(err, ErrStale) {
			continue
		}
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		alerts = append(alerts, f.Alerts...)
		if _, err := comp.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}
	return alerts
}

// kindAnswers encodes every registry kind's default answer on s; GKG
// kinds sit out (appends never extend GKG), and so do the defect tallies,
// which count what each ingest path saw rather than what the world holds.
func kindAnswers(t *testing.T, s *shard.DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, d := range registry.All() {
		if d.NeedsGKG || d.Kind == "defects" {
			continue
		}
		p, err := d.ParseParams(func(string) []string { return nil })
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.RunSharded(s.View().WithWorkers(2).WithKind(d.Kind), p)
		if err != nil {
			t.Fatalf("%s: %v", d.Kind, err)
		}
		js, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		out[d.Kind] = string(js)
	}
	return out
}

func sameAnswers(t *testing.T, got, want map[string]string, what string) {
	t.Helper()
	for kind, w := range want {
		if got[kind] != w {
			t.Errorf("%s: %s diverges\n got  %.300s\n want %.300s", kind, what, got[kind], w)
		}
	}
}

// TestMonitorTotalsMatchBatch: a log fed the corpus tick by tick answers
// the printed totals (stats, slow articles, top publishers) — and every
// other kind — exactly like the batch-converted world.
func TestMonitorTotalsMatchBatch(t *testing.T) {
	c := streamCorpus(t)
	m := NewMonitor(corpusLog(t, c), Config{Window: 16, MinSources: 3})
	foldTicks(t, m, corpusTicks(c, gdelt.IntervalsPerDay))

	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := shard.Split(res.DB, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := kindAnswers(t, m.lg.Snapshot())
	sameAnswers(t, got, kindAnswers(t, batch), "streamed log vs batch world")
	var ds queries.DatasetStats
	if err := json.Unmarshal([]byte(got["stats"]), &ds); err != nil {
		t.Fatal(err)
	}
	if ds.Articles != int64(len(c.Mentions)) {
		t.Fatalf("log holds %d articles, corpus has %d", ds.Articles, len(c.Mentions))
	}
}

// TestMonitorAlertsMatchBatchWildfires: the events alerted so far are, on
// every snapshot checked, exactly the wildfires of that snapshot, and at
// the end exactly the batch engine's wildfires.
func TestMonitorAlertsMatchBatchWildfires(t *testing.T) {
	c := streamCorpus(t)
	const window, minSources = 16, 5
	m := NewMonitor(corpusLog(t, c), Config{Window: window, MinSources: minSources})
	ticks := corpusTicks(c, gdelt.IntervalsPerDay)
	alerted := map[int64]bool{}
	check := func(s *shard.DB, what string) {
		t.Helper()
		fires := s.View().FastSpreadingEvents(window, minSources, 1<<30)
		if len(fires) != len(alerted) {
			t.Fatalf("%s: %d alerts, %d wildfires", what, len(alerted), len(fires))
		}
		for _, w := range fires {
			if !alerted[w.EventID] {
				t.Fatalf("%s: wildfire %d never alerted", what, w.EventID)
			}
		}
	}
	for i := 0; i < len(ticks); i += 97 {
		for _, a := range foldTicks(t, m, ticks[i:min(i+97, len(ticks))]) {
			if alerted[a.EventID] {
				t.Fatalf("event %d alerted twice", a.EventID)
			}
			if a.Sources < minSources {
				t.Fatalf("alert %+v below the threshold %d", a, minSources)
			}
			alerted[a.EventID] = true
		}
		check(m.lg.Snapshot(), ticks[min(i+96, len(ticks)-1)].ts.String())
	}

	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	batch := queries.FastSpreadingEvents(engine.New(res.DB), window, minSources, 1<<30)
	if len(batch) == 0 {
		t.Fatal("no batch wildfires; test corpus too small")
	}
	if len(batch) != len(alerted) {
		t.Fatalf("%d alerts, %d batch wildfires", len(alerted), len(batch))
	}
	for _, w := range batch {
		if !alerted[w.EventID] {
			t.Fatalf("batch wildfire %d not alerted by the stream", w.EventID)
		}
	}
}

const testBase = gdelt.Timestamp(20150218000000)

// ivTS returns the timestamp of interval offset iv from the test base.
func ivTS(iv int64) gdelt.Timestamp {
	return gdelt.IntervalStart(testBase.IntervalIndex() + iv)
}

// event builds the export row of an event first published at offset iv.
func event(id, iv int64) gdelt.Event {
	return gdelt.Event{GlobalEventID: id, Day: 20150218, DateAdded: ivTS(iv)}
}

// mention builds a web mention captured at offset iv of an event ignited
// at offset evIv.
func mention(id, evIv, iv int64, source string) gdelt.Mention {
	return gdelt.Mention{GlobalEventID: id, EventTime: ivTS(evIv), MentionTime: ivTS(iv),
		MentionType: gdelt.MentionTypeWeb, SourceName: source}
}

// testMonitor is a monitor over an empty in-memory log of 1,000 intervals.
func testMonitor(t *testing.T, cfg Config) *Monitor {
	return NewMonitor(shard.NewLog(emptyWorld(t, testBase, 1000)), cfg)
}

// fold folds one synthetic tick and fails the test on error.
func fold(t *testing.T, m *Monitor, iv int64, evs []gdelt.Event, mns ...gdelt.Mention) Folded {
	t.Helper()
	f, err := m.Fold(ivTS(iv), evs, mns, nil)
	if err != nil {
		t.Fatalf("tick %d: %v", iv, err)
	}
	return f
}

// TestMonitorEviction: a mention past an event's early window never makes
// it fire, however late the clock — the window closes, it is not evicted.
func TestMonitorEviction(t *testing.T) {
	m := testMonitor(t, Config{Window: 4, MinSources: 2})
	fold(t, m, 0, []gdelt.Event{event(1, 0)}, mention(1, 0, 0, "a.com"))
	fold(t, m, 100, []gdelt.Event{event(2, 100)}, mention(2, 100, 100, "b.com"))
	if f := fold(t, m, 101, nil, mention(1, 0, 101, "c.com")); len(f.Alerts) != 0 {
		t.Fatalf("a mention outside the window alerted: %+v", f.Alerts)
	}
	s := m.lg.Snapshot()
	if got := s.EarlySources([]int64{1}, 4); got[0] != 1 {
		t.Fatalf("event 1 has %d early sources, want 1", got[0])
	}
	// Ids out of row order, repeated and unknown answer each in place.
	if got, want := s.EarlySources([]int64{2, 1, 99, 1}, 4), []int{1, 1, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("early sources of events 2, 1, 99, 1: %v, want %v", got, want)
	}
	if fires := s.View().FastSpreadingEvents(4, 2, 10); len(fires) != 0 {
		t.Fatalf("wildfires %+v on a world without any", fires)
	}
}

// TestLateMentionAfterEvictionAlerts: a tick carries a mention captured
// seven intervals before it, of an event the clock passed by more than the
// window. It lies inside the event's window, so wildfires counts it, and
// so must the alert: a monitor that forgot the event once the clock moved
// on would never fire.
func TestLateMentionAfterEvictionAlerts(t *testing.T) {
	m := testMonitor(t, Config{Window: 4, MinSources: 2, GraceIntervals: 8})
	fold(t, m, 0, []gdelt.Event{event(1, 0)}, mention(1, 0, 0, "a.com"))
	f := fold(t, m, 10, []gdelt.Event{event(2, 10)},
		mention(2, 10, 10, "b.com"), mention(1, 0, 3, "b.com"))
	if len(f.Alerts) != 1 || f.Alerts[0] != (Alert{EventID: 1, FiredAt: 10, Sources: 2}) {
		t.Fatalf("alerts %+v, want event 1 firing at tick 10 with 2 sources", f.Alerts)
	}
	fires := m.lg.Snapshot().View().FastSpreadingEvents(4, 2, 10)
	if len(fires) != 1 || fires[0].EventID != 1 {
		t.Fatalf("wildfires %+v, want event 1 alone", fires)
	}
}

// TestMonitorAlertThresholdExact: an event fires on the tick its count
// first reaches MinSources — never below it, never twice — and reports the
// count that tick left, which a tick bringing several sources pushes past
// the threshold.
func TestMonitorAlertThresholdExact(t *testing.T) {
	m := testMonitor(t, Config{Window: 8, MinSources: 3})
	fires := func(f Folded) int { return len(f.Alerts) }
	if n := fires(fold(t, m, 0, []gdelt.Event{event(7, 0)}, mention(7, 0, 0, "a.com"))) +
		fires(fold(t, m, 1, nil, mention(7, 0, 1, "a.com"))) + // duplicate source: no progress
		fires(fold(t, m, 2, nil, mention(7, 0, 2, "b.com"))); n != 0 {
		t.Fatalf("%d premature alerts", n)
	}
	f := fold(t, m, 3, nil, mention(7, 0, 3, "c.com"))
	if len(f.Alerts) != 1 || f.Alerts[0] != (Alert{EventID: 7, FiredAt: 3, Sources: 3}) {
		t.Fatalf("alerts %+v", f.Alerts)
	}
	if n := fires(fold(t, m, 4, nil, mention(7, 0, 4, "d.com"))); n != 0 {
		t.Fatal("re-alerted")
	}
	fold(t, m, 5, []gdelt.Event{event(8, 5)}, mention(8, 5, 5, "a.com"), mention(8, 5, 5, "b.com"))
	f = fold(t, m, 6, nil, mention(8, 5, 6, "c.com"), mention(8, 5, 6, "d.com"))
	if len(f.Alerts) != 1 || f.Alerts[0] != (Alert{EventID: 8, FiredAt: 6, Sources: 4}) {
		t.Fatalf("alerts %+v, want event 8 at 4 sources", f.Alerts)
	}
}

// TestMonitorRejectsTimeRegression: in strict feed order a tick behind
// the newest one is stale and refused before anything is appended.
func TestMonitorRejectsTimeRegression(t *testing.T) {
	m := testMonitor(t, Config{})
	fold(t, m, 10, []gdelt.Event{event(1, 10)}, mention(1, 10, 10, "a"))
	before, ledger := m.lg.Snapshot(), m.lg.Ledger()
	if m.Foldable(ivTS(5)) {
		t.Fatal("a regressing tick reported foldable")
	}
	_, err := m.Fold(ivTS(5), []gdelt.Event{event(2, 5)}, []gdelt.Mention{mention(2, 5, 5, "a")}, nil)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("regression: err %v, want ErrStale", err)
	}
	if m.lg.Snapshot() != before || !slices.Equal(m.lg.Ledger(), ledger) {
		t.Fatal("a refused tick changed the log")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Window != 8 || c.MinSources != 5 || c.GraceIntervals != 0 || c.ChunkIntervals != 1 {
		t.Fatalf("defaults %+v", c)
	}
}
