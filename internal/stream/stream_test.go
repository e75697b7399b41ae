package stream

import (
	"sort"
	"testing"

	"gdeltmine/internal/baseline"
	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
)

func sortInt64(xs []int64) {
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
}

func streamCorpus(t testing.TB) *gen.Corpus {
	t.Helper()
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMonitorTotalsMatchBatch(t *testing.T) {
	c := streamCorpus(t)
	cfg := Config{Window: 16, MinSources: 3}
	m := NewMonitor(gdelt.Timestamp(c.World.Cfg.Start), cfg)
	for i := range c.Events {
		ev := c.EventRecord(i)
		m.ObserveEvent(&ev)
	}
	for j := range c.Mentions {
		mn := c.MentionRecord(j)
		if err := m.ObserveMention(&mn); err != nil {
			t.Fatal(err)
		}
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	snap := m.Snapshot()
	if snap.Articles != int64(len(c.Mentions)) {
		t.Fatalf("articles %d want %d", snap.Articles, len(c.Mentions))
	}
	if snap.Events != int64(len(c.Events)) {
		t.Fatalf("events %d want %d", snap.Events, len(c.Events))
	}

	// Slow-article count matches the batch engine.
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(res.DB)
	batchSlow := baseline.CountMentions(e, func(row int) bool {
		return int64(res.DB.Mentions.Delay[row]) > gdelt.IntervalsPerDay
	})
	if snap.SlowArticles != batchSlow {
		t.Fatalf("slow articles %d want %d", snap.SlowArticles, batchSlow)
	}

	// The streaming median estimate lands near the exact batch median.
	exact := make([]int64, res.DB.Mentions.Len())
	for i, d := range res.DB.Mentions.Delay {
		exact[i] = int64(d)
	}
	sortInt64(exact)
	batchMedian := float64(exact[len(exact)/2])
	if est := snap.ApproxMedianDelay; est < batchMedian*0.5 || est > batchMedian*2 {
		t.Fatalf("P2 median %v vs exact %v", est, batchMedian)
	}

	// Top publishers match the batch ranking.
	top := m.TopPublishers(5)
	ids, counts := queries.TopPublishers(e, 5)
	for i := range top {
		if top[i].Source != res.DB.Sources.Name(ids[i]) || top[i].Articles != counts[i] {
			t.Fatalf("rank %d: stream %v batch %s/%d", i, top[i], res.DB.Sources.Name(ids[i]), counts[i])
		}
	}
}

func TestMonitorAlertsMatchBatchWildfires(t *testing.T) {
	c := streamCorpus(t)
	const window, minSources = 16, 5
	m := NewMonitor(gdelt.Timestamp(c.World.Cfg.Start), Config{Window: window, MinSources: minSources})
	for j := range c.Mentions {
		mn := c.MentionRecord(j)
		if err := m.ObserveMention(&mn); err != nil {
			t.Fatal(err)
		}
	}
	alerted := map[int64]bool{}
	for _, a := range m.Snapshot().Alerts {
		if alerted[a.EventID] {
			t.Fatalf("event %d alerted twice", a.EventID)
		}
		alerted[a.EventID] = true
		if a.Sources != minSources {
			t.Fatalf("alert fired at %d sources, want exactly the threshold %d", a.Sources, minSources)
		}
	}

	// Ground truth: the batch wildfire query with the same parameters.
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(res.DB)
	batch := queries.FastSpreadingEvents(e, window, minSources, 1<<30)
	batchSet := map[int64]bool{}
	for _, w := range batch {
		batchSet[w.EventID] = true
	}
	if len(batchSet) == 0 {
		t.Fatal("no batch wildfires; test corpus too small")
	}
	for id := range batchSet {
		if !alerted[id] {
			t.Fatalf("batch wildfire %d not alerted by the stream", id)
		}
	}
	for id := range alerted {
		if !batchSet[id] {
			t.Fatalf("stream alerted %d which batch does not consider a wildfire", id)
		}
	}
}

func TestMonitorEviction(t *testing.T) {
	start := gdelt.Timestamp(20150218000000)
	m := NewMonitor(start, Config{Window: 4, MinSources: 2})
	mk := func(event int64, evIv, mnIv int64, src string) *gdelt.Mention {
		return &gdelt.Mention{
			GlobalEventID: event,
			EventTime:     gdelt.IntervalStart(evIv),
			MentionTime:   gdelt.IntervalStart(mnIv),
			MentionType:   1,
			SourceName:    src,
		}
	}
	if err := m.ObserveMention(mk(1, 0, 0, "a.com")); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().TrackedEvents != 1 {
		t.Fatal("event 1 not tracked")
	}
	// Far later mention evicts event 1 from the horizon.
	if err := m.ObserveMention(mk(2, 100, 100, "b.com")); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.TrackedEvents != 1 {
		t.Fatalf("tracked %d after eviction", snap.TrackedEvents)
	}
	// A late article on event 1 (outside the window) neither re-tracks it
	// nor alerts.
	if err := m.ObserveMention(mk(1, 0, 101, "c.com")); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().TrackedEvents != 1 || len(m.Snapshot().Alerts) != 0 {
		t.Fatal("late article affected wildfire state")
	}
}

func TestMonitorAlertThresholdExact(t *testing.T) {
	start := gdelt.Timestamp(20150218000000)
	m := NewMonitor(start, Config{Window: 8, MinSources: 3})
	mk := func(src string, iv int64) *gdelt.Mention {
		return &gdelt.Mention{GlobalEventID: 7,
			EventTime:   gdelt.IntervalStart(0),
			MentionTime: gdelt.IntervalStart(iv),
			MentionType: 1, SourceName: src}
	}
	m.ObserveMention(mk("a.com", 0))
	m.ObserveMention(mk("a.com", 1)) // duplicate source: no progress
	m.ObserveMention(mk("b.com", 2))
	if len(m.Snapshot().Alerts) != 0 {
		t.Fatal("premature alert")
	}
	m.ObserveMention(mk("c.com", 3))
	alerts := m.Snapshot().Alerts
	if len(alerts) != 1 || alerts[0].EventID != 7 || alerts[0].FiredAt != 3 {
		t.Fatalf("alerts %+v", alerts)
	}
	// Further coverage does not re-alert.
	m.ObserveMention(mk("d.com", 4))
	if len(m.Snapshot().Alerts) != 1 {
		t.Fatal("re-alerted")
	}
}

func TestMonitorRejectsTimeRegression(t *testing.T) {
	start := gdelt.Timestamp(20150218000000)
	m := NewMonitor(start, Config{})
	ok := &gdelt.Mention{GlobalEventID: 1, EventTime: gdelt.IntervalStart(10),
		MentionTime: gdelt.IntervalStart(10), MentionType: 1, SourceName: "a"}
	if err := m.ObserveMention(ok); err != nil {
		t.Fatal(err)
	}
	bad := &gdelt.Mention{GlobalEventID: 1, EventTime: gdelt.IntervalStart(5),
		MentionTime: gdelt.IntervalStart(5), MentionType: 1, SourceName: "a"}
	if err := m.ObserveMention(bad); err == nil {
		t.Fatal("regression accepted")
	}
	if m.Err() == nil {
		t.Fatal("Err not recorded")
	}
	// The bad mention was dropped.
	if m.Snapshot().Articles != 1 {
		t.Fatalf("articles %d", m.Snapshot().Articles)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Window != 8 || c.MinSources != 5 || c.SlowThreshold != gdelt.IntervalsPerDay {
		t.Fatalf("defaults %+v", c)
	}
}
