package gen

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gdeltmine/internal/gdelt"
)

// smallCorpus caches the Small() corpus across tests in this package.
var smallCorpus *Corpus

func testCorpus(t testing.TB) *Corpus {
	t.Helper()
	if smallCorpus == nil {
		c, err := Generate(Small())
		if err != nil {
			t.Fatal(err)
		}
		smallCorpus = c
	}
	return smallCorpus
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) || len(a.Mentions) != len(b.Mentions) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", len(a.Events), len(a.Mentions), len(b.Events), len(b.Mentions))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	for i := range a.Mentions {
		if a.Mentions[i] != b.Mentions[i] {
			t.Fatalf("mention %d differs", i)
		}
	}
}

func TestCorpusBasicShape(t *testing.T) {
	c := testCorpus(t)
	s := tableIOf(c)
	if s.Events < 5000 {
		t.Fatalf("too few events: %d", s.Events)
	}
	if s.Articles < 3*s.Events/2 {
		t.Fatalf("articles %d vs events %d: weighted average too low", s.Articles, s.Events)
	}
	if s.MinArticles != 1 {
		t.Fatalf("min articles per event %d want 1", s.MinArticles)
	}
	if s.WeightedAvg < 2.0 || s.WeightedAvg > 6.0 {
		t.Fatalf("weighted average articles/event %.2f not near the paper's 3.36", s.WeightedAvg)
	}
	// The headline events dominate: max articles far above the typical 1-5.
	if s.MaxArticles < 20 {
		t.Fatalf("max articles %d: headline events missing", s.MaxArticles)
	}
}

func TestMentionsSortedAndConsistent(t *testing.T) {
	c := testCorpus(t)
	last := int32(-1)
	lastInterval := int32(c.World.Days()*gdelt.IntervalsPerDay - 1)
	for i, m := range c.Mentions {
		if m.Interval < last {
			t.Fatalf("mentions not sorted at %d", i)
		}
		last = m.Interval
		if m.Interval > lastInterval {
			t.Fatalf("mention %d beyond archive end", i)
		}
		if int(m.Event) >= len(c.Events) || m.Event < 0 {
			t.Fatalf("mention %d has bad event index", i)
		}
		if int(m.Source) >= len(c.World.Sources) || m.Source < 0 {
			t.Fatalf("mention %d has bad source index", i)
		}
		if m.Interval < c.Events[m.Event].Interval {
			t.Fatalf("mention %d precedes its event", i)
		}
	}
}

func TestEventInvariants(t *testing.T) {
	c := testCorpus(t)
	seen := map[int64]bool{}
	for i := range c.Events {
		ev := &c.Events[i]
		if seen[ev.ID] {
			t.Fatalf("duplicate event id %d", ev.ID)
		}
		seen[ev.ID] = true
		if ev.NumArticles < 1 {
			t.Fatalf("event %d has %d articles", i, ev.NumArticles)
		}
		if ev.FirstMention < ev.Interval {
			t.Fatalf("event %d first mention before event", i)
		}
		if int(ev.Country) >= len(gdelt.Countries) {
			t.Fatalf("event %d country out of range", i)
		}
	}
}

func TestPowerLawEventSizes(t *testing.T) {
	c := testCorpus(t)
	// Count events per article-count; the head must decay like a power law:
	// strictly decreasing counts over the first few sizes, with size-1 or
	// size-2 events the most common.
	counts := map[int32]int{}
	for i := range c.Events {
		counts[c.Events[i].NumArticles]++
	}
	if counts[1] < counts[5] {
		t.Fatalf("size-1 events (%d) should far outnumber size-5 (%d)", counts[1], counts[5])
	}
	if counts[1]+counts[2]+counts[3] < len(c.Events)/2 {
		t.Fatal("typical event should be covered by only a few sites")
	}
}

func TestDefectInjectionCounts(t *testing.T) {
	c := testCorpus(t)
	cfg := c.World.Cfg
	var noURL, future int
	for i := range c.Events {
		if c.Events[i].NoURL {
			noURL++
		}
		if c.Events[i].FutureDay != 0 {
			future++
			// Defect definition: recorded day after first mention's day.
			firstDay := c.dayYYYYMMDD[int(c.Events[i].FirstMention)/gdelt.IntervalsPerDay]
			if c.Events[i].FutureDay <= firstDay {
				t.Fatalf("future-day defect not actually in the future: %d vs %d",
					c.Events[i].FutureDay, firstDay)
			}
		}
	}
	if noURL != cfg.DefectMissingSourceURL {
		t.Fatalf("noURL %d want %d", noURL, cfg.DefectMissingSourceURL)
	}
	if future != cfg.DefectFutureEventDate {
		t.Fatalf("future %d want %d", future, cfg.DefectFutureEventDate)
	}
}

func TestHeadlineEventsAreTop(t *testing.T) {
	c := testCorpus(t)
	// The largest event must be a headline event with coverage around 85%
	// of the sources active in its quarter.
	var maxIdx int
	for i := range c.Events {
		if c.Events[i].NumArticles > c.Events[maxIdx].NumArticles {
			maxIdx = i
		}
	}
	if !c.Events[maxIdx].Headline {
		t.Fatal("largest event is not a headline event")
	}
	q := c.World.quarterOfDay(int(c.Events[maxIdx].Interval) / gdelt.IntervalsPerDay)
	active := c.World.ActiveSources(q)
	cover := float64(c.Events[maxIdx].NumArticles) / float64(active)
	if cover < 0.6 || cover > 1.1 {
		t.Fatalf("headline coverage %.2f of active sources, want ~0.85", cover)
	}
}

func TestRecordsMaterialize(t *testing.T) {
	c := testCorpus(t)
	ev := c.EventRecord(0)
	if ev.GlobalEventID == 0 || ev.Day == 0 || !ev.DateAdded.Valid() {
		t.Fatalf("event record %+v", ev)
	}
	if ev.SourceURL == "" && !c.Events[0].NoURL {
		t.Fatal("event record missing URL")
	}
	mn := c.MentionRecord(0)
	if mn.GlobalEventID == 0 || !mn.MentionTime.Valid() || !mn.EventTime.Valid() {
		t.Fatalf("mention record %+v", mn)
	}
	if mn.SourceName == "" || !strings.HasPrefix(mn.Identifier, "https://") {
		t.Fatalf("mention identity %+v", mn)
	}
	if mn.MentionType != gdelt.MentionTypeWeb {
		t.Fatalf("mention type %d", mn.MentionType)
	}
	if d := mn.Delay(); d < 1 {
		t.Fatalf("mention delay %d", d)
	}
}

func TestDelayProfiles(t *testing.T) {
	c := testCorpus(t)
	// Collect delays by speed class of the source.
	delays := map[SpeedClass][]int64{}
	for j := range c.Mentions {
		m := &c.Mentions[j]
		d := int64(m.Interval-c.Events[m.Event].Interval) + 1
		sp := c.World.Sources[m.Source].Speed
		delays[sp] = append(delays[sp], d)
	}
	med := func(xs []int64) int64 {
		if len(xs) == 0 {
			return -1
		}
		cp := append([]int64(nil), xs...)
		// insertion-free: simple selection via sort
		for i := 1; i < len(cp); i++ {
			for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
				cp[j], cp[j-1] = cp[j-1], cp[j]
			}
		}
		return cp[len(cp)/2]
	}
	if m := med(delays[SpeedAverage]); m < 8 || m > 40 {
		t.Fatalf("average-class median delay %d intervals, want ~16 (4h)", m)
	}
	if m := med(delays[SpeedFast]); m < 1 || m > 12 {
		t.Fatalf("fast-class median delay %d intervals, want <2h", m)
	}
	if len(delays[SpeedSlow]) > 0 {
		if m := med(delays[SpeedSlow]); m < 48 {
			t.Fatalf("slow-class median delay %d intervals, want days", m)
		}
	}
}

func TestYearBandExists(t *testing.T) {
	c := testCorpus(t)
	var yearBand int
	for j := range c.Mentions {
		m := &c.Mentions[j]
		d := int64(m.Interval-c.Events[m.Event].Interval) + 1
		if d > gdelt.IntervalsPerYear-2*gdelt.IntervalsPerDay {
			yearBand++
		}
		if d > gdelt.IntervalsPerYear+gdelt.IntervalsPerDay {
			t.Fatalf("delay %d beyond the one-year-plus-a-day cap", d)
		}
	}
	if yearBand == 0 {
		t.Fatal("no anniversary articles generated (Table VIII max band missing)")
	}
}

func TestTailTrendDeclines(t *testing.T) {
	c := testCorpus(t)
	// Articles with delay > 24h per year: 2019 must be clearly below 2016
	// relative to volume (Figure 11).
	slow := map[int]int{}
	total := map[int]int{}
	for j := range c.Mentions {
		m := &c.Mentions[j]
		d := int64(m.Interval-c.Events[m.Event].Interval) + 1
		year := int(c.dayYYYYMMDD[int(m.Interval)/gdelt.IntervalsPerDay] / 10000)
		total[year]++
		if d > gdelt.IntervalsPerDay {
			slow[year]++
		}
	}
	f2016 := float64(slow[2016]) / float64(total[2016])
	f2019 := float64(slow[2019]) / float64(total[2019])
	if f2019 >= f2016*0.9 {
		t.Fatalf("slow-article fraction did not decline: 2016=%.4f 2019=%.4f", f2016, f2019)
	}
}

func TestWriteRaw(t *testing.T) {
	c := testCorpus(t)
	dir := t.TempDir()
	res, err := WriteRaw(c, dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.World.Cfg
	if res.MalformedLines != cfg.DefectMalformedMaster {
		t.Fatalf("malformed lines %d", res.MalformedLines)
	}
	if len(res.MissingFiles) != cfg.DefectMissingArchives {
		t.Fatalf("missing files %d want %d", len(res.MissingFiles), cfg.DefectMissingArchives)
	}
	if res.FilesWritten != res.FilesPerChunk*res.Chunks-len(res.MissingFiles) {
		t.Fatalf("files written %d, chunks %d, missing %d", res.FilesWritten, res.Chunks, len(res.MissingFiles))
	}
	// Master list round-trips and matches what is on disk.
	f, err := os.Open(res.MasterPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ml, err := gdelt.ReadMasterList(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ml.Malformed) != cfg.DefectMalformedMaster {
		t.Fatalf("master malformed %d", len(ml.Malformed))
	}
	if len(ml.Entries) != res.FilesPerChunk*res.Chunks {
		t.Fatalf("master entries %d want %d", len(ml.Entries), res.FilesPerChunk*res.Chunks)
	}
	var present, absent int
	for _, e := range ml.Entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Path))
		if err != nil {
			absent++
			continue
		}
		present++
		if int64(len(data)) != e.Size {
			t.Fatalf("entry %s size %d, file %d", e.Path, e.Size, len(data))
		}
		if gdelt.Checksum32(data) != e.Checksum {
			t.Fatalf("entry %s checksum mismatch", e.Path)
		}
	}
	if absent != cfg.DefectMissingArchives {
		t.Fatalf("absent files %d", absent)
	}
	if present != res.FilesWritten {
		t.Fatalf("present %d vs written %d", present, res.FilesWritten)
	}
}

func TestWriteRawRowsParse(t *testing.T) {
	c := testCorpus(t)
	dir := t.TempDir()
	res, err := WriteRaw(c, dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(res.MasterPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ml, err := gdelt.ReadMasterList(f)
	if err != nil {
		t.Fatal(err)
	}
	var events, mentions int
	for _, e := range ml.Entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Path))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			fields := gdelt.SplitTabs([]byte(line), nil)
			switch e.Kind() {
			case "export":
				if _, err := gdelt.ParseEventFields(fields); err != nil {
					t.Fatalf("event row in %s: %v", e.Path, err)
				}
				events++
			case "mentions":
				if _, err := gdelt.ParseMentionFields(fields); err != nil {
					t.Fatalf("mention row in %s: %v", e.Path, err)
				}
				mentions++
			}
		}
	}
	if events == 0 || mentions == 0 {
		t.Fatalf("no rows parsed: %d events %d mentions", events, mentions)
	}
	// Written rows are a subset of the corpus (missing archives withheld).
	if events > len(c.Events) || mentions > len(c.Mentions) {
		t.Fatalf("more rows than corpus: %d/%d events, %d/%d mentions",
			events, len(c.Events), mentions, len(c.Mentions))
	}
}

func TestStatsWeightedAverage(t *testing.T) {
	c := testCorpus(t)
	s := tableIOf(c)
	var sum int64
	for i := range c.Events {
		sum += int64(c.Events[i].NumArticles)
	}
	if sum != int64(s.Articles) {
		t.Fatalf("article count mismatch: %d vs %d", sum, s.Articles)
	}
	if math.Abs(s.WeightedAvg-float64(s.Articles)/float64(s.Events)) > 1e-9 {
		t.Fatal("weighted average inconsistent")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := Small()
	bad.Sources = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("bad config should fail")
	}
}

// tableI summarizes a corpus for Table I.
type tableI struct {
	Sources          int
	Events           int
	CaptureIntervals int
	Articles         int
	MinArticles      int32
	MaxArticles      int32
	WeightedAvg      float64
}

// tableIOf computes the Table I summary of c.
func tableIOf(c *Corpus) tableI {
	s := tableI{
		Sources:          len(c.World.Sources),
		Events:           len(c.Events),
		Articles:         len(c.Mentions),
		CaptureIntervals: c.World.Days() * gdelt.IntervalsPerDay,
	}
	if len(c.Events) > 0 {
		s.MinArticles = math.MaxInt32
		for i := range c.Events {
			n := c.Events[i].NumArticles
			if n < s.MinArticles {
				s.MinArticles = n
			}
			if n > s.MaxArticles {
				s.MaxArticles = n
			}
		}
		s.WeightedAvg = float64(len(c.Mentions)) / float64(len(c.Events))
	}
	return s
}
