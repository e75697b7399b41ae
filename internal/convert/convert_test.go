package convert

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/store"
)

func generateSmall(t testing.TB) *gen.Corpus {
	t.Helper()
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFromCorpus(t *testing.T) {
	c := generateSmall(t)
	res, err := FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	db := res.DB
	if db.Events.Len() != len(c.Events) {
		t.Fatalf("events %d vs %d", db.Events.Len(), len(c.Events))
	}
	if db.Mentions.Len() != len(c.Mentions) {
		t.Fatalf("mentions %d vs %d", db.Mentions.Len(), len(c.Mentions))
	}
	if res.Stats.DanglingMentions != 0 || res.Stats.DroppedMentions != 0 || res.Stats.DuplicateEvents != 0 {
		t.Fatalf("unexpected drops: %+v", res.Stats)
	}
	// The corpus defects surface in the report.
	cfg := c.World.Cfg
	if got := db.Report.Counts[gdelt.DefectMissingSourceURL]; got != int64(cfg.DefectMissingSourceURL) {
		t.Fatalf("missing url %d want %d", got, cfg.DefectMissingSourceURL)
	}
	if got := db.Report.Counts[gdelt.DefectFutureEventDate]; got != int64(cfg.DefectFutureEventDate) {
		t.Fatalf("future date %d want %d", got, cfg.DefectFutureEventDate)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromRawDirReproducesTableII(t *testing.T) {
	c := generateSmall(t)
	dir := t.TempDir()
	if _, err := gen.WriteRaw(c, dir); err != nil {
		t.Fatal(err)
	}
	res, err := FromRawDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := res.DB
	cfg := c.World.Cfg
	r := db.Report

	// Table II ground truth: all four defect classes at their configured
	// counts. Missing archives may hide the missing-URL/future-date victim
	// events, so those two are upper-bounded by the configured counts.
	if got := r.Counts[gdelt.DefectMalformedMasterEntry]; got != int64(cfg.DefectMalformedMaster) {
		t.Fatalf("malformed master %d want %d", got, cfg.DefectMalformedMaster)
	}
	if got := r.Counts[gdelt.DefectMissingArchive]; got != int64(cfg.DefectMissingArchives) {
		t.Fatalf("missing archives %d want %d", got, cfg.DefectMissingArchives)
	}
	if got := r.Counts[gdelt.DefectMissingSourceURL]; got > int64(cfg.DefectMissingSourceURL) {
		t.Fatalf("missing url %d want <= %d", got, cfg.DefectMissingSourceURL)
	}
	if got := r.Counts[gdelt.DefectFutureEventDate]; got > int64(cfg.DefectFutureEventDate) {
		t.Fatalf("future date %d want <= %d", got, cfg.DefectFutureEventDate)
	}
	if r.Counts[gdelt.DefectChecksumMismatch] != 0 {
		t.Fatalf("checksum mismatches %d", r.Counts[gdelt.DefectChecksumMismatch])
	}

	// Events/mentions: everything except what lived in the withheld chunks.
	if db.Events.Len() > len(c.Events) || db.Events.Len() < len(c.Events)*8/10 {
		t.Fatalf("events %d vs corpus %d", db.Events.Len(), len(c.Events))
	}
	if db.Mentions.Len() > len(c.Mentions) || db.Mentions.Len() < len(c.Mentions)*8/10 {
		t.Fatalf("mentions %d vs corpus %d", db.Mentions.Len(), len(c.Mentions))
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	// Meta must match the corpus exactly thanks to the sidecar.
	if db.Meta.Start != gdelt.Timestamp(cfg.Start) {
		t.Fatalf("start %v", db.Meta.Start)
	}
	if int(db.Meta.Intervals) != c.World.Days()*gdelt.IntervalsPerDay {
		t.Fatalf("intervals %d", db.Meta.Intervals)
	}
	if db.NumQuarters() != 20 {
		t.Fatalf("quarters %d want 20", db.NumQuarters())
	}
}

// TestRawAndCorpusAgreeWithoutDefects: with no archive withheld, the TSV
// path gdeltconvert runs and FromCorpus build the same world. The event
// table must match column for column; each capture interval's mention and
// GKG rows are compared as sorted multisets, so the check does not hang on
// the order rows of one interval arrive in. Tones are compared at the two
// decimals the raw files carry.
func TestRawAndCorpusAgreeWithoutDefects(t *testing.T) {
	cfg := gen.Small()
	cfg.DefectMalformedMaster = 0
	cfg.DefectMissingArchives = 0
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := gen.WriteRaw(c, dir); err != nil {
		t.Fatal(err)
	}
	raw, err := FromRawDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Stats != direct.Stats {
		t.Fatalf("stats %+v vs %+v", raw.Stats, direct.Stats)
	}
	if raw.DB.Meta != direct.DB.Meta {
		t.Fatalf("meta %+v vs %+v", raw.DB.Meta, direct.DB.Meta)
	}
	re, de := &raw.DB.Events, &direct.DB.Events
	for name, eq := range map[string]bool{
		"ID":           slices.Equal(re.ID, de.ID),
		"Interval":     slices.Equal(re.Interval, de.Interval),
		"Country":      slices.Equal(re.Country, de.Country),
		"SourceURL":    slices.Equal(re.SourceURL, de.SourceURL),
		"NumArticles":  slices.Equal(re.NumArticles, de.NumArticles),
		"FirstMention": slices.Equal(re.FirstMention, de.FirstMention),
	} {
		if !eq {
			t.Errorf("event column %s differs", name)
		}
	}
	if raw.DB.Report.Counts != direct.DB.Report.Counts {
		t.Errorf("defect counts %v vs %v", raw.DB.Report.Counts, direct.DB.Report.Counts)
	}
	if a, b := mentionTuples(raw.DB), mentionTuples(direct.DB); !slices.Equal(a, b) {
		t.Errorf("mention multisets differ (%d vs %d rows)", len(a), len(b))
	}
	if a, b := gkgTuples(raw.DB), gkgTuples(direct.DB); !slices.Equal(a, b) {
		t.Errorf("GKG multisets differ (%d vs %d rows)", len(a), len(b))
	}
}

// mentionTuple is a mention row with its ids resolved to what they name.
type mentionTuple struct {
	Interval   int32
	Event      int64
	Source     string
	Delay      int32
	DocLen     int32
	Tone       string // as the raw files spell it: two decimals
	Confidence int8
}

// mentionTuples lists every mention row ordered by capture interval, then
// by the remaining fields: per interval, the sorted multiset of its rows.
func mentionTuples(db *store.DB) []mentionTuple {
	m := &db.Mentions
	out := make([]mentionTuple, m.Len())
	for r := range out {
		out[r] = mentionTuple{m.Interval[r], db.Events.ID[m.EventRow[r]], db.Sources.Name(m.Source[r]),
			m.Delay[r], m.DocLen[r], strconv.FormatFloat(float64(m.Tone[r]), 'f', 2, 32), m.Confidence[r]}
	}
	slices.SortFunc(out, func(a, b mentionTuple) int {
		return cmp.Or(cmp.Compare(a.Interval, b.Interval), cmp.Compare(a.Event, b.Event),
			cmp.Compare(a.Source, b.Source), cmp.Compare(a.Delay, b.Delay), cmp.Compare(a.DocLen, b.DocLen),
			cmp.Compare(a.Tone, b.Tone), cmp.Compare(a.Confidence, b.Confidence))
	})
	return out
}

// gkgTuples lists every GKG row as "interval translated themes", the row's
// theme names (gathered from the theme postings) sorted, and the rows
// sorted: per interval, the multiset of its rows (and so of its themes).
func gkgTuples(db *store.DB) []string {
	if db.GKG == nil {
		return nil
	}
	g := db.GKG
	themes := make([][]string, g.Table.Len())
	for th := range int32(g.Themes.Len()) {
		for _, r := range g.ThemeRows(th) {
			themes[r] = append(themes[r], g.Themes.Name(th))
		}
	}
	out := make([]string, g.Table.Len())
	for r := range out {
		slices.Sort(themes[r])
		out[r] = fmt.Sprintf("%010d %v %s", g.Table.Interval[r], g.Table.Translated[r], strings.Join(themes[r], ";"))
	}
	slices.Sort(out)
	return out
}

func TestFromRawDirMissingMaster(t *testing.T) {
	if _, err := FromRawDir(t.TempDir()); err == nil {
		t.Fatal("missing master list should fail")
	}
}

func TestFromRawDirEmptyMaster(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, gen.MasterFileName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromRawDir(dir); err == nil {
		t.Fatal("empty master list should fail")
	}
}

func TestFromRawDirBadInfoSidecar(t *testing.T) {
	c := generateSmall(t)
	dir := t.TempDir()
	if _, err := gen.WriteRaw(c, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, gen.InfoFileName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromRawDir(dir); err == nil {
		t.Fatal("malformed sidecar should fail")
	}
}

func TestFromRawDirInferredSpan(t *testing.T) {
	c := generateSmall(t)
	dir := t.TempDir()
	if _, err := gen.WriteRaw(c, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, gen.InfoFileName)); err != nil {
		t.Fatal(err)
	}
	res, err := FromRawDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Without the sidecar the span is inferred from chunk spacing; it must
	// cover at least the real archive.
	if res.DB.Meta.Start != gdelt.Timestamp(c.World.Cfg.Start) {
		t.Fatalf("inferred start %v", res.DB.Meta.Start)
	}
	if int(res.DB.Meta.Intervals) < c.World.Days()*gdelt.IntervalsPerDay {
		t.Fatalf("inferred span too small: %d", res.DB.Meta.Intervals)
	}
}

func TestFromRawDirDetectsTamperedChunk(t *testing.T) {
	c := generateSmall(t)
	dir := t.TempDir()
	res, err := gen.WriteRaw(c, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one written chunk file by appending a byte.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".csv" {
			victim = filepath.Join(dir, e.Name())
			break
		}
	}
	f, err := os.OpenFile(victim, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("\n")
	f.Close()
	conv, err := FromRawDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if conv.DB.Report.Counts[gdelt.DefectChecksumMismatch] != 1 {
		t.Fatalf("checksum mismatch count %d", conv.DB.Report.Counts[gdelt.DefectChecksumMismatch])
	}
	_ = res
}

// BenchmarkFromCorpus times the corpus → store build of the Bench preset
// (~440 k mentions with GKG): rows/s counts event, mention and GKG rows
// fed to the builder, and B/op and allocs/op show what staging and
// assembly allocate.
func BenchmarkFromCorpus(b *testing.B) {
	c, err := gen.Generate(gen.Bench())
	if err != nil {
		b.Fatal(err)
	}
	rows := len(c.Events) + 2*len(c.Mentions)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromCorpus(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}
