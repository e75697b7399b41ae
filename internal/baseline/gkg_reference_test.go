package baseline

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// gkgRow is one GKG row as a record lists it: its archive-relative capture
// interval and its themes, in record order.
type gkgRow struct {
	iv     int32
	themes []string
}

// corpusGKGRows returns the GKG rows of c as the raw writer emits them, in
// corpus order.
func corpusGKGRows(c *gen.Corpus) []gkgRow {
	base := gdelt.Timestamp(c.World.Cfg.Start).IntervalIndex()
	rows := make([]gkgRow, len(c.Mentions))
	for j := range c.Mentions {
		rec := c.GKGRecord(j)
		rows[j] = gkgRow{int32(rec.Date.IntervalIndex() - base), rec.Themes}
	}
	return rows
}

// refTopThemes counts theme occurrences over the rows captured in [lo, hi)
// by walking every row's theme list, and ranks the themes by count, ties
// toward the theme seen first in the whole row list (the dictionary order
// a store built from those rows gives). A theme no row in range carries
// still ranks, with count 0.
func refTopThemes(rows []gkgRow, k int, lo, hi int32) []queries.ThemeCount {
	var names []string
	count := map[string]int64{}
	for _, r := range rows {
		for _, th := range r.themes {
			if _, ok := count[th]; !ok {
				names = append(names, th)
				count[th] = 0
			}
			if r.iv >= lo && r.iv < hi {
				count[th]++
			}
		}
	}
	slices.SortStableFunc(names, func(a, b string) int {
		switch {
		case count[a] > count[b]:
			return -1
		case count[a] < count[b]:
			return 1
		}
		return 0
	})
	out := []queries.ThemeCount{}
	for _, th := range names[:min(k, len(names))] {
		out = append(out, queries.ThemeCount{Theme: th, Articles: count[th]})
	}
	return out
}

// refCooccurrence counts, over the rows captured in [lo, hi), every ordered
// pair of distinct theme occurrences within a row whose themes are both
// among top: a row listing themes a and b once each adds 1 to cells (a, b)
// and (b, a); a row listing a twice adds 2 to cell (a, a).
func refCooccurrence(rows []gkgRow, top []string, lo, hi int32) *matrix.Int64 {
	m := matrix.NewInt64(len(top), len(top))
	pos := map[string]int{}
	for i, th := range top {
		pos[th] = i
	}
	for _, r := range rows {
		if r.iv < lo || r.iv >= hi {
			continue
		}
		var sel []int
		for _, th := range r.themes {
			if i, ok := pos[th]; ok {
				sel = append(sel, i)
			}
		}
		for a := range sel {
			for b := range sel {
				if a != b {
					m.Inc(sel[a], sel[b])
				}
			}
		}
	}
	return m
}

// checkGKGKernels compares TopThemes and ThemeCooccurrences with the row
// references: on the monolith's engine, TopThemes on the sharded view at
// K ∈ {1, 3, 5}, and ThemeCooccurrences on every part's engine over that
// part's interval range (which reads the postings Split cut).
func checkGKGKernels(t *testing.T, db *store.DB, rows []gkgRow) {
	t.Helper()
	themeNames := func(tc []queries.ThemeCount) []string {
		var out []string
		for _, c := range tc {
			out = append(out, c.Theme)
		}
		return out
	}
	checkCo := func(what string, e *engine.Engine, k int, lo, hi int32) {
		t.Helper()
		co, err := queries.ThemeCooccurrences(e, k)
		if err != nil {
			t.Fatal(err)
		}
		want := refTopThemes(rows, k, lo, hi)
		if !slices.Equal(co.Themes, themeNames(want)) {
			t.Fatalf("%s k=%d: co-occurrence themes %v, reference %v", what, k, co.Themes, themeNames(want))
		}
		if ref := refCooccurrence(rows, co.Themes, lo, hi); !reflect.DeepEqual(co.Counts, ref) {
			t.Fatalf("%s k=%d: co-occurrence counts %v, reference %v", what, k, co.Counts.Data, ref.Data)
		}
	}
	ks := []int{6, 1000}
	for _, k := range ks {
		want := refTopThemes(rows, k, 0, math.MaxInt32)
		got, err := queries.TopThemes(engine.New(db), k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("engine k=%d: TopThemes %v, reference %v", k, got, want)
		}
		checkCo("engine", engine.New(db), k, 0, math.MaxInt32)
	}
	for _, K := range []int{1, 3, 5} {
		sdb, err := shard.Split(db, K)
		if err != nil {
			t.Fatal(err)
		}
		b := sdb.Bounds()
		for _, k := range ks {
			got, err := sdb.View().TopThemes(k)
			if err != nil {
				t.Fatal(err)
			}
			if want := refTopThemes(rows, k, 0, math.MaxInt32); !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d k=%d: TopThemes %v, reference %v", K, k, got, want)
			}
			for i := range K {
				checkCo(fmt.Sprintf("K=%d part %d", K, i), engine.New(sdb.Part(i)), k, b[i], b[i+1])
			}
		}
	}
}

// TestGKGKernelsMatchCorpusReference: the postings-based theme kernels
// equal a reference computed from the generator corpus's per-row theme
// lists, on Small and Bench at seeds 0 and 7.
func TestGKGKernelsMatchCorpusReference(t *testing.T) {
	for _, preset := range []struct {
		name string
		cfg  gen.Config
	}{{"small", gen.Small()}, {"bench", gen.Bench()}} {
		for _, seed := range []int64{0, 7} {
			t.Run(fmt.Sprintf("%s/seed=%d", preset.name, seed), func(t *testing.T) {
				cfg := preset.cfg
				cfg.Seed = seed
				c, err := gen.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := convert.FromCorpus(c)
				if err != nil {
					t.Fatal(err)
				}
				checkGKGKernels(t, res.DB, corpusGKGRows(c))
			})
		}
	}
}

// TestGKGKernelsKeepMultiplicity: a hand-built GKG in which rows list a
// theme twice. Each occurrence counts: in TopThemes, in the co-occurrence
// cells with other themes, and on the diagonal.
func TestGKGKernelsKeepMultiplicity(t *testing.T) {
	const start = gdelt.Timestamp(20150218000000)
	const days = 4
	b, err := store.NewBuilder(start, days*gdelt.IntervalsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	rows := []gkgRow{
		{10, []string{"A", "B", "A"}},
		{20, []string{"B", "C"}},
		{100, []string{"A", "A", "A", "C"}},
		{150, []string{"C"}},
		{200, []string{"B", "B", "A"}},
		{300, []string{"A", "C", "C"}},
	}
	for i, r := range rows {
		at := gdelt.IntervalStart(start.IntervalIndex() + int64(r.iv))
		ev := gdelt.Event{GlobalEventID: int64(i + 1), Day: 20150218, SourceURL: fmt.Sprintf("https://s%d.com/x", i), DateAdded: at}
		b.AddEvent(&ev)
		mn := gdelt.Mention{GlobalEventID: int64(i + 1), EventTime: at, MentionTime: at, MentionType: 1,
			SourceName: fmt.Sprintf("s%d.com", i), DocLen: 100}
		b.AddMention(&mn)
		rec := gdelt.GKGRecord{Date: at, SourceName: mn.SourceName, Themes: r.themes}
		b.AddGKG(&rec)
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	top, err := queries.TopThemes(engine.New(db), 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []queries.ThemeCount{{Theme: "A", Articles: 7}, {Theme: "C", Articles: 5}, {Theme: "B", Articles: 4}}; !reflect.DeepEqual(top, want) {
		t.Fatalf("TopThemes %v, want %v", top, want)
	}
	co, err := queries.ThemeCooccurrences(engine.New(db), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Rows A·A·B, A·A·A·C, A·B·B and A·C·C: A–A 2+6 = 8, A–C 3+2 = 5,
	// A–B 2+2 = 4, C–C 2, B–B 2, B–C 1.
	want := []int64{
		8, 5, 4,
		5, 2, 1,
		4, 1, 2,
	}
	if !slices.Equal(co.Counts.Data, want) {
		t.Fatalf("co-occurrence %v, want %v", co.Counts.Data, want)
	}
	checkGKGKernels(t, db, rows)
}
