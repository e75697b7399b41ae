package queries

import (
	"errors"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/parallel"
)

// ErrNoGKG is returned by theme queries on datasets converted without
// Global Knowledge Graph files.
var ErrNoGKG = errors.New("queries: dataset has no GKG data")

// ThemeCount pairs a theme with its article count.
type ThemeCount struct {
	Theme    string
	Articles int64
}

// TopThemes returns the k most frequent GKG themes.
func TopThemes(e *engine.Engine, k int) ([]ThemeCount, error) {
	db := e.DB()
	if db.GKG == nil {
		return nil, ErrNoGKG
	}
	g := db.GKG
	nt := g.Themes.Len()
	counts := parallel.MapReduce(g.Table.Len(), e.ScanOptions(),
		func() []int64 { return make([]int64, nt) },
		func(acc []int64, lo, hi int) []int64 {
			for r := lo; r < hi; r++ {
				for _, id := range g.Table.RowThemes(r) {
					acc[id]++
				}
			}
			return acc
		},
		func(dst, src []int64) []int64 {
			for i, v := range src {
				dst[i] += v
			}
			return dst
		},
	)
	top := engine.TopK(counts, k)
	out := make([]ThemeCount, 0, len(top))
	for _, t := range top {
		out = append(out, ThemeCount{Theme: g.Themes.Name(int32(t)), Articles: counts[t]})
	}
	return out, nil
}

// ThemeTrend is a quarterly article-count series for one theme.
type ThemeTrend struct {
	Theme  string
	Labels []string
	Values []int64
}

// ThemeTrends computes quarterly coverage for the named themes using the
// theme postings index.
func ThemeTrends(e *engine.Engine, themes []string) ([]ThemeTrend, error) {
	db := e.DB()
	if db.GKG == nil {
		return nil, ErrNoGKG
	}
	g := db.GKG
	nq := db.NumQuarters()
	labels := quarterLabels(e)
	out := make([]ThemeTrend, len(themes))
	parallel.ForOpt(len(themes), scanOptGrain1(e), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tr := ThemeTrend{Theme: themes[i], Labels: labels, Values: make([]int64, nq)}
			if id := g.Themes.Lookup(themes[i]); id >= 0 {
				for _, r := range g.ThemeRows(id) {
					tr.Values[db.QuarterOfInterval(g.Table.Interval[r])]++
				}
			}
			out[i] = tr
		}
	})
	return out, nil
}

// ThemeCooccurrence computes the co-occurrence matrix of the top-k themes:
// cell (i, j) counts articles annotated with both themes. It is the
// theme-level analogue of the source co-reporting matrix and feeds the same
// clustering machinery.
type ThemeCooccurrence struct {
	Themes []string
	Counts *matrix.Int64
	// Jaccard normalizes co-occurrence by union of article sets.
	Jaccard *matrix.Dense
}

// ThemeCooccurrences computes co-occurrence among the top-k themes.
func ThemeCooccurrences(e *engine.Engine, k int) (*ThemeCooccurrence, error) {
	db := e.DB()
	if db.GKG == nil {
		return nil, ErrNoGKG
	}
	g := db.GKG
	top, err := TopThemes(e, k)
	if err != nil {
		return nil, err
	}
	n := len(top)
	pos := make(map[int32]int, n)
	totals := make([]int64, n)
	for i, tc := range top {
		pos[g.Themes.Lookup(tc.Theme)] = i
		totals[i] = tc.Articles
	}
	pair := parallel.MapReduce(g.Table.Len(), e.ScanOptions(),
		func() *matrix.Int64 { return matrix.NewInt64(n, n) },
		func(acc *matrix.Int64, lo, hi int) *matrix.Int64 {
			var sel []int
			for r := lo; r < hi; r++ {
				sel = sel[:0]
				for _, id := range g.Table.RowThemes(r) {
					if i, ok := pos[id]; ok {
						sel = append(sel, i)
					}
				}
				for a := 0; a < len(sel); a++ {
					for b := a + 1; b < len(sel); b++ {
						acc.Inc(sel[a], sel[b])
						acc.Inc(sel[b], sel[a])
					}
				}
			}
			return acc
		},
		func(dst, src *matrix.Int64) *matrix.Int64 {
			if err := dst.AddMatrix(src); err != nil {
				panic(err)
			}
			return dst
		},
	)
	jac, err := matrix.JaccardFromPairCounts(pair, totals)
	if err != nil {
		return nil, err
	}
	out := &ThemeCooccurrence{Counts: pair, Jaccard: jac}
	for _, tc := range top {
		out.Themes = append(out.Themes, tc.Theme)
	}
	return out, nil
}

// EntityCount pairs an entity (a person) with its article count.
type EntityCount struct {
	Name     string
	Articles int64
}

// PersonsForTheme returns the k people most often mentioned in articles
// carrying the theme.
func PersonsForTheme(e *engine.Engine, theme string, k int) ([]EntityCount, error) {
	db := e.DB()
	if db.GKG == nil {
		return nil, ErrNoGKG
	}
	g := db.GKG
	id := g.Themes.Lookup(theme)
	if id < 0 {
		return nil, nil
	}
	counts := make([]int64, g.Persons.Len())
	for _, r := range g.ThemeRows(id) {
		for _, p := range g.Table.RowPersons(int(r)) {
			counts[p]++
		}
	}
	top := engine.TopK(counts, k)
	out := make([]EntityCount, 0, len(top))
	for _, p := range top {
		if counts[p] == 0 {
			break
		}
		out = append(out, EntityCount{Name: g.Persons.Name(int32(p)), Articles: counts[p]})
	}
	return out, nil
}

// TranslatedShare computes the per-quarter fraction of articles that were
// machine-translated — the Section III translingual feed's footprint.
func TranslatedShare(e *engine.Engine) (labels []string, share []float64, err error) {
	db := e.DB()
	if db.GKG == nil {
		return nil, nil, ErrNoGKG
	}
	g := db.GKG
	nq := db.NumQuarters()
	type pair struct{ translated, total []int64 }
	res := parallel.MapReduce(g.Table.Len(), e.ScanOptions(),
		func() *pair { return &pair{make([]int64, nq), make([]int64, nq)} },
		func(acc *pair, lo, hi int) *pair {
			for r := lo; r < hi; r++ {
				q := db.QuarterOfInterval(g.Table.Interval[r])
				acc.total[q]++
				if g.Table.Translated[r] {
					acc.translated[q]++
				}
			}
			return acc
		},
		func(dst, src *pair) *pair {
			for i := range dst.total {
				dst.total[i] += src.total[i]
				dst.translated[i] += src.translated[i]
			}
			return dst
		},
	)
	share = make([]float64, nq)
	for q := 0; q < nq; q++ {
		if res.total[q] > 0 {
			share[q] = float64(res.translated[q]) / float64(res.total[q])
		}
	}
	return quarterLabels(e), share, nil
}
