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

// TopThemes returns the k most frequent GKG themes. A theme's count is its
// postings length: one entry per (row, theme) occurrence, so a row listing
// a theme twice counts twice.
func TopThemes(e *engine.Engine, k int) ([]ThemeCount, error) {
	db := e.DB()
	if db.GKG == nil {
		return nil, ErrNoGKG
	}
	g := db.GKG
	counts := make([]int64, g.Themes.Len())
	for t := range counts {
		counts[t] = int64(len(g.ThemeRows(int32(t))))
	}
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
	post := make([][]int32, n)
	totals := make([]int64, n)
	for i, tc := range top {
		post[i] = g.ThemeRows(g.Themes.Lookup(tc.Theme))
		totals[i] = tc.Articles
	}
	pair := matrix.NewInt64(n, n)
	parallel.ForOpt(n, scanOptGrain1(e), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// A row listing theme i m times holds m(m-1) ordered pairs
			// of distinct occurrences: the m² pairs less the m of one
			// occurrence with itself.
			pair.Set(i, i, sharedPairs(post[i], post[i])-int64(len(post[i])))
			for j := i + 1; j < n; j++ {
				c := sharedPairs(post[i], post[j])
				pair.Set(i, j, c)
				pair.Set(j, i, c)
			}
		}
	})
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

// sharedPairs merges two themes' postings: a row listing the first theme a
// times and the second b times contributes a·b pairs.
func sharedPairs(x, y []int32) (c int64) {
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			x = x[1:]
		case x[0] > y[0]:
			y = y[1:]
		default:
			a, b := runLen(x), runLen(y)
			c += int64(a) * int64(b)
			x, y = x[a:], y[b:]
		}
	}
	return c
}

// runLen returns how many leading entries of the sorted x equal x[0].
func runLen(x []int32) int {
	a := 1
	for a < len(x) && x[a] == x[0] {
		a++
	}
	return a
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
