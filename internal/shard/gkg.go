package shard

import (
	"gdeltmine/internal/engine"
	"gdeltmine/internal/parallel"
	"gdeltmine/internal/queries"
)

// Sharded GKG queries. GKG scans ignore the mention window (like the
// monolith); a part's theme ids are the world's (its theme dictionary is a
// prefix of the tail's), which keeps the monolith's id order so top-k
// tie-breaks agree.

// TopThemes returns the k most frequent GKG themes across all shards. A
// theme's count is the sum of its postings lengths: the theme postings hold
// one entry per (row, theme) occurrence, a row listing a theme twice
// included, which is exactly what a scan of every row's themes counts. The
// cost is O(themes × K), not O(theme occurrences).
func (v *View) TopThemes(k int) ([]queries.ThemeCount, error) {
	s := v.s
	themes := s.Themes()
	if themes == nil {
		return nil, queries.ErrNoGKG
	}
	counts := make([]int64, themes.Len())
	for _, p := range s.parts {
		for t := range p.GKG.Themes.Len() {
			counts[t] += int64(len(p.GKG.ThemeRows(int32(t))))
		}
	}
	top := engine.TopK(counts, k)
	out := make([]queries.ThemeCount, 0, len(top))
	for _, t := range top {
		out = append(out, queries.ThemeCount{Theme: themes.Name(int32(t)), Articles: counts[t]})
	}
	return out, nil
}

// ThemeTrends computes quarterly coverage for the named themes, walking
// each shard's theme postings. A theme's id is looked up once in the
// world's dictionary; a part whose dictionary stops short of it holds no
// row of it.
func (v *View) ThemeTrends(themes []string) ([]queries.ThemeTrend, error) {
	s := v.s
	if !s.HasGKG() {
		return nil, queries.ErrNoGKG
	}
	nq := s.NumQuarters()
	labels := v.quarterLabels()
	out := make([]queries.ThemeTrend, len(themes))
	parallel.ForOpt(len(themes), v.grain1(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tr := queries.ThemeTrend{Theme: themes[i], Labels: labels, Values: make([]int64, nq)}
			id := s.Themes().Lookup(themes[i])
			for _, p := range s.parts {
				g := p.GKG
				if id < 0 || int(id) >= g.Themes.Len() {
					continue
				}
				for _, r := range g.ThemeRows(id) {
					tr.Values[p.QuarterOfInterval(g.Table.Interval[r])]++
				}
			}
			out[i] = tr
		}
	})
	return out, nil
}

// TranslatedShare computes the per-quarter machine-translated share by
// summing per-shard per-quarter totals before the division.
func (v *View) TranslatedShare() (labels []string, share []float64, err error) {
	s := v.s
	if !s.HasGKG() {
		return nil, nil, queries.ErrNoGKG
	}
	nq := s.NumQuarters()
	type pair struct{ translated, total []int64 }
	merge := func(dst, src *pair) *pair {
		for i := range dst.total {
			dst.total[i] += src.total[i]
			dst.translated[i] += src.translated[i]
		}
		return dst
	}
	partials := make([]*pair, s.K())
	v.forEachShard(func(w *parallel.Worker, i int, _ *engine.Engine) {
		p := s.parts[i]
		g := p.GKG
		partials[i] = parallel.MapReduce(g.Table.Len(), v.optW(w),
			func() *pair { return &pair{make([]int64, nq), make([]int64, nq)} },
			func(acc *pair, lo, hi int) *pair {
				for r := lo; r < hi; r++ {
					q := p.QuarterOfInterval(g.Table.Interval[r])
					acc.total[q]++
					if g.Table.Translated[r] {
						acc.translated[q]++
					}
				}
				return acc
			},
			merge,
		)
	})
	live := partials[:0]
	for _, p := range partials {
		if p != nil {
			live = append(live, p)
		}
	}
	res := &pair{make([]int64, nq), make([]int64, nq)}
	if len(live) > 0 {
		res = parallel.MergeTree(live, merge)
	}
	share = make([]float64, nq)
	for q := 0; q < nq; q++ {
		if res.total[q] > 0 {
			share[q] = float64(res.translated[q]) / float64(res.total[q])
		}
	}
	return v.quarterLabels(), share, nil
}
