package shard

import (
	"cmp"
	"container/heap"
	"math/bits"
	"slices"

	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/matrix"
	"gdeltmine/internal/parallel"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/stats"
	"gdeltmine/internal/store"
)

// The sharded executions below mirror the monolithic functions in
// internal/queries operation for operation: mention scans fan out through
// per-shard engines over the same typed kernels (so the per-shard window
// clipping, predicate selection and merge trees are shared code), and the
// partial results reduce by global id: a part's source and theme ids are
// the world's, and its event rows map through l2gEv. Integer
// aggregates are exact sums, so they match the monolith bit for bit;
// float derivations (Jaccard, fractions, fits) go through the same
// exported finishers in queries, so they see identical integer inputs and
// produce identical outputs up to the usual non-associativity-free 1e-9.
// Window semantics follow the monolith precisely: mention-window kernels
// honor the view window, event-table, postings and GKG scans ignore it.
// Where an index already holds an answer, the kernel reads the index rather
// than recounting rows (DESIGN.md §10, "answer from the index"); the row
// scans in internal/queries stay the reference they are tested against.

func (v *View) grain1() parallel.Options {
	opt := v.opt()
	opt.Grain = 1
	return opt
}

func (v *View) quarterLabels() []string {
	labels := make([]string, v.s.NumQuarters())
	for q := range labels {
		labels[q] = v.s.QuarterLabel(q)
	}
	return labels
}

// groupCountEvents is the global-event-table analogue of the engine's
// GroupCountEventsCol: a parallel scan over the merged event table, where
// count adds rows [lo, hi) of chunk t to the counters — a plain loop over
// the chunk's columns, no call per event. Each grain walks the chunks it
// covers in place (globalEvents.span). Event scans ignore the mention
// window, matching the monolith.
func (v *View) groupCountEvents(numGroups int, count func(acc []int64, t *store.EventTable, lo, hi int)) []int64 {
	ev := &v.s.events
	return parallel.MapReduce(ev.Len(), v.opt(),
		func() []int64 { return make([]int64, numGroups) },
		func(acc []int64, lo, hi int) []int64 {
			ev.span(lo, hi, func(t *store.EventTable, a, b, _ int) { count(acc, t, a, b) })
			return acc
		},
		func(dst, src []int64) []int64 {
			for i, c := range src {
				dst[i] += c
			}
			return dst
		},
	)
}

// Dataset computes Table I over the sharded store.
func (v *View) Dataset() queries.DatasetStats {
	s := v.s
	out := queries.DatasetStats{
		Sources:          s.Sources().Len(),
		Events:           int64(s.events.Len()),
		CaptureIntervals: int64(s.meta.Intervals),
	}
	for _, p := range s.parts {
		out.Articles += int64(p.Mentions.Len())
	}
	var agg stats.IntSummary
	for _, t := range s.events.chunks {
		for _, n := range t.NumArticles {
			if n == 0 {
				out.ZeroMentionEvents++
				continue
			}
			agg.Add(int64(n))
		}
	}
	if agg.N > 0 {
		out.MinArticles = agg.Min
		out.MaxArticles = agg.Max
		out.WeightedAvg = agg.Mean()
	}
	return out
}

// TopEvents returns the k most-reported events (Table III) from the merged
// global event table, with the same lower-row tie-break as the monolith
// (the merge preserves ID order, which is the monolith's row order). One
// pass over the chunks keeps the k best rows in a heap, the weakest on top;
// rows arrive ascending, so a row that only ties the weakest stays out.
func (v *View) TopEvents(k int) []queries.TopEvent {
	ev := &v.s.events
	h := make(topRows, 0, max(k, 0))
	for c, t := range ev.chunks {
		base := int32(ev.start(c))
		for r, n := range t.NumArticles {
			if len(h) < k {
				heap.Push(&h, topRow{n, base + int32(r)})
			} else if k > 0 && n > h[0].n {
				h[0] = topRow{n, base + int32(r)}
				heap.Fix(&h, 0)
			}
		}
	}
	slices.SortFunc(h, func(a, b topRow) int { return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.g, b.g)) })
	out := make([]queries.TopEvent, len(h))
	for i, r := range h {
		out[i] = queries.TopEvent{
			Mentions:  int64(r.n),
			EventID:   ev.ID(int(r.g)),
			SourceURL: ev.SourceURL(int(r.g)),
		}
	}
	return out
}

// topRow is a global event row and its article count.
type topRow struct{ n, g int32 }

// topRows is a heap of topRow, weakest first: fewer articles, or the higher
// row of two that tie.
type topRows []topRow

func (h topRows) Len() int           { return len(h) }
func (h topRows) Less(i, j int) bool { return h[i].n < h[j].n || h[i].n == h[j].n && h[i].g > h[j].g }
func (h topRows) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *topRows) Push(x any)        { *h = append(*h, x.(topRow)) }
func (h *topRows) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// EventSizes computes the Figure 2 distribution over the global events.
func (v *View) EventSizes(xmin int) queries.EventSizeDistribution {
	var maxN int32
	for _, t := range v.s.events.chunks {
		for _, n := range t.NumArticles {
			maxN = max(maxN, n)
		}
	}
	counts := v.groupCountEvents(int(maxN)+1, func(acc []int64, t *store.EventTable, lo, hi int) {
		for _, n := range t.NumArticles[lo:hi] {
			acc[n]++
		}
	})
	out := queries.EventSizeDistribution{Counts: counts}
	out.Fit, out.FitErr = stats.FitPowerLaw(counts, xmin)
	return out
}

// EventsPerQuarter computes Figure 4 over the merged global event table.
func (v *View) EventsPerQuarter() queries.QuarterlySeries {
	s := v.s
	qlut := s.parts[0].QuarterLUT()
	nq := uint32(s.NumQuarters())
	vals := v.groupCountEvents(int(nq), func(acc []int64, t *store.EventTable, lo, hi int) {
		for r := lo; r < hi; r++ {
			if t.NumArticles[r] > 0 {
				if q := qlut[t.Interval[r]]; uint32(q) < nq {
					acc[q]++
				}
			}
		}
	})
	return queries.QuarterlySeries{Labels: v.quarterLabels(), Values: vals}
}

// ActiveSourcesPerQuarter computes Figure 3. A source's quarters of
// activity are the union over shards, so each shard fills its own
// source×quarter seen table (its workers own disjoint source rows, so the
// inner loop is race-free even when parallel), the tables union through a
// merge tree — boolean OR is idempotent and commutative, so the fold shape
// is immaterial — and the per-quarter distinct counts come off the union. A shard visits one
// posting per (source, quarter): rows are interval-sorted and the quarter
// of an interval is monotone, so a source's row-ascending postings group by
// quarter, and after marking quarter q the walk bisects to the first
// posting at or past the quarter's last row.
func (v *View) ActiveSourcesPerQuarter() queries.QuarterlySeries {
	s := v.s
	nq := s.NumQuarters()
	ns := s.Sources().Len()
	partials := make([][]bool, s.K())
	v.forEachShard(func(w *parallel.Worker, i int, _ *engine.Engine) {
		p := s.parts[i]
		seen := make([]bool, ns*nq)
		parallel.ForOpt(p.Sources.Len(), v.optW(w), func(lo, hi int) {
			for src := lo; src < hi; src++ {
				rows := p.SourceMentions(int32(src))
				base := src * nq
				for len(rows) > 0 {
					q := p.QuarterOfInterval(p.Mentions.Interval[rows[0]])
					seen[base+q] = true
					_, end := p.QuarterMentionRange(q)
					next, _ := slices.BinarySearch(rows, int32(end))
					rows = rows[next:]
				}
			}
		})
		partials[i] = seen
	})
	live := partials[:0]
	for _, p := range partials {
		if p != nil {
			live = append(live, p)
		}
	}
	var seen []bool
	if len(live) > 0 {
		seen = parallel.MergeTree(live, func(dst, src []bool) []bool {
			for i, b := range src {
				if b {
					dst[i] = true
				}
			}
			return dst
		})
	} else {
		seen = make([]bool, ns*nq)
	}
	vals := make([]int64, nq)
	for g := 0; g < ns; g++ {
		for q := 0; q < nq; q++ {
			if seen[g*nq+q] {
				vals[q]++
			}
		}
	}
	return queries.QuarterlySeries{Labels: v.quarterLabels(), Values: vals}
}

// CountryArchive is the window-independent half of the aggregated country
// query: Table V's per-event reporting-country pair and singleton counts,
// and the per-country event counts. It reads every event of every part
// whatever the view's window (event-table and postings scans ignore it),
// so one value serves every window of a snapshot and the result cache
// keeps it under its own archive key. The pair-count matrix is symmetric
// and stored once: Pairs holds its upper triangle with the diagonal, row
// by row — (0,0), (0,1), …, (0,nc-1), (1,1), ….
type CountryArchive struct {
	Pairs       []int64
	Counts      []int64 // Counts[c]: events reported by some country-c source
	EventCounts []int64 // EventCounts[c]: observed events located in c
}

// CountryArchive computes the archive half of the country query. Each
// event's reporting-country bitmask folds into the pair and singleton
// counts, per shard where a shard holds the whole event and once the
// fan-out is done where an event spans shards.
func (v *View) CountryArchive() *CountryArchive {
	s := v.s
	nc := len(gdelt.Countries)
	ntri := nc * (nc + 1) / 2

	// An event's article count is global metadata every shard carries, so
	// a shard can tell that it holds all of an event's mentions and folds
	// that event's mask on the spot, like the monolith. A shard holding
	// only some of an event's mentions notes its slice of the mask with
	// the event's global row; after the fan-out the notes sort by row, the
	// masks of one row OR together (OR is commutative, so the shards'
	// order does not matter) and each union folds once. Partials fold the
	// pair counts' upper triangle only, in the archive's Pairs layout, into
	// pooled buffers.
	type partial struct {
		pairs, counts []int64
		spanning      []spanMask
	}
	merge := func(dst, src *partial) *partial {
		for i, c := range src.pairs {
			dst.pairs[i] += c
		}
		for i, c := range src.counts {
			dst.counts[i] += c
		}
		dst.spanning = append(dst.spanning, src.spanning...)
		parallel.PutInt64(src.pairs)
		parallel.PutInt64(src.counts)
		return dst
	}
	perShard := make([]*partial, s.K())
	v.forEachShard(func(w *parallel.Worker, i int, _ *engine.Engine) {
		p := s.parts[i]
		remap := s.l2gEv[i]
		perShard[i] = parallel.MapReduce(p.Events.Len(), v.optW(w),
			func() *partial {
				return &partial{pairs: parallel.GetInt64(ntri), counts: parallel.GetInt64(nc)}
			},
			func(acc *partial, lo, hi int) *partial {
				for le := lo; le < hi; le++ {
					srcs := p.EventMentionSources(int32(le))
					if len(srcs) == 0 {
						continue
					}
					var mask uint64
					for _, src := range srcs {
						if c := p.SourceCountry[src]; c >= 0 {
							mask |= 1 << uint(c)
						}
					}
					if len(srcs) == int(p.Events.NumArticles[le]) {
						foldCountryMask(acc.pairs, acc.counts, nc, mask)
					} else if mask != 0 {
						acc.spanning = append(acc.spanning, spanMask{remap[le], mask})
					}
				}
				return acc
			},
			merge,
		)
	})
	res := &partial{pairs: make([]int64, ntri), counts: make([]int64, nc)}
	for _, part := range perShard {
		if part != nil { // nil: shard skipped by cancellation
			merge(res, part)
		}
	}
	sp := res.spanning
	slices.SortFunc(sp, func(a, b spanMask) int { return cmp.Compare(a.row, b.row) })
	for i := 0; i < len(sp); {
		mask, j := sp[i].mask, i+1
		for ; j < len(sp) && sp[j].row == sp[i].row; j++ {
			mask |= sp[j].mask
		}
		foldCountryMask(res.pairs, res.counts, nc, mask)
		i = j
	}

	eventCounts := v.groupCountEvents(nc, func(acc []int64, t *store.EventTable, lo, hi int) {
		for r := lo; r < hi; r++ {
			if t.NumArticles[r] > 0 {
				if c := t.Country[r]; uint32(c) < uint32(nc) {
					acc[c]++
				}
			}
		}
	})
	return &CountryArchive{Pairs: res.pairs, Counts: res.counts, EventCounts: eventCounts}
}

// spanMask is one shard's slice of the reporting-country mask of the event
// at global row row, an event whose mentions span shards.
type spanMask struct {
	row  int32
	mask uint64
}

// CountryFinish completes the country query (Tables V-VII) from its
// archive half: it fans the per-shard typed cross-count matrices over the
// view's window out across the pool (country ids are global, so no remap
// is needed; a shard the window misses is not run), folds them through a
// merge tree, and derives the report.
// The archive is only read, so a cached one serves concurrent requests.
func (v *View) CountryFinish(a *CountryArchive) (*queries.CountryReport, error) {
	s := v.s
	nc := len(gdelt.Countries)

	parts := make([]*matrix.Int64, s.K())
	v.forEachWindowShard(func(_ *parallel.Worker, i int, e *engine.Engine) {
		p := s.parts[i]
		parts[i] = e.CrossCountRemap(nc, nc,
			p.Mentions.EventRow, p.Events.Country,
			p.Mentions.Source, p.SourceCountry)
	})
	cross := matrix.NewInt64(nc, nc)
	liveParts := parts[:0]
	for _, m := range parts {
		if m != nil {
			liveParts = append(liveParts, m)
		}
	}
	if len(liveParts) > 0 {
		merged := parallel.MergeTree(liveParts, func(dst, src *matrix.Int64) *matrix.Int64 {
			if err := dst.AddMatrix(src); err != nil {
				panic(err) // identical nc×nc shapes by construction
			}
			parallel.PutInt64(src.Data)
			src.Data = nil
			return dst
		})
		// The merged partial is backed by a pooled buffer; fold it into a
		// caller-owned matrix and recycle the backing.
		if err := cross.AddMatrix(merged); err != nil {
			return nil, err
		}
		parallel.PutInt64(merged.Data)
		merged.Data = nil
	}

	pair := matrix.NewInt64(nc, nc)
	tri := a.Pairs
	for i := 0; i < nc; i++ {
		for j, c := range tri[:nc-i] {
			pair.Set(i, i+j, c)
			pair.Set(i+j, i, c)
		}
		tri = tri[nc-i:]
	}
	return queries.FinishCountryReport(cross, pair, a.Counts, slices.Clone(a.EventCounts))
}

// foldCountryMask expands one event's reporting-country bitmask into the
// singleton counts and the upper triangle of the pair counts, in
// CountryArchive.Pairs layout over nc countries — the same bit loops as
// the monolith, counting each unordered pair once.
func foldCountryMask(pairs, counts []int64, nc int, mask uint64) {
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << uint(i)
		counts[i]++
		row := pairs[i*nc-i*(i-1)/2-i:] // row[j] is pair (i, j), j ≥ i
		for m2 := m; m2 != 0; {
			j := bits.TrailingZeros64(m2)
			m2 &^= 1 << uint(j)
			row[j]++
		}
	}
}

// slotTable returns the source id → selection index table, -1 for a source
// not selected; it serves every part, whose source ids are the world's.
func (v *View) slotTable(sources []int32) []int32 {
	slots := make([]int32, v.s.Sources().Len())
	for i := range slots {
		slots[i] = -1
	}
	for i, src := range sources {
		slots[src] = int32(i) // duplicates resolve to the last occurrence
	}
	return slots
}

// liftEvents maps a bitmap over shard i's local event rows to global rows.
// l2gEv is ascending, so the image is rebuilt in one pass; a shard holding
// every global event maps each row to itself, and its bitmaps are shared
// instead of copied.
func (s *DB) liftEvents(i int, b *bitmap.Bitmap) *bitmap.Bitmap {
	remap := s.l2gEv[i]
	if len(remap) == s.events.Len() {
		return b
	}
	rows := b.AppendRows(make([]int32, 0, b.Cardinality()))
	for j, r := range rows {
		rows[j] = remap[r]
	}
	return bitmap.FromSorted(rows)
}

// selectedEventBitmaps returns, per selection index, the global events the
// source reports (evs) and — when asked — those it reports more than once
// (reps): the union over shards of its lifted event bitmaps, and the union
// of its lifted repeat-event bitmaps with the events two shards both hold
// for it. Indices shadowed by a later duplicate (slots names the last
// occurrence) stay nil.
func (v *View) selectedEventBitmaps(sources, slots []int32, repeats bool) (evs, reps []*bitmap.Bitmap) {
	s := v.s
	n := len(sources)
	evP := make([][]*bitmap.Bitmap, s.K()) // [shard][selection index]
	repP := make([][]*bitmap.Bitmap, s.K())
	v.forEachShard(func(_ *parallel.Worker, i int, _ *engine.Engine) {
		p := s.parts[i]
		ev := make([]*bitmap.Bitmap, n)
		rep := make([]*bitmap.Bitmap, n)
		for sl, src := range sources {
			if slots[src] != int32(sl) {
				continue
			}
			ev[sl] = s.liftEvents(i, p.SourceEventBitmap(src))
			if repeats {
				rep[sl] = s.liftEvents(i, p.SourceRepeatEventBitmap(src))
			}
		}
		evP[i], repP[i] = ev, rep
	})
	evs = make([]*bitmap.Bitmap, n)
	reps = make([]*bitmap.Bitmap, n)
	var per, rper []*bitmap.Bitmap
	for a := 0; a < n; a++ {
		per, rper = per[:0], rper[:0]
		for i := range evP {
			if evP[i] != nil && evP[i][a] != nil { // nil slot: shard skipped by cancellation
				per = append(per, evP[i][a])
				rper = append(rper, repP[i][a])
			}
		}
		if len(per) == 0 {
			continue
		}
		evs[a] = bitmap.UnionAll(per)
		if repeats {
			reps[a] = bitmap.UnionAll(append(rper, bitmap.AtLeastTwo(per)))
		}
	}
	return evs, reps
}

// contributingEvents returns, ascending, the global events that can
// contribute to follow-reporting among the selection — the monolith's
// rule: an event matters only when it holds at least two selected mention
// rows, i.e. two selected sources co-occur on it or one reports it twice.
func (v *View) contributingEvents(sources, slots []int32) []int32 {
	evs, reps := v.selectedEventBitmaps(sources, slots, true)
	u := bitmap.UnionAll(append(reps, bitmap.AtLeastTwo(evs)))
	return u.AppendRows(make([]int32, 0, u.Cardinality()))
}

// CoReport computes co-reporting among the selected global sources by
// event-bitmap algebra, as in the monolith: a source's event count is the
// cardinality of its global event bitmap and a pair count the cardinality
// of two bitmaps' intersection, so no mention row is touched. Shadowed
// duplicate positions stay all-zero, matching the scan's last-occurrence
// slot resolution.
func (v *View) CoReport(sources []int32) (*queries.CoReporting, error) {
	n := len(sources)
	evs, _ := v.selectedEventBitmaps(sources, v.slotTable(sources), false)
	counts := make([]int64, n)
	for i, b := range evs {
		if b != nil {
			counts[i] = b.Cardinality()
		}
	}
	pair := matrix.NewInt64(n, n)
	for i, row := range bitmap.PairwiseIntersectCards(evs) {
		for j, c := range row {
			pair.Set(i, j, c)
		}
	}
	return queries.FinishCoReporting(sources, v.sourceNames(sources), counts, pair)
}

// FollowReport computes follow-reporting among the selected global
// sources over the events that can contribute (contributingEvents). The
// per-event leader state (firstSeen/touched) persists across the event's
// shard segments — one event's mentions may span several shards, and the
// fold must see them as one ascending-interval stream. Each segment is read
// from a part's event-major payload in part (= time) order: rows ascend by
// interval within a part and parts tile time in order, so the
// concatenation replays the monolith's event-mention ordering.
func (v *View) FollowReport(sources []int32) *queries.FollowReporting {
	s := v.s
	n := len(sources)
	slots := v.slotTable(sources)
	evs := v.contributingEvents(sources, slots)
	nm := parallel.MapReduce(len(evs), v.opt(),
		func() *matrix.Int64 { return matrix.NewInt64(n, n) },
		func(acc *matrix.Int64, lo, hi int) *matrix.Int64 {
			firstSeen := make([]int32, n)
			for i := range firstSeen {
				firstSeen[i] = -1
			}
			touched := make([]int32, 0, 16)
			cs := s.cursors(evs[lo], evs[hi-1])
			for _, ev := range evs[lo:hi] {
				for c := range cs {
					p, lr := s.parts[cs[c].part], cs[c].find(ev)
					if lr < 0 {
						continue
					}
					ivs := p.EventMentionIntervals(lr)
					for x, src := range p.EventMentionSources(lr) {
						j := slots[src]
						if j < 0 {
							continue
						}
						// Leaders are touched in time order, so their
						// first-seen intervals ascend along touched.
						t := ivs[x]
						for _, l := range touched {
							if firstSeen[l] >= t {
								break
							}
							acc.Inc(int(l), int(j))
						}
						if firstSeen[j] < 0 {
							firstSeen[j] = t
							touched = append(touched, j)
						}
					}
				}
				for _, l := range touched {
					firstSeen[l] = -1
				}
				touched = touched[:0]
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
	articles := make([]int64, n)
	for i, src := range sources {
		articles[i] = v.sourceArticles(src)
	}
	return queries.FinishFollowReporting(sources, v.sourceNames(sources), articles, nm)
}

func (v *View) sourceNames(sources []int32) []string {
	names := make([]string, 0, len(sources))
	for _, src := range sources {
		names = append(names, v.s.Sources().Name(src))
	}
	return names
}

// sourceArticles sums a source's postings lengths over the shards (full
// archive, window-insensitive like the monolith).
func (v *View) sourceArticles(src int32) int64 {
	var total int64
	for _, p := range v.s.parts {
		total += int64(len(p.SourceMentions(src)))
	}
	return total
}

// PublisherDelays computes Table VIII rows for the given global sources,
// concatenating each source's per-shard delay streams (only order
// statistics are taken, so segment order is immaterial).
func (v *View) PublisherDelays(sources []int32) []queries.SourceDelayStats {
	s := v.s
	out := make([]queries.SourceDelayStats, len(sources))
	parallel.ForOpt(len(sources), v.grain1(), func(lo, hi int) {
		var buf, counts []int64
		for i := lo; i < hi; i++ {
			src := sources[i]
			st := queries.SourceDelayStats{Source: src, Name: s.Sources().Name(src)}
			buf = slices.Grow(buf[:0], int(v.sourceArticles(src)))
			var agg stats.IntSummary
			for _, p := range s.parts {
				for _, r := range p.SourceMentions(src) {
					d := int64(p.Mentions.Delay[r])
					agg.Add(d)
					buf = append(buf, d)
				}
			}
			st.Articles = int64(len(buf))
			if len(buf) > 0 {
				st.Min, st.Max, st.Average = agg.Min, agg.Max, agg.Mean()
				st.Median, counts = lowerMedian(buf, agg.Min, agg.Max, counts)
			}
			out[i] = st
		}
	})
	return out
}

// lowerMedian returns the lower median of xs, whose values lie in [lo, hi],
// and the count table it may have grown for reuse. When the span is no
// wider than the sample, a count table over [lo, hi] finds the median in
// O(n); otherwise xs is sorted in place. Both yield the exact order
// statistic, so which one runs is decided by the data alone.
func lowerMedian(xs []int64, lo, hi int64, counts []int64) (int64, []int64) {
	if hi-lo > int64(len(xs)) {
		slices.Sort(xs)
		return xs[(len(xs)-1)/2], counts
	}
	counts = slices.Grow(counts[:0], int(hi-lo)+1)[:hi-lo+1]
	clear(counts)
	for _, x := range xs {
		counts[x-lo]++
	}
	return lo + stats.CountingMedian(counts, int64(len(xs))), counts
}

// QuarterlyDelays computes Figure 10; each quarter's exact value→count
// table accumulates over every shard's slice of the quarter.
func (v *View) QuarterlyDelays() queries.QuarterlyDelay {
	s := v.s
	nq := s.NumQuarters()
	out := queries.QuarterlyDelay{
		Labels:  v.quarterLabels(),
		Average: make([]float64, nq),
		Median:  make([]int64, nq),
	}
	parallel.ForOpt(nq, v.grain1(), func(qlo, qhi int) {
		ct := stats.NewCountTable(queries.MaxDelay)
		for q := qlo; q < qhi; q++ {
			for i := range ct.Counts {
				ct.Counts[i] = 0
			}
			ct.N = 0
			for _, p := range s.parts {
				lo, hi := p.QuarterMentionRange(q)
				for r := lo; r < hi; r++ {
					ct.Add(int64(p.Mentions.Delay[r]))
				}
			}
			if ct.N > 0 {
				out.Average[q] = ct.Mean()
				out.Median[q] = ct.Median()
			}
		}
	})
	return out
}

// FastSpreadingEvents ranks global events by distinct early reporters.
// Early sources are counted through a stamp array: stamp[g] == ev+1 once
// source g has reported event ev, so a source counts the first time it is
// stamped and no set is cleared between events. The
// shard walk reads the event-major payload and stops at the first shard
// starting at or past the cutoff (later shards hold only later mentions).
// Each grain and each merge keeps a bounded top-k (topFires); once a
// runner's candidates reach k — carried over from its earlier grains or
// truncated within this one — an event with fewer articles or early
// sources than the k-th candidate cannot enter them and is skipped. Only
// the k winners look
// up their SourceURL. The per-event count is earlySources, which the live
// stream's alerts share.
func (v *View) FastSpreadingEvents(window int32, minSources, k int) []queries.Wildfire {
	s := v.s
	if window < 1 {
		window = 1
	}
	bound := 2*k + 256
	candidates := parallel.MapReduce(s.events.Len(), v.opt(),
		func() []queries.Wildfire { return nil },
		func(acc []queries.Wildfire, lo, hi int) []queries.Wildfire {
			stamp := make([]int32, s.Sources().Len())
			floor := minSources
			if len(acc) >= k && k > 0 {
				acc = topFires(acc, k)
				floor = acc[k-1].EarlySources
			}
			cs := s.cursors(int32(lo), int32(hi-1))
			s.events.span(lo, hi, func(t *store.EventTable, a, b, base int) {
				for r := a; r < b; r++ {
					// The event's article count is global metadata every
					// part carries verbatim, so the threshold needs no
					// recount; an event has no more distinct early sources
					// than articles.
					if int(t.NumArticles[r]) < floor {
						continue
					}
					ev := int32(base + r)
					distinct, early := s.earlySources(ev, t.Interval[r]+window, cs, stamp, ev+1)
					if distinct < floor {
						continue
					}
					acc = append(acc, queries.Wildfire{
						EventRow:      ev,
						EventID:       t.ID[r],
						EarlySources:  distinct,
						EarlyArticles: early,
						TotalArticles: t.NumArticles[r],
						Velocity:      float64(distinct) / float64(window),
					})
					if len(acc) >= bound {
						if acc = topFires(acc, k); len(acc) > 0 {
							floor = acc[len(acc)-1].EarlySources
						}
					}
				}
			})
			return acc
		},
		func(dst, src []queries.Wildfire) []queries.Wildfire {
			if dst = append(dst, src...); len(dst) >= bound {
				dst = topFires(dst, k)
			}
			return dst
		},
	)
	candidates = topFires(candidates, k)
	for i := range candidates {
		candidates[i].SourceURL = s.events.SourceURL(int(candidates[i].EventRow))
	}
	return candidates
}

// earlySources counts global event ev's early articles — those captured
// before cutoff, window intervals past the event's own interval — and their
// distinct sources, the two numbers wildfires ranks by. A source counts
// once it is stamped with tag in stamp (indexed by source id), so the
// caller hands every event its own tag and never clears stamp. The walk
// stops at the first shard starting past the window: later shards hold only
// later mentions. cs are the cursors of the strictly ascending batch ev
// belongs to (DB.cursors).
func (s *DB) earlySources(ev, cutoff int32, cs []partCursor, stamp []int32, tag int32) (distinct, early int) {
	for j := range cs {
		if s.bounds[cs[j].part] >= cutoff {
			break
		}
		lr := cs[j].find(ev)
		if lr < 0 {
			continue
		}
		p := s.parts[cs[j].part]
		srcs := p.EventMentionSources(lr)
		for x, iv := range p.EventMentionIntervals(lr) {
			if iv >= cutoff {
				break // postings are interval-sorted
			}
			early++
			if src := srcs[x]; stamp[src] != tag {
				stamp[src] = tag
				distinct++
			}
		}
	}
	return distinct, early
}

// EarlySources returns, for each event id, the number of distinct sources
// that reported the event within window capture intervals of it — the
// count FastSpreadingEvents ranks and thresholds by — or 0 for an id the
// world does not hold.
func (s *DB) EarlySources(ids []int64, window int32) []int {
	window = max(window, 1)
	out := make([]int, len(ids))
	rows := make([]int32, len(ids))
	var held []int // the indexes of ids the world holds, by ascending row
	for i, id := range ids {
		if rows[i] = s.events.row(id); rows[i] >= 0 {
			held = append(held, i)
		}
	}
	if len(held) == 0 {
		return out
	}
	slices.SortFunc(held, func(a, b int) int { return cmp.Compare(rows[a], rows[b]) })
	stamp := make([]int32, s.Sources().Len())
	cs := s.cursors(rows[held[0]], rows[held[len(held)-1]])
	for k, i := range held {
		if k > 0 && rows[held[k-1]] == rows[i] {
			out[i] = out[held[k-1]] // a repeated id: cursors take each row once
			continue
		}
		out[i], _ = s.earlySources(rows[i], s.events.Interval(int(rows[i]))+window, cs, stamp, int32(i)+1)
	}
	return out
}

// topFires sorts wildfire candidates by EarlySources descending, then
// EventID, and keeps the first k. Event ids are unique, so the order is
// total and the k kept are exactly the k best of any superset.
func topFires(c []queries.Wildfire, k int) []queries.Wildfire {
	slices.SortFunc(c, func(a, b queries.Wildfire) int {
		if c := cmp.Compare(b.EarlySources, a.EarlySources); c != 0 {
			return c
		}
		return cmp.Compare(a.EventID, b.EventID)
	})
	if len(c) > k {
		c = c[:k]
	}
	return c
}
