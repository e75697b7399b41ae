package queries

import (
	"math"
	"slices"

	"gdeltmine/internal/bitmap"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/parallel"
	"gdeltmine/internal/qlang"
	"gdeltmine/internal/store"
)

// Ad-hoc query execution (DESIGN.md §13): the generic evaluator behind
// /api/v1/query. A parsed qlang expression plus an optional group/aggregate
// spec lowers onto the typed kernels through a pushdown planner:
//
//   - index clauses (equalities on source, sourcecountry, eventcountry)
//     read the store's row indexes: a source clause its by-source
//     postings, a country clause its roaring row bitmap. When the
//     estimated selectivity is at or below pushdownThreshold the plan
//     materializes their intersection and runs row-list kernels over
//     exactly the surviving rows.
//   - range clauses (interval/quarter comparisons) narrow the engine's
//     mention window by binary search — free regardless of selectivity.
//   - residual clauses (tone, doclen, confidence, delay, articles, any !=)
//     compile to typed batch stages (qlang.Filter) and run only over the
//     rows the indexed clauses let through, fused with the aggregation: one
//     pass selects each batch of rows and folds count, group counts and
//     sums from the survivors.
//
// Every path produces bit-identical integer results (the differential
// battery in internal/baseline pins every path against a raw rescan), so
// the path is a function of the snapshot and the spec alone.

// DefaultAdhocK is the row limit applied to grouped results when the
// request does not set k.
const DefaultAdhocK = 20

// AdhocSpec is one parsed ad-hoc query: a where-conjunction, an optional
// group field, and an aggregate. Where holds the canonical rendering of
// the expression — the string result caches key on.
type AdhocSpec struct {
	Expr  qlang.Expr
	Where string
	Group string
	Agg   qlang.Agg
	K     int
}

// ParseAdhocSpec validates and canonicalizes the raw request parameters.
// k defaults to DefaultAdhocK when unset; it only applies to grouped
// results.
func ParseAdhocSpec(where, group, agg string, k int) (AdhocSpec, error) {
	e, err := qlang.Parse(where)
	if err != nil {
		return AdhocSpec{}, err
	}
	g, err := qlang.ParseGroup(group)
	if err != nil {
		return AdhocSpec{}, err
	}
	a, err := qlang.ParseAgg(agg)
	if err != nil {
		return AdhocSpec{}, err
	}
	if k < 1 {
		k = DefaultAdhocK
	}
	return AdhocSpec{Expr: *e, Where: e.Canonical(), Group: g, Agg: a, K: k}, nil
}

// AdhocPlan is the explain output: the resolved physical plan for a spec,
// reported without executing it. Estimates, not measurements.
type AdhocPlan struct {
	Where       string   `json:"where"`
	Group       string   `json:"group,omitempty"`
	Agg         string   `json:"agg"`
	K           int      `json:"k,omitempty"`
	Path        string   `json:"path"`
	Kernel      string   `json:"kernel"`
	Pushdown    []string `json:"pushdown,omitempty"`
	Fallback    []string `json:"fallback,omitempty"`
	EstRows     int64    `json:"est_rows"`
	WindowRows  int64    `json:"window_rows"`
	Selectivity float64  `json:"selectivity"`
}

// adhocPlans counts resolved ad-hoc plans by path, one counter per value.
var adhocPlans = map[string]*obs.Counter{
	"pushdown": obs.Default.Counter("qlang_plan_total",
		"ad-hoc qlang plans resolved by the pushdown planner", obs.L("path", "pushdown")),
	"range": obs.Default.Counter("qlang_plan_total",
		"ad-hoc qlang plans resolved by the pushdown planner", obs.L("path", "range")),
	"scan": obs.Default.Counter("qlang_plan_total",
		"ad-hoc qlang plans resolved by the pushdown planner", obs.L("path", "scan")),
}

// adhocResolution is the outcome of planning one spec against one engine
// view: the chosen path, the (possibly range-narrowed) engine, the index
// clauses' rows to intersect under pushdown, and the residual clauses left
// to the typed filter.
type adhocResolution struct {
	path       string // "pushdown", "range" or "scan"
	eng        *engine.Engine
	sets       []clauseRows
	pushdown   []qlang.Clause
	residual   []qlang.Clause
	estRows    int64
	windowRows int64
}

// pushdownThreshold is the estimated selectivity at or below which bitmap
// clauses are pushed down: below it the surviving rows are sparse enough
// that materializing exactly them beats the filter pass over the window.
const pushdownThreshold = 0.20

// resolveAdhoc plans a spec against an engine view: range clauses always
// narrow the window, and index clauses push down when the selectivity
// estimated from their cardinalities inside the narrowed window is at or
// below pushdownThreshold.
func resolveAdhoc(e *engine.Engine, spec AdhocSpec) adhocResolution {
	db := e.DB()
	r := adhocResolution{windowRows: int64(e.WindowSize())}
	bm, rng, residual := qlang.Split(spec.Expr.Clauses)
	ne := e
	for _, c := range rng {
		lo, hi := rangeClauseRows(db, c)
		ne = ne.WithRowWindow(lo, hi)
	}
	r.eng = ne
	r.pushdown, r.residual = rng, residual
	r.estRows = int64(ne.WindowSize())
	if len(bm) == 0 {
		if len(rng) > 0 {
			r.path = "range"
		} else {
			r.path = "scan"
		}
		return r
	}
	// The intersection can only shrink the smallest operand, so the
	// smallest cardinality in the window (a clipped postings length, or a
	// bitmap's range cardinality) bounds the rows the pushdown plan
	// touches.
	sets := make([]clauseRows, len(bm))
	minCard := int64(-1)
	for i, c := range bm {
		sets[i] = indexClauseRows(ne, c)
		if card := sets[i].card; minCard < 0 || card < minCard {
			minCard = card
		}
	}
	if minCard < r.estRows {
		r.estRows = minCard
	}
	sel := 0.0
	if r.windowRows > 0 {
		sel = float64(r.estRows) / float64(r.windowRows)
	}
	if sel <= pushdownThreshold {
		r.path = "pushdown"
		r.sets = sets
		r.pushdown = append(append([]qlang.Clause{}, bm...), rng...)
	} else {
		// Too dense to be worth materializing: keep the free range
		// narrowing, demote the bitmap clauses to the residual filter.
		r.path = "range"
		if len(rng) == 0 {
			r.path = "scan"
		}
		r.residual = append(append([]qlang.Clause{}, residual...), bm...)
	}
	return r
}

// rangeClauseRows maps one range clause to the half-open mention row span
// it admits, clamped to the archive. Out-of-archive literals resolve to an
// empty or full span exactly as the residual filter would.
func rangeClauseRows(db *store.DB, c qlang.Clause) (lo, hi int) {
	switch c.Field {
	case "interval":
		v := c.Value.Int
		switch c.Op {
		case qlang.OpEq:
			return intervalRows(db, v, incSat(v))
		case qlang.OpLt:
			return intervalRows(db, math.MinInt64, v)
		case qlang.OpLe:
			return intervalRows(db, math.MinInt64, incSat(v))
		case qlang.OpGt:
			return intervalRows(db, incSat(v), math.MaxInt64)
		case qlang.OpGe:
			return intervalRows(db, v, math.MaxInt64)
		}
	case "quarter":
		q := qlang.QuarterIndex(db, c.Value)
		switch c.Op {
		case qlang.OpEq:
			return quarterRows(db, q, q+1)
		case qlang.OpLt:
			return quarterRows(db, 0, q)
		case qlang.OpLe:
			return quarterRows(db, 0, q+1)
		case qlang.OpGt:
			return quarterRows(db, q+1, db.NumQuarters())
		case qlang.OpGe:
			return quarterRows(db, q, db.NumQuarters())
		}
	}
	return 0, db.Mentions.Len()
}

func incSat(v int64) int64 {
	if v == math.MaxInt64 {
		return v
	}
	return v + 1
}

// intervalRows clamps an interval span to the archive and binary-searches
// its mention row range.
func intervalRows(db *store.DB, fromIv, toIv int64) (lo, hi int) {
	n := int64(db.Meta.Intervals)
	if fromIv < 0 {
		fromIv = 0
	}
	if fromIv > n {
		fromIv = n
	}
	if toIv < fromIv {
		toIv = fromIv
	}
	if toIv > n {
		toIv = n
	}
	l, h := db.MentionRowRange(int32(fromIv), int32(toIv))
	return int(l), int(h)
}

// quarterRows maps a quarter span to its mention row range via the quarter
// index. Quarters outside the archive clamp to an empty span on the near
// edge.
func quarterRows(db *store.DB, fromQ, toQ int) (lo, hi int) {
	start := func(q int) int64 {
		if q <= 0 {
			return 0
		}
		if q >= db.NumQuarters() {
			return int64(db.Mentions.Len())
		}
		l, _ := db.QuarterMentionRange(q)
		return l
	}
	l, h := start(fromQ), start(toQ)
	if h < l {
		h = l
	}
	return int(l), int(h)
}

// clauseRows is the mention rows one index clause admits inside the
// (range-narrowed) window: a source clause's by-source postings clipped to
// the window (ascending; nil for a source absent from the store), or a
// country clause's row bitmap, whole, with card its rows in the window.
type clauseRows struct {
	rows []int32
	bm   *bitmap.Bitmap
	card int64
}

// indexClauseRows resolves one index clause to the store's index of its
// rows, counted over e's window. A literal absent from the store (unseen
// source) matches no row — the same "matches nothing" the residual filter
// produces.
func indexClauseRows(e *engine.Engine, c qlang.Clause) clauseRows {
	db := e.DB()
	var bm *bitmap.Bitmap
	switch c.Field {
	case "source":
		if id := db.Sources.Lookup(c.Value.Str); id >= 0 {
			rows := e.ClipRows(db.SourceMentions(id))
			return clauseRows{rows: rows, card: int64(len(rows))}
		}
		return clauseRows{}
	case "sourcecountry":
		bm = db.CountryRowBitmap(gdelt.CountryIndex(c.Value.Str))
	default: // eventcountry; Classify admits no other field
		bm = db.EventCountryRowBitmap(gdelt.CountryIndex(c.Value.Str))
	}
	lo, hi := e.Window()
	return clauseRows{bm: bm, card: bm.RangeCardinality(int32(lo), int32(hi))}
}

// kernel names the aggregation kernel the resolved plan will run, for the
// explain output. A count with nothing to filter takes a typed count fast
// path — over a window, a group=source count reads postings lengths
// (PostingsCount) and a group=quarter count the quarter row offsets
// (QuarterOffsets) — and everything else runs the fused selection fold:
// RefineFold over the pushdown row list, SelectFold over the window.
func (r *adhocResolution) kernel(spec AdhocSpec) string {
	grouped := spec.Group != ""
	if spec.Agg.Kind == qlang.AggCount && len(r.residual) == 0 {
		switch {
		case r.path == "pushdown" && grouped:
			return "GroupCountRows"
		case r.path == "pushdown":
			return "RowCount"
		case spec.Group == "source":
			return "PostingsCount"
		case spec.Group == "quarter":
			return "QuarterOffsets"
		case grouped:
			return "GroupCountCol"
		default:
			return "WindowSize"
		}
	}
	if r.path == "pushdown" {
		return "RefineFold"
	}
	return "SelectFold"
}

// plan renders the resolution as the explain structure.
func (r *adhocResolution) plan(spec AdhocSpec) AdhocPlan {
	p := AdhocPlan{
		Where: spec.Where, Group: spec.Group, Agg: spec.Agg.String(),
		Path: r.path, Kernel: r.kernel(spec),
		EstRows: r.estRows, WindowRows: r.windowRows,
	}
	if spec.Group != "" {
		p.K = spec.K
	}
	for _, c := range r.pushdown {
		p.Pushdown = append(p.Pushdown, c.String())
	}
	for _, c := range r.residual {
		p.Fallback = append(p.Fallback, c.String())
	}
	if r.windowRows > 0 {
		p.Selectivity = float64(r.estRows) / float64(r.windowRows)
	}
	return p
}

// ExplainAdhoc plans a spec without executing it.
func ExplainAdhoc(e *engine.Engine, spec AdhocSpec) AdhocPlan {
	r := resolveAdhoc(e, spec)
	return r.plan(spec)
}

// MergeAdhocPlans folds per-shard explains into one: estimates sum, and
// when the shards agree on a path the merged plan reports it; shards that
// disagree (their local selectivities straddle the threshold) report
// "mixed". Shards plan independently at execution time, so the merged
// explain is a summary, not a promise of a single physical plan.
func MergeAdhocPlans(spec AdhocSpec, plans []AdhocPlan) AdhocPlan {
	if len(plans) == 0 {
		return AdhocPlan{Where: spec.Where, Group: spec.Group, Agg: spec.Agg.String()}
	}
	out := plans[0]
	out.EstRows, out.WindowRows, out.Selectivity = 0, 0, 0
	for _, p := range plans {
		out.EstRows += p.EstRows
		out.WindowRows += p.WindowRows
		if p.Path != out.Path {
			out.Path, out.Kernel = "mixed", "per-shard"
		}
	}
	if out.WindowRows > 0 {
		out.Selectivity = float64(out.EstRows) / float64(out.WindowRows)
	}
	return out
}

// groupSpec describes the dictionary-encoded grouping column of one DB:
// group id = Remap[Col[row]] (or Col[row] when Remap is nil), ids outside
// [0, N) dropped. The zero groupSpec means no grouping. Every part of a
// sharded view reads its columns in the world's id space, so the view
// groups each part with this same spec and adds the groups up when it
// merges.
type groupSpec struct {
	N     int
	Col   []int32
	Remap []int32
}

// adhocGroupSpec returns the grouping column spec for a group field
// against one DB.
func adhocGroupSpec(db *store.DB, group string) groupSpec {
	switch group {
	case "source":
		return groupSpec{N: db.Sources.Len(), Col: db.Mentions.Source}
	case "sourcecountry":
		return groupSpec{N: len(gdelt.Countries), Col: db.Mentions.Source, Remap: db.SourceCountry}
	case "eventcountry":
		return groupSpec{N: len(gdelt.Countries), Col: db.Mentions.EventRow, Remap: db.Events.Country}
	case "quarter":
		return groupSpec{N: db.NumQuarters(), Col: db.Mentions.Interval, Remap: db.QuarterLUT()}
	}
	return groupSpec{}
}

// AdhocVec is the raw aggregation output of one engine view: the matched
// row count, the scalar sum (sum/mean aggregates), and — when grouped —
// the per-group vectors, one slot per id of the group's dictionary
// (Counts always; Sums for sum/mean). Integer counts are exact; sums are
// float64 and exact for the integer-valued fields (delay, doclen,
// confidence, articles) below 2^53. It is also the sharded view's
// per-part partial: parts merge by adding vectors through the group remap.
type AdhocVec struct {
	Count  int64
	Sum    float64
	Counts []int64
	Sums   []float64
}

// AdhocVectors plans and executes a spec against one engine view,
// returning raw vectors for the caller to shape (or, sharded, to merge).
// The resolved path is recorded in qlang_plan_total{path=...}.
func AdhocVectors(e *engine.Engine, spec AdhocSpec) (AdhocVec, error) {
	g := adhocGroupSpec(e.DB(), spec.Group)
	r := resolveAdhoc(e, spec)
	if c := adhocPlans[r.path]; c != nil {
		c.Inc()
	}
	var residual *qlang.Filter
	if len(r.residual) > 0 {
		f, err := qlang.Bind(e.DB(), r.residual)
		if err != nil {
			return AdhocVec{}, err
		}
		residual = f
	}
	if r.path == "pushdown" {
		return adhocRows(r.eng, spec, g, r.materialize(), residual), nil
	}
	return adhocWindow(r.eng, spec, g, residual), nil
}

// materialize returns the ascending rows of the (range-narrowed) window
// that every pushdown clause admits. With a source clause the rows start
// as its clipped postings (returned as is, read-only, when the clause is
// alone), and every other clause filters them through its bitmap; a second
// source clause's clipped postings become one (FromSorted). Country
// clauses alone list their one bitmap's rows in the window, or intersect
// their bitmaps clipped to the window.
func (r *adhocResolution) materialize() []int32 {
	var rows []int32
	var bms []*bitmap.Bitmap
	listed := false
	for _, c := range r.sets {
		switch {
		case c.bm != nil:
			bms = append(bms, c.bm)
		case !listed:
			rows, listed = c.rows, true
		default:
			bms = append(bms, bitmap.FromSorted(c.rows))
		}
	}
	if listed {
		for _, b := range bms {
			rows = b.FilterSorted(rows, make([]int32, 0, len(rows)))
		}
		return rows
	}
	lo, hi := r.eng.Window()
	if len(bms) == 1 {
		return bms[0].AppendRange(int32(lo), int32(hi), make([]int32, 0, r.sets[0].card))
	}
	bm := bms[0].Clip(int32(lo), int32(hi))
	for _, b := range bms[1:] {
		bm = bitmap.Intersect(bm, b.Clip(int32(lo), int32(hi)))
	}
	return bm.AppendRows(make([]int32, 0, bm.Cardinality()))
}

// selBatch is the number of rows a fused fold selects at a time: the
// selection vector (16 KiB) stays in L1 between the filter stages and the
// fold, and a worker's pooled buffer never grows past it.
const selBatch = 4096

// adhocFold is one fused aggregation over a DB: each batch of rows passes
// through the residual filter (nil keeps every row), and the survivors are
// folded into the count, the per-group counts and, for sum/mean, the
// value sums — one pass whatever the aggregate.
type adhocFold struct {
	residual *qlang.Filter
	g        groupSpec
	grouped  bool
	val      valueCol // nil for count
}

// adhocAcc is a fused fold's per-worker partial. The group vectors come
// from the shared pools; mergeAdhocAcc recycles folded partials.
type adhocAcc struct {
	count  int64
	sum    float64 // ungrouped value aggregates only
	counts []int64 // grouped only
	sums   []float64
}

func (f *adhocFold) newAcc() *adhocAcc {
	a := &adhocAcc{}
	if f.grouped {
		a.counts = parallel.GetInt64(f.g.N)
		if f.val != nil {
			a.sums = parallel.GetFloat64(f.g.N)
		}
	}
	return a
}

// fold adds the selected rows to a.
func (f *adhocFold) fold(a *adhocAcc, sel []int32) {
	a.count += int64(len(sel))
	switch {
	case f.val != nil:
		f.val.fold(a, sel, f.g)
	case f.grouped:
		n := uint32(len(a.counts))
		col, remap := f.g.Col, f.g.Remap
		if remap == nil {
			for _, r := range sel {
				if gid := col[r]; uint32(gid) < n {
					a.counts[gid]++
				}
			}
			return
		}
		for _, r := range sel {
			if gid := remap[col[r]]; uint32(gid) < n {
				a.counts[gid]++
			}
		}
	}
}

// selectFold folds the window rows [lo, hi) the filter selects.
func (f *adhocFold) selectFold(a *adhocAcc, lo, hi int) *adhocAcc {
	sel := parallel.GetInt32(0)
	for b := lo; b < hi; b += selBatch {
		sel = f.residual.Select(b, min(b+selBatch, hi), sel[:0])
		f.fold(a, sel)
	}
	parallel.PutInt32(sel)
	return a
}

// refineFold folds the rows of seg the filter keeps. It refines a pooled
// copy: seg belongs to the materialized row list.
func (f *adhocFold) refineFold(a *adhocAcc, seg []int32) *adhocAcc {
	sel := parallel.GetInt32(0)
	for b := 0; b < len(seg); b += selBatch {
		sel = f.residual.Refine(append(sel[:0], seg[b:min(b+selBatch, len(seg))]...))
		f.fold(a, sel)
	}
	parallel.PutInt32(sel)
	return a
}

// mergeAdhocAcc folds src into dst and recycles src's buffers.
func mergeAdhocAcc(dst, src *adhocAcc) *adhocAcc {
	dst.count += src.count
	dst.sum += src.sum
	for i, c := range src.counts {
		dst.counts[i] += c
	}
	for i, s := range src.sums {
		dst.sums[i] += s
	}
	parallel.PutInt64(src.counts)
	parallel.PutFloat64(src.sums)
	return dst
}

// vec copies the merged partial out of the pooled buffers into an
// AdhocVec and recycles them.
func (a *adhocAcc) vec() AdhocVec {
	v := AdhocVec{Count: a.count, Sum: a.sum}
	if a.counts != nil {
		v.Counts = append([]int64(nil), a.counts...)
		parallel.PutInt64(a.counts)
	}
	if a.sums != nil {
		v.Sums = append([]float64(nil), a.sums...)
		parallel.PutFloat64(a.sums)
	}
	return v
}

// adhocRows aggregates over a materialized row list. A count with no
// residual takes the typed fast paths; everything else is one RefineFold
// scan.
func adhocRows(e *engine.Engine, spec AdhocSpec, g groupSpec, rows []int32, residual *qlang.Filter) AdhocVec {
	val := adhocValue(e.DB(), spec.Agg.Field)
	domain := e.WindowSize()
	if val == nil && residual == nil {
		vec := AdhocVec{Count: int64(len(rows))}
		if spec.Group != "" {
			vec.Counts = e.GroupCountRows(g.N, rows, domain, g.Col, g.Remap)
		}
		return vec
	}
	f := &adhocFold{residual: residual, g: g, grouped: spec.Group != "", val: val}
	return engine.ScanRows(e, rows, domain, f.newAcc, f.refineFold, mergeAdhocAcc).vec()
}

// adhocWindow aggregates over the engine window — the range and scan
// paths. A count with no residual takes the typed fast paths; everything
// else is one SelectFold scan.
func adhocWindow(e *engine.Engine, spec AdhocSpec, g groupSpec, residual *qlang.Filter) AdhocVec {
	val := adhocValue(e.DB(), spec.Agg.Field)
	if val == nil && residual == nil {
		vec := AdhocVec{Count: int64(e.WindowSize())}
		switch {
		case spec.Group == "source":
			vec.Counts = postingsCount(e)
		case spec.Group == "quarter":
			vec.Counts = quarterCounts(e)
		case spec.Group != "":
			vec.Counts = e.GroupCountCol(g.N, g.Col, g.Remap)
		}
		return vec
	}
	f := &adhocFold{residual: residual, g: g, grouped: spec.Group != "", val: val}
	return engine.ScanWindow(e, f.newAcc, f.selectFold, mergeAdhocAcc).vec()
}

// postingsCount answers a group=source count over the window from the
// by-source postings (DESIGN.md §10, "answer from the index"): a source's
// count is its postings length when the window spans the table, and
// otherwise the number of its row-ascending postings inside the window,
// two bisections. No mention row is read.
func postingsCount(e *engine.Engine) []int64 {
	db := e.DB()
	lo, hi := e.Window()
	full := lo == 0 && hi == db.Mentions.Len()
	counts := make([]int64, db.Sources.Len())
	if lo == hi {
		return counts
	}
	for s := range counts {
		rows := db.SourceMentions(int32(s))
		if !full {
			a, _ := slices.BinarySearch(rows, int32(lo))
			b, _ := slices.BinarySearch(rows[a:], int32(hi))
			rows = rows[a : a+b]
		}
		counts[s] = int64(len(rows))
	}
	return counts
}

// quarterCounts answers a group=quarter count over the window from the
// quarter row offsets (DESIGN.md §10, "answer from the index"): mentions
// are interval-sorted, so quarter q's rows are the one span
// QuarterMentionRange(q), and its count is that span clipped to the
// window. O(quarters); no mention row is read.
func quarterCounts(e *engine.Engine) []int64 {
	db := e.DB()
	lo, hi := e.Window()
	counts := make([]int64, db.NumQuarters())
	for q := range counts {
		qlo, qhi := db.QuarterMentionRange(q)
		counts[q] = max(min(qhi, int64(hi))-max(qlo, int64(lo)), 0)
	}
	return counts
}

// valueCol is the typed value column of a sum/mean aggregate.
type valueCol interface {
	// fold adds the values of the selected rows to a: to the scalar sum,
	// or, when a is grouped, to the per-group counts and sums.
	fold(a *adhocAcc, sel []int32, g groupSpec)
}

// numCol is a numeric value column: a row's value is vals[row], or
// vals[idx[row]] when the column is gathered through idx.
type numCol[V int8 | int32 | float32] struct {
	vals []V
	idx  []int32
}

// adhocValue returns the typed value column of an aggregate field, or nil
// for count.
func adhocValue(db *store.DB, field string) valueCol {
	m := &db.Mentions
	switch field {
	case "delay":
		return numCol[int32]{vals: m.Delay}
	case "doclen":
		return numCol[int32]{vals: m.DocLen}
	case "tone":
		return numCol[float32]{vals: m.Tone}
	case "confidence":
		return numCol[int8]{vals: m.Confidence}
	case "articles":
		return numCol[int32]{vals: db.Events.NumArticles, idx: m.EventRow}
	}
	return nil
}

// fold adds values in row order, so a batch's float sums add exactly as a
// row-at-a-time loop would.
func (c numCol[V]) fold(a *adhocAcc, sel []int32, g groupSpec) {
	vals, idx := c.vals, c.idx
	if a.counts == nil {
		s := a.sum
		if idx == nil {
			for _, r := range sel {
				s += float64(vals[r])
			}
		} else {
			for _, r := range sel {
				s += float64(vals[idx[r]])
			}
		}
		a.sum = s
		return
	}
	n := uint32(len(a.counts))
	for _, r := range sel {
		j := r
		if idx != nil {
			j = idx[r]
		}
		gid := g.Col[r]
		if g.Remap != nil {
			gid = g.Remap[gid]
		}
		if uint32(gid) < n {
			a.counts[gid]++
			a.sums[gid] += float64(vals[j])
		}
	}
}

// AdhocRow is one grouped result row. Value carries the sum or mean when
// the aggregate has one; ranking is always by count ("the k most populous
// groups"), so ordering is integer-deterministic across plans, shard
// counts and worker counts.
type AdhocRow struct {
	Key   string   `json:"key"`
	Count int64    `json:"count"`
	Value *float64 `json:"value,omitempty"`
}

// AdhocResult is the shaped answer: the canonical where, the matched row
// count, the scalar aggregate value (ungrouped sum/mean), and the top-k
// grouped rows.
type AdhocResult struct {
	Where string     `json:"where"`
	Group string     `json:"group,omitempty"`
	Agg   string     `json:"agg"`
	Count int64      `json:"count"`
	Value *float64   `json:"value,omitempty"`
	Rows  []AdhocRow `json:"rows,omitempty"`
}

// ShapeAdhoc converts raw vectors into the result shape, resolving group
// ids to display keys. Zero-count groups never appear.
func ShapeAdhoc(spec AdhocSpec, vec AdhocVec, key func(g int) string) AdhocResult {
	out := AdhocResult{Where: spec.Where, Group: spec.Group, Agg: spec.Agg.String(), Count: vec.Count}
	if spec.Group == "" {
		switch spec.Agg.Kind {
		case qlang.AggSum:
			v := vec.Sum
			out.Value = &v
		case qlang.AggMean:
			if vec.Count > 0 {
				v := vec.Sum / float64(vec.Count)
				out.Value = &v
			}
		}
		return out
	}
	ids, counts := TopGroups(vec.Counts, spec.K, false)
	for i, g := range ids {
		row := AdhocRow{Key: key(int(g)), Count: counts[i]}
		switch spec.Agg.Kind {
		case qlang.AggSum:
			v := vec.Sums[g]
			row.Value = &v
		case qlang.AggMean:
			v := vec.Sums[g] / float64(counts[i])
			row.Value = &v
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// AdhocKey resolves group ids to display keys against a monolithic DB.
func AdhocKey(db *store.DB, group string) func(g int) string {
	switch group {
	case "source":
		return func(g int) string { return db.Sources.Name(int32(g)) }
	case "sourcecountry", "eventcountry":
		return func(g int) string { return gdelt.Countries[g].FIPS }
	case "quarter":
		return db.QuarterLabel
	}
	return nil
}

// AdhocQuery plans, executes and shapes a spec against a monolithic engine
// view.
func AdhocQuery(e *engine.Engine, spec AdhocSpec) (AdhocResult, error) {
	vec, err := AdhocVectors(e, spec)
	if err != nil {
		return AdhocResult{}, err
	}
	return ShapeAdhoc(spec, vec, AdhocKey(e.DB(), spec.Group)), nil
}
