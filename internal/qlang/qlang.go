// Package qlang implements the user-defined query language of the query
// execution engine: conjunctions of typed field comparisons, parsed into a
// small composable algebra (ast.go) with an optional group-by/aggregate
// spec (agg.go). An expression canonicalizes to a stable string for result
// caching, classifies statically into index-answerable and residual
// clauses for predicate pushdown (plan.go), and compiles against a store
// into typed batch stages (stage.go) that select the passing rows of a
// window or narrow a row list. It gives CLI and HTTP users ad-hoc filtering
// ("sourcecountry=UK and delay>96 and quarter>=2016Q1") without writing Go.
//
// Grammar (conjunction-only; AND may be written "and" or "&&"):
//
//	expr   := clause { ("and" | "&&") clause }
//	clause := field op value
//	op     := "=" | "!=" | "<" | "<=" | ">" | ">="
//	value  := integer | float | quarter (2016Q3) | string (bare or 'quoted')
//
// Fields (evaluated per mention row):
//
//	delay          publishing delay in 15-minute intervals
//	interval       capture interval index
//	quarter        calendar quarter (compare against 2016Q3-style literals)
//	doclen         article length in characters
//	tone           document tone (float)
//	confidence     event-match confidence 0..100
//	source         source domain (string; equality operators only)
//	sourcecountry  publisher country FIPS code (string)
//	eventcountry   event country FIPS code (string; untagged events never match =)
//	articles       the mentioned event's total article count
package qlang

import (
	"fmt"
	"math"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/store"
)

// Op is a comparison operator.
type Op int

// Comparison operators in precedence-free conjunction clauses.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opNames = map[string]Op{
	"=": OpEq, "==": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Filter is an expression compiled against one DB: one typed batch stage
// per clause (stage.go), evaluated as a selection-vector pipeline. The
// pushdown planner binds only the residual (non-indexed) clauses of an
// expression this way; Compile binds all of them.
type Filter struct {
	stages  []stage
	none    bool // some clause holds for no row: the filter selects nothing
	clauses int
	expr    string
}

// Expr returns the source expression.
func (f *Filter) Expr() string { return f.expr }

// Clauses returns the number of compiled clauses.
func (f *Filter) Clauses() int { return f.clauses }

// Select appends the mention rows of [lo, hi) that satisfy every clause to
// out, ascending, and returns the extended slice; out's existing elements
// are kept. The range must lie within the DB's mention table. A nil Filter
// selects every row, so "no residual clauses" needs no special casing.
func (f *Filter) Select(lo, hi int, out []int32) []int32 {
	if lo >= hi || f != nil && f.none {
		return out
	}
	if f == nil || len(f.stages) == 0 {
		for r := lo; r < hi; r++ {
			out = append(out, int32(r))
		}
		return out
	}
	n := len(out)
	out = f.stages[0].sel(lo, hi, out)
	sel := out[n:]
	for _, s := range f.stages[1:] {
		sel = s.refine(sel)
	}
	return out[:n+len(sel)]
}

// Refine narrows the mention rows of sel in place to those satisfying
// every clause, keeping their order, and returns the prefix of sel that
// holds them. A nil Filter keeps every row.
func (f *Filter) Refine(sel []int32) []int32 {
	if f == nil {
		return sel
	}
	if f.none {
		return sel[:0]
	}
	for _, s := range f.stages {
		sel = s.refine(sel)
	}
	return sel
}

// Compile parses and compiles expr against db. An empty expression compiles
// to the match-everything filter.
func Compile(db *store.DB, expr string) (*Filter, error) {
	e, err := Parse(expr)
	if err != nil {
		return nil, err
	}
	return Bind(db, e.Clauses, expr)
}

// Bind compiles an already-parsed clause list against db, labelling the
// filter with expr. The pushdown planner uses it to bind just the residual
// clauses of an expression whose indexed clauses a bitmap plan answers.
// A clause whose outcome does not depend on the row compiles to no stage.
// Direct-column stages run before gathered ones, so the random lookups
// only test rows the sequential stages let through.
func Bind(db *store.DB, clauses []Clause, expr string) (*Filter, error) {
	f := &Filter{expr: expr, clauses: len(clauses)}
	var gathered []stage
	for _, c := range clauses {
		s, pass, err := bindClause(db, c)
		switch {
		case err != nil:
			return nil, err
		case s == nil:
			f.none = f.none || !pass
		case s.gathered():
			gathered = append(gathered, s)
		default:
			f.stages = append(f.stages, s)
		}
	}
	f.stages = append(f.stages, gathered...)
	return f, nil
}

// QuarterIndex converts a parsed quarter clause's absolute quarter into
// db's quarter index (possibly out of range: a quarter outside the archive
// matches no row under =, every row under an always-true inequality).
func QuarterIndex(db *store.DB, v Value) int {
	baseAbs := db.Meta.Start.Year()*4 + (db.Meta.Start.Month()-1)/3
	return int(v.Int) - baseAbs
}

// bindClause resolves the field and compiles the clause to its typed
// stage; when the clause's outcome does not depend on the row it returns a
// nil stage and that outcome. The clause arrives type-checked by Parse, so
// value conversions cannot fail; only store-dependent resolution happens
// here.
func bindClause(db *store.DB, c Clause) (s stage, pass bool, err error) {
	op, v := c.Op, c.Value
	m := &db.Mentions
	switch c.Field {
	case "delay":
		s, pass = colStageOf(m.Delay, intSpan(op, v.Int))
	case "interval":
		s, pass = colStageOf(m.Interval, intSpan(op, v.Int))
	case "doclen":
		s, pass = colStageOf(m.DocLen, intSpan(op, v.Int))
	case "confidence":
		s, pass = colStageOf(m.Confidence, intSpan(op, v.Int))
	case "articles":
		s, pass = gatherStageOf(m.EventRow, db.Events.NumArticles, intSpan(op, v.Int))
	case "quarter":
		s, pass = gatherStageOf(m.Interval, db.QuarterLUT(), intSpan(op, int64(QuarterIndex(db, v))))
	case "tone":
		s, pass = floatStageOf(m.Tone, op, v.Float)
	case "source":
		id := int64(db.Sources.Lookup(v.Str))
		s, pass = colStageOf(m.Source, span{id, id, op == OpNe})
	case "sourcecountry":
		want := int64(gdelt.CountryIndex(v.Str))
		s, pass = gatherStageOf(m.Source, db.SourceCountry, span{want, want, op == OpNe})
	case "eventcountry":
		want := int64(gdelt.CountryIndex(v.Str))
		s, pass = gatherStageOf(m.EventRow, db.Events.Country, span{want, want, op == OpNe})
	default:
		return nil, false, fmt.Errorf("qlang: unknown field %q", c.Field)
	}
	return s, pass, nil
}

// span is an integer clause lowered to an inclusive range test: a value
// passes when lo <= v <= hi, inverted when neg (the != operator). lo > hi
// is the empty range.
type span struct {
	lo, hi int64
	neg    bool
}

// intSpan lowers an integer comparison against v to a span, saturating at
// the int64 limits: "< MinInt64" and "> MaxInt64" are empty.
func intSpan(op Op, v int64) span {
	switch op {
	case OpEq:
		return span{v, v, false}
	case OpNe:
		return span{v, v, true}
	case OpLt:
		if v == math.MinInt64 {
			return span{1, 0, false}
		}
		return span{math.MinInt64, v - 1, false}
	case OpLe:
		return span{math.MinInt64, v, false}
	case OpGt:
		if v == math.MaxInt64 {
			return span{1, 0, false}
		}
		return span{v + 1, math.MaxInt64, false}
	default:
		return span{v, math.MaxInt64, false}
	}
}

// clamp restricts s to [dmin, dmax], the values a column element can hold.
// When the test's outcome then no longer depends on the value (no value,
// or every value, is in range), constant is true and pass is the outcome.
func (s span) clamp(dmin, dmax int64) (c span, constant, pass bool) {
	lo, hi := max(s.lo, dmin), min(s.hi, dmax)
	switch {
	case lo > hi:
		return s, true, s.neg
	case lo == dmin && hi == dmax:
		return s, true, !s.neg
	}
	return span{lo, hi, s.neg}, false, false
}
