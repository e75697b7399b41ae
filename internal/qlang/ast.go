package qlang

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gdeltmine/internal/gdelt"
)

// The parsed representation of a qlang expression. Parsing is store-free:
// an Expr depends only on the grammar and the static field table, so the
// same AST can be canonicalized for cache keys, classified for predicate
// pushdown, and bound against any number of shard-local stores. Binding
// (qlang.go) is where a store enters the picture.

// ValueKind is the lexical type of a clause's right-hand side.
type ValueKind int

const (
	// ValInt is an integer literal.
	ValInt ValueKind = iota
	// ValFloat is a floating-point literal (tone comparisons).
	ValFloat
	// ValQuarter is a calendar-quarter literal such as 2016Q3.
	ValQuarter
	// ValString is a bare or quoted string (source domains, country codes).
	ValString
)

// Value is one typed comparison value. Str always holds the canonical
// rendering; the typed fields hold the parsed form the binder compares
// against columns. For ValQuarter, Int is the absolute quarter index
// (year*4 + quarter-1), converted to a store-relative index at bind time.
type Value struct {
	Kind  ValueKind
	Str   string
	Int   int64
	Float float64
}

// Clause is one typed comparison: field op value.
type Clause struct {
	Field string
	Op    Op
	Value Value
}

// String renders the clause canonically: lowercase field, canonical
// operator spelling, normalized value.
func (c Clause) String() string {
	return c.Field + c.Op.String() + canonValue(c)
}

// Expr is a parsed conjunction of clauses. The zero clause list matches
// every row.
type Expr struct {
	Clauses []Clause
}

// Canonical renders the expression in canonical form: clauses sorted by
// (field, op, value), duplicates collapsed, one spelling per operator
// ("=" not "=="), values normalized (integers without leading zeros,
// country codes uppercased, strings quoted only when the grammar needs
// it), joined with " and ". Semantically identical spellings — clause
// order, "&&" vs "and", '=' vs '==', quoting — all map to one string, so
// result caches keyed on the canonical form never double-cache.
func (e *Expr) Canonical() string {
	if len(e.Clauses) == 0 {
		return ""
	}
	parts := make([]string, len(e.Clauses))
	for i, c := range e.Clauses {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	out := parts[:1]
	for _, p := range parts[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return strings.Join(out, " and ")
}

// CanonicalExpr canonicalizes a qlang expression, returning the input
// unchanged when it does not parse (the caller will surface the parse
// error on execution; an unparseable string cannot alias a parseable one
// because parseable keys are always fully canonalized).
func CanonicalExpr(expr string) string {
	e, err := Parse(expr)
	if err != nil {
		return expr
	}
	return e.Canonical()
}

// fieldKind is the comparison type a field supports.
type fieldKind int

const (
	fieldInt fieldKind = iota
	fieldFloat
	fieldQuarter
	fieldString // equality operators only
)

// fieldTable drives parsing, canonicalization and pushdown classification.
var fieldTable = map[string]fieldKind{
	"delay":         fieldInt,
	"interval":      fieldInt,
	"doclen":        fieldInt,
	"confidence":    fieldInt,
	"articles":      fieldInt,
	"tone":          fieldFloat,
	"quarter":       fieldQuarter,
	"source":        fieldString,
	"sourcecountry": fieldString,
	"eventcountry":  fieldString,
}

// countryField reports whether the field's values are FIPS country codes.
func countryField(field string) bool {
	return field == "sourcecountry" || field == "eventcountry"
}

// Parse lexes and parses expr into its AST, validating field names,
// operator compatibility and value syntax. It needs no store: everything a
// store contributes (source ids, quarter base) binds later. An empty
// expression parses to the match-everything Expr.
func Parse(expr string) (*Expr, error) {
	toks, err := lex(expr)
	if err != nil {
		return nil, err
	}
	e := &Expr{}
	pos := 0
	for pos < len(toks) {
		if toks[pos].kind == tokAnd {
			pos++
			continue
		}
		if pos+3 > len(toks) {
			return nil, fmt.Errorf("qlang: incomplete clause at %q", remainder(toks[pos:]))
		}
		field, op, val := toks[pos], toks[pos+1], toks[pos+2]
		pos += 3
		if field.kind != tokWord {
			return nil, fmt.Errorf("qlang: expected field name, got %q", field.text)
		}
		if op.kind != tokOp {
			return nil, fmt.Errorf("qlang: expected operator after %q, got %q", field.text, op.text)
		}
		c, err := parseClause(strings.ToLower(field.text), opNames[op.text], val.text)
		if err != nil {
			return nil, err
		}
		e.Clauses = append(e.Clauses, c)
	}
	return e, nil
}

// parseClause type-checks one clause against the field table.
func parseClause(field string, op Op, val string) (Clause, error) {
	c := Clause{Field: field, Op: op}
	kind, ok := fieldTable[field]
	if !ok {
		return c, fmt.Errorf("qlang: unknown field %q", field)
	}
	switch kind {
	case fieldInt:
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return c, fmt.Errorf("qlang: expected an integer, got %q", val)
		}
		c.Value = Value{Kind: ValInt, Str: strconv.FormatInt(v, 10), Int: v}
	case fieldFloat:
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return c, fmt.Errorf("qlang: %s needs a number, got %q", field, val)
		}
		c.Value = Value{Kind: ValFloat, Str: strconv.FormatFloat(f, 'g', -1, 64), Float: f}
	case fieldQuarter:
		abs, err := parseQuarterLiteral(val)
		if err != nil {
			return c, err
		}
		c.Value = Value{Kind: ValQuarter,
			Str: fmt.Sprintf("%dQ%d", abs/4, abs%4+1), Int: int64(abs)}
	case fieldString:
		if op != OpEq && op != OpNe {
			return c, fmt.Errorf("qlang: %s supports = and != only", field)
		}
		s := val
		if countryField(field) {
			s = strings.ToUpper(s)
			if gdelt.CountryIndex(s) < 0 {
				return c, fmt.Errorf("qlang: unknown country code %q", val)
			}
		}
		c.Value = Value{Kind: ValString, Str: s}
	}
	return c, nil
}

// parseQuarterLiteral converts "2016Q3" to the absolute quarter index
// year*4 + (q-1).
func parseQuarterLiteral(s string) (int, error) {
	su := strings.ToUpper(s)
	i := strings.IndexByte(su, 'Q')
	if i < 0 {
		return 0, fmt.Errorf("qlang: quarter literal %q (want e.g. 2016Q3)", s)
	}
	year, err1 := strconv.Atoi(su[:i])
	qq, err2 := strconv.Atoi(su[i+1:])
	if err1 != nil || err2 != nil || qq < 1 || qq > 4 || year < 0 {
		return 0, fmt.Errorf("qlang: quarter literal %q (want e.g. 2016Q3)", s)
	}
	return year*4 + qq - 1, nil
}

// canonValue renders a clause value in its canonical textual form, quoting
// strings only when the bare spelling would not survive the lexer.
func canonValue(c Clause) string {
	if c.Value.Kind != ValString {
		return c.Value.Str
	}
	s := c.Value.Str
	if s == "" || strings.EqualFold(s, "and") || strings.ContainsAny(s, " \t\n=!<>&'\"") {
		// A token can hold one quote kind but never both (the grammar has
		// no escapes), so the other kind always delimits safely.
		if strings.ContainsRune(s, '\'') {
			return `"` + s + `"`
		}
		return "'" + s + "'"
	}
	return s
}

func remainder(toks []token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.text
	}
	return strings.Join(parts, " ")
}

// --- lexer ---

type tokKind int

const (
	tokWord tokKind = iota
	tokOp
	tokAnd
)

type token struct {
	kind tokKind
	text string
}

func lex(expr string) ([]token, error) {
	var out []token
	i := 0
	for i < len(expr) {
		c := expr[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '=' || c == '!' || c == '<' || c == '>':
			j := i + 1
			if j < len(expr) && expr[j] == '=' {
				j++
			}
			op := expr[i:j]
			if _, ok := opNames[op]; !ok {
				return nil, fmt.Errorf("qlang: bad operator %q", op)
			}
			out = append(out, token{tokOp, op})
			i = j
		case c == '&':
			if i+1 >= len(expr) || expr[i+1] != '&' {
				return nil, fmt.Errorf("qlang: bad operator %q", "&")
			}
			out = append(out, token{tokAnd, "&&"})
			i += 2
		case c == '\'' || c == '"':
			j := strings.IndexByte(expr[i+1:], c)
			if j < 0 {
				return nil, fmt.Errorf("qlang: unterminated string at %q", expr[i:])
			}
			out = append(out, token{tokWord, expr[i+1 : i+1+j]})
			i += j + 2
		default:
			j := i
			for j < len(expr) && !strings.ContainsRune(" \t\n=!<>&'\"", rune(expr[j])) {
				j++
			}
			word := expr[i:j]
			if strings.EqualFold(word, "and") {
				out = append(out, token{tokAnd, word})
			} else {
				out = append(out, token{tokWord, word})
			}
			i = j
		}
	}
	return out, nil
}
