// Package registry is the single source of truth for the system's query
// surface: one table of query descriptors — kind, parameter schema, and an
// execution function against the engine and the sharded view — that the
// HTTP server (internal/serve), the CLI (cmd/gdeltquery), the benchmark
// (bench/) and the differential test harness (internal/baseline) all
// dispatch through.
// Before the registry the same query inventory was wired three separate
// times; now a kind registered here is automatically
// served under /api/v1/<kind>, runnable as `gdeltquery <kind>`, covered by
// the differential harness, and — because a descriptor plus its resolved
// parameters canonicalize to a stable string — keyable in the result
// cache (internal/qcache). A kind that is a filtered, grouped count
// declares only a plan template and a Shape (Descriptor.Plan/Shape); its
// Run and RunSharded are derived from them, so it has no kernel of its
// own on either side (DESIGN.md §13, "Kinds declared as plans").
package registry

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/shard"
)

// ParamType is the wire type of one query parameter.
type ParamType int

const (
	// IntParam is a positive integer (e.g. k, window).
	IntParam ParamType = iota
	// StringParam is a free-form string (e.g. a qlang where expression).
	StringParam
	// StringListParam is a repeatable string (e.g. theme=...&theme=...).
	StringListParam
)

// String names the type for `gdeltquery list` and error messages.
func (t ParamType) String() string {
	switch t {
	case IntParam:
		return "int"
	case StringParam:
		return "string"
	case StringListParam:
		return "string list"
	}
	return "unknown"
}

// ParamSpec declares one parameter of a query kind.
type ParamSpec struct {
	// Name is the parameter name in URLs and -param k=v pairs.
	Name string
	// Type is the wire type.
	Type ParamType
	// Default is the textual default applied when the parameter is absent
	// (ignored for Required parameters). Empty string is a valid default
	// for StringParam.
	Default string
	// Required rejects requests that omit the parameter.
	Required bool
	// Max clamps IntParam values statically; 0 means no static cap (the
	// query clamps against dataset bounds itself).
	Max int
	// Canon, when non-nil, canonicalizes a resolved StringParam value
	// before the query and the cache key see it — e.g. a qlang expression
	// normalizes clause order and operator spelling, so "tone>5 and
	// delay>2" and "delay>2 && tone>5.0" share one cache entry. Invalid
	// values pass through unchanged and fail in the query with a parameter
	// error.
	Canon func(string) string
	// Help is the one-line description shown by `gdeltquery list`.
	Help string
}

// Params holds the resolved values of one request against a schema, with
// defaults applied. The zero value resolves every lookup to the zero of
// its type.
type Params struct {
	ints    map[string]int
	strs    map[string]string
	strList map[string][]string
}

// Int returns the resolved integer parameter.
func (p Params) Int(name string) int { return p.ints[name] }

// Str returns the resolved string parameter.
func (p Params) Str(name string) string { return p.strs[name] }

// Strings returns the resolved string-list parameter.
func (p Params) Strings(name string) []string { return p.strList[name] }

// badParamError marks parameter-shaped failures (unparseable values,
// missing required parameters, malformed filter expressions) so transports
// can map them to 400 rather than 500.
type badParamError struct{ err error }

func (e badParamError) Error() string { return e.err.Error() }
func (e badParamError) Unwrap() error { return e.err }

// BadParamf builds a parameter error; IsBadParam recognizes it.
func BadParamf(format string, args ...any) error {
	return badParamError{fmt.Errorf(format, args...)}
}

// BadParam wraps an existing error (e.g. a qlang compile error) as a
// parameter error.
func BadParam(err error) error {
	if err == nil {
		return nil
	}
	return badParamError{err}
}

// IsBadParam reports whether err (anywhere in its chain) is a parameter
// error that should surface as a client error, not a server failure.
func IsBadParam(err error) bool {
	for err != nil {
		if _, ok := err.(badParamError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Descriptor is one registered query kind: the keyable description of "a
// query" that every dispatch surface shares.
type Descriptor struct {
	// Kind is the canonical name: URL path segment under /api/v1/, CLI
	// subcommand, metric label, and cache-key component.
	Kind string
	// Help is the one-line description for listings.
	Help string
	// Params is the parameter schema, in canonical (listing and
	// cache-key) order.
	Params []ParamSpec
	// NeedsGKG marks kinds that require Global Knowledge Graph data;
	// they fail with queries.ErrNoGKG on datasets converted without it.
	NeedsGKG bool
	// Run executes the query against an engine view. The result must be a
	// freshly built, JSON-encodable value that callers treat as immutable
	// — it may be shared by reference across concurrent cached requests.
	// register derives it for a kind declared by Plan and Shape.
	Run func(e *engine.Engine, p Params) (any, error)
	// RunSharded executes the query against a sharded view, fanning out
	// per shard and reducing through the global dictionary remaps. It must
	// produce the same value (bit-exact integers, 1e-9 floats) as Run on
	// the equivalent monolith — the invariant the differential battery in
	// internal/baseline pins for every kind. register derives it for a kind
	// declared by Plan and Shape, or by Archive and Finish.
	RunSharded func(v *shard.View, p Params) (any, error)
	// WindowOnly marks a kind whose sharded answer reads nothing but the
	// mention rows inside the view's window, so it changes only when a
	// shard the window overlaps does. Its cache key carries the versions
	// of those shards alone, and an append to the tail leaves answers over
	// cold shards warm. The default (false) is the safe one: the answer
	// may read event tables, postings or per-event metadata that an append
	// changes in every part, so its key carries every part's version.
	WindowOnly bool
	// Archive and Finish, when set, split a kind whose answer is mostly
	// window-independent into two halves. Archive computes the half that
	// reads the whole archive whatever the view's window, shard subset or
	// parameters, and returns a read-only value; Finish completes the
	// answer for one view and parameter set from it. register derives
	// RunSharded as Finish(v, p, Archive(v)), and a cached Executor keeps
	// the Archive value under its own key, so a miss at a new window or
	// parameter set computes only Finish.
	Archive func(v *shard.View) any
	Finish  func(v *shard.View, p Params, archive any) (any, error)
	// Plan and Shape, when set, declare the kind as an ad-hoc plan. Plan
	// maps the parameters to the plan's spec; Shape renders the plan's
	// merged vectors as the kind's value, with key naming a group id.
	// register derives Run (queries.AdhocVectors on the engine) and
	// RunSharded (shard.View.AdhocVectors, merged over the parts) from
	// them, so each side supplies only its vectors and its key names, and
	// the planner's paths, fast paths and qlang_plan_total accounting are
	// the kind's too. Plan fails only with a parameter error; an execution
	// error (a clause the store cannot bind) surfaces as one as well.
	Plan  func(p Params) (queries.AdhocSpec, error)
	Shape func(p Params, vec queries.AdhocVec, key func(g int) string) any
}

// ParseParams resolves the descriptor's schema against get, which returns
// the raw values of a named parameter (url.Values.Get semantics with
// repetition: nil or empty slice means absent). Unknown parameters are the
// caller's concern — transports that want strictness use CheckKnown.
func (d *Descriptor) ParseParams(get func(name string) []string) (Params, error) {
	p := Params{
		ints:    make(map[string]int),
		strs:    make(map[string]string),
		strList: make(map[string][]string),
	}
	for _, spec := range d.Params {
		raw := get(spec.Name)
		if len(raw) == 0 {
			if spec.Required {
				return Params{}, BadParamf("%s: required parameter %q missing", d.Kind, spec.Name)
			}
			raw = nil
		}
		switch spec.Type {
		case IntParam:
			v := spec.Default
			if raw != nil {
				v = raw[len(raw)-1]
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return Params{}, BadParamf("invalid %s %q", spec.Name, v)
			}
			if spec.Max > 0 && n > spec.Max {
				n = spec.Max
			}
			p.ints[spec.Name] = n
		case StringParam:
			v := spec.Default
			if raw != nil {
				v = raw[len(raw)-1]
			}
			if spec.Canon != nil {
				v = spec.Canon(v)
			}
			p.strs[spec.Name] = v
		case StringListParam:
			vals := raw
			if vals == nil && spec.Default != "" {
				vals = strings.Split(spec.Default, ",")
			}
			p.strList[spec.Name] = vals
		}
	}
	return p, nil
}

// ParseURLValues is ParseParams over parsed query values.
func (d *Descriptor) ParseURLValues(q url.Values) (Params, error) {
	return d.ParseParams(func(name string) []string { return q[name] })
}

// CheckKnown rejects parameter names that are neither in the schema nor in
// the common set every kind accepts — the strict mode the CLI uses so a
// typoed -param fails loudly instead of being silently ignored.
func (d *Descriptor) CheckKnown(names []string) error {
	for _, n := range names {
		if IsCommonParam(n) {
			continue
		}
		known := false
		for _, spec := range d.Params {
			if spec.Name == n {
				known = true
				break
			}
		}
		if !known {
			return BadParamf("%s: unknown parameter %q (see `gdeltquery list`)", d.Kind, n)
		}
	}
	return nil
}

// Canonical renders resolved parameters as the stable string the cache
// keys on: spec-ordered name=value pairs with defaults materialized, so
// "?k=10", "?" (absent) and any parameter ordering all map to one key.
// Parsing the result again yields the same string (FuzzQueryParams).
func (d *Descriptor) Canonical(p Params) string {
	var b strings.Builder
	for i, spec := range d.Params {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString(spec.Name)
		b.WriteByte('=')
		switch spec.Type {
		case IntParam:
			b.WriteString(strconv.Itoa(p.Int(spec.Name)))
		case StringParam:
			b.WriteString(url.QueryEscape(p.Str(spec.Name)))
		case StringListParam:
			// One name=value pair per value, the spelling the list parses
			// from, so Canonical reparses to itself.
			for j, v := range p.Strings(spec.Name) {
				if j > 0 {
					b.WriteString("&" + spec.Name + "=")
				}
				b.WriteString(url.QueryEscape(v))
			}
		}
	}
	return b.String()
}

var (
	kinds   = make(map[string]*Descriptor)
	ordered []*Descriptor
)

// register adds a descriptor at package init; duplicate kinds are a
// programming error.
func register(d *Descriptor) *Descriptor {
	if _, dup := kinds[d.Kind]; dup {
		panic("registry: duplicate kind " + d.Kind)
	}
	if d.Plan != nil || d.Shape != nil {
		if d.Plan == nil || d.Shape == nil || d.Run != nil || d.RunSharded != nil || d.Archive != nil {
			panic("registry: kind " + d.Kind + " must set Plan and Shape, and no Run, RunSharded or Archive")
		}
		d.Run = func(e *engine.Engine, p Params) (any, error) {
			spec, err := d.Plan(p)
			if err != nil {
				return nil, err
			}
			vec, err := queries.AdhocVectors(e, spec)
			if err != nil {
				return nil, BadParam(err)
			}
			return d.Shape(p, vec, queries.AdhocKey(e.DB(), spec.Group)), nil
		}
		d.RunSharded = func(v *shard.View, p Params) (any, error) {
			spec, err := d.Plan(p)
			if err != nil {
				return nil, err
			}
			vec, err := v.AdhocVectors(spec)
			if err != nil {
				return nil, BadParam(err)
			}
			return d.Shape(p, vec, v.AdhocKey(spec.Group)), nil
		}
	}
	if d.Archive != nil || d.Finish != nil {
		if d.Archive == nil || d.Finish == nil || d.RunSharded != nil {
			panic("registry: kind " + d.Kind + " must set Archive and Finish, and no RunSharded")
		}
		d.RunSharded = func(v *shard.View, p Params) (any, error) {
			return d.Finish(v, p, d.Archive(v))
		}
	}
	kinds[d.Kind] = d
	ordered = append(ordered, d)
	return d
}

// Lookup resolves a kind name to its descriptor.
func Lookup(name string) (*Descriptor, bool) {
	d, ok := kinds[name]
	return d, ok
}

// MustLookup is Lookup for names known at compile time.
func MustLookup(name string) *Descriptor {
	d, ok := Lookup(name)
	if !ok {
		panic("registry: unknown kind " + name)
	}
	return d
}

// All returns every descriptor in registration order.
func All() []*Descriptor {
	out := make([]*Descriptor, len(ordered))
	copy(out, ordered)
	return out
}

// Kinds returns every canonical kind name, sorted.
func Kinds() []string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
