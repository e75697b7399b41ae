package registry

import (
	"strconv"
	"strings"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/qlang"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// Common parameters accepted by every query kind, on top of each
// descriptor's own schema: they shape the engine view (parallelism and
// capture-time window), not the query.
const (
	ParamWorkers = "workers"
	ParamFrom    = "from"
	ParamTo      = "to"
)

// IsCommonParam reports whether name is one of the engine-view parameters
// every kind accepts.
func IsCommonParam(name string) bool {
	return name == ParamWorkers || name == ParamFrom || name == ParamTo
}

// Query-shaping parameters shared by several kinds. One constructor per
// parameter keeps the schema — name, default, canonicalization, help text —
// defined once, so every kind that accepts "where" parses, validates and
// cache-keys it identically (uniform 400 envelopes come from the shared
// BadParam path).

// kParam is the standard top-k row limit.
func kParam(help string) ParamSpec {
	return ParamSpec{Name: "k", Type: IntParam, Default: "10", Help: help}
}

// pairKParam is kParam capped at 512 for the kinds that build a k×k
// publisher matrix (co-report's pair algebra costs O(k² × containers)). The
// cap is a static clamp, like themes' k, so the clamped value is what
// reaches the cache key.
func pairKParam(help string) ParamSpec {
	p := kParam(help)
	p.Max = 512
	return p
}

// whereParam is a qlang filter expression, canonicalized (sorted clauses,
// one operator spelling, minimal quoting) before queries and cache keys
// see it. Expressions that fail to parse pass through and fail in the
// query with a parameter error.
func whereParam() ParamSpec {
	return ParamSpec{Name: "where", Type: StringParam, Default: "",
		Canon: qlang.CanonicalExpr,
		Help:  "qlang filter expression (empty matches every article)"}
}

// groupParam is the group-by field of the ad-hoc query kind.
func groupParam() ParamSpec {
	return ParamSpec{Name: "group", Type: StringParam, Default: "",
		Canon: func(s string) string { return strings.ToLower(strings.TrimSpace(s)) },
		Help:  "group rows by source, sourcecountry, eventcountry or quarter (empty: scalar)"}
}

// aggParam is the aggregate spec of the ad-hoc query kind.
func aggParam() ParamSpec {
	return ParamSpec{Name: "agg", Type: StringParam, Default: "",
		Canon: func(s string) string {
			a, err := qlang.ParseAgg(s)
			if err != nil {
				return s
			}
			return a.String()
		},
		Help: "aggregate: count (default), sum:<field> or mean:<field>"}
}

// explainParam requests the chosen plan instead of executing. It is a
// StringParam because IntParam cannot express a 0 default; truthy
// spellings canonicalize to "1", falsy ones to "".
func explainParam() ParamSpec {
	return ParamSpec{Name: "explain", Type: StringParam, Default: "",
		Canon: canonBool,
		Help:  "return the chosen plan without executing (explain=1)"}
}

func canonBool(s string) string {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "1", "true", "yes":
		return "1"
	case "", "0", "false", "no":
		return ""
	}
	return s
}

// parseExplain decodes a canonicalized explain value; anything canonBool
// left alone is a parameter error.
func parseExplain(p Params) (bool, error) {
	switch p.Str("explain") {
	case "1":
		return true, nil
	case "":
		return false, nil
	}
	return false, BadParamf("invalid explain %q (want 0 or 1)", p.Str("explain"))
}

// commonParams is the parsed form of the view-shaping parameters, shared
// by the monolithic (DeriveEngine) and sharded (DeriveView) derivations so
// both resolve workers and timestamp windows identically.
type commonParams struct {
	workers    int
	hasWorkers bool
	lo, hi     int32
	windowed   bool
}

// lastValue resolves url.Values-style repetition: the last occurrence wins,
// absence is the empty string.
func lastValue(get func(name string) []string, name string) string {
	v := get(name)
	if len(v) == 0 {
		return ""
	}
	return v[len(v)-1]
}

func parseCommon(meta store.Meta, get func(name string) []string) (commonParams, error) {
	var c commonParams
	one := func(name string) string { return lastValue(get, name) }
	if ws := one(ParamWorkers); ws != "" {
		w, err := strconv.Atoi(ws)
		if err != nil || w < 0 {
			return c, BadParamf("invalid workers %q", ws)
		}
		c.workers, c.hasWorkers = w, true
	}
	from, to := one(ParamFrom), one(ParamTo)
	if from != "" || to != "" {
		base := meta.Start.IntervalIndex()
		lo, hi := int64(0), int64(meta.Intervals)
		if from != "" {
			ts, err := gdelt.ParseTimestamp(from)
			if err != nil {
				return c, BadParamf("invalid from: %v", err)
			}
			lo = ts.IntervalIndex() - base
		}
		if to != "" {
			ts, err := gdelt.ParseTimestamp(to)
			if err != nil {
				return c, BadParamf("invalid to: %v", err)
			}
			hi = ts.IntervalIndex() - base
		}
		if lo < 0 {
			lo = 0
		}
		if hi > int64(meta.Intervals) {
			hi = int64(meta.Intervals)
		}
		if hi < lo {
			return c, BadParamf("empty window")
		}
		c.lo, c.hi, c.windowed = int32(lo), int32(hi), true
	}
	return c, nil
}

// DeriveEngine applies the common parameters to a base engine view:
// workers pins the parallel worker count (0 restores the default), and
// from/to restrict scans to the capture intervals of a timestamp window.
// Transport concerns (request context, kind label) stay with the caller;
// errors are parameter errors (IsBadParam).
func DeriveEngine(e *engine.Engine, get func(name string) []string) (*engine.Engine, error) {
	c, err := parseCommon(e.DB().Meta, get)
	if err != nil {
		return nil, err
	}
	if c.hasWorkers {
		e = e.WithWorkers(c.workers)
	}
	if c.windowed {
		e = e.WithInterval(c.lo, c.hi)
	}
	return e, nil
}

// DeriveView is DeriveEngine for a sharded view: the same parameters
// parsed the same way, applied to the fan-out execution context.
func DeriveView(v *shard.View, get func(name string) []string) (*shard.View, error) {
	c, err := parseCommon(v.DB().Meta(), get)
	if err != nil {
		return nil, err
	}
	if c.hasWorkers {
		v = v.WithWorkers(c.workers)
	}
	if c.windowed {
		v = v.WithWindow(c.lo, c.hi)
	}
	return v, nil
}
