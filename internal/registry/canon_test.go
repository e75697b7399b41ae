package registry

import (
	"bytes"
	"encoding/json"
	"net/url"
	"testing"

	"gdeltmine/internal/qcache"
)

// Parameter canonicalization (DESIGN.md §13): the shared where/group/agg/
// explain constructors canonicalize values at parse time, so every kind
// that accepts them produces identical cache keys for semantically
// identical requests — the qcache double-caching bugfix, pinned here at the
// registry layer.

func parseQuery(t *testing.T, kind, rawQuery string) (*Descriptor, Params) {
	t.Helper()
	d, ok := Lookup(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.ParseURLValues(q)
	if err != nil {
		t.Fatalf("%q: %v", rawQuery, err)
	}
	return d, p
}

func TestWhereCanonicalizedInCacheKey(t *testing.T) {
	// Spellings that must collapse: clause order, && vs and, == vs =,
	// quoting, float formatting. Checked on both the ad-hoc kind and a
	// legacy filtered kind, which share the where constructor.
	for _, kind := range []string{"query", "count"} {
		d, p1 := parseQuery(t, kind, "where="+url.QueryEscape("tone>5 and delay>2"))
		_, p2 := parseQuery(t, kind, "where="+url.QueryEscape("delay>2 && tone>5.0"))
		_, p3 := parseQuery(t, kind, "where="+url.QueryEscape("delay > 2 AND tone == 5e0")) // != semantics
		if d.Canonical(p1) != d.Canonical(p2) {
			t.Errorf("%s: equivalent spellings key differently: %q vs %q",
				kind, d.Canonical(p1), d.Canonical(p2))
		}
		if d.Canonical(p1) == d.Canonical(p3) {
			t.Errorf("%s: distinct expressions share a key: %q", kind, d.Canonical(p1))
		}
	}
}

func TestQueryParamCanonDefaults(t *testing.T) {
	d, p := parseQuery(t, "query", "")
	if got := p.Str("agg"); got != "count" {
		t.Errorf("default agg canonicalizes to %q, want count", got)
	}
	if got := p.Str("where"); got != "" {
		t.Errorf("default where %q, want empty", got)
	}
	// agg spellings collapse: "count", "" and "COUNT" share one key.
	_, p2 := parseQuery(t, "query", "agg=COUNT")
	if d.Canonical(p) != d.Canonical(p2) {
		t.Errorf("agg spellings key differently: %q vs %q", d.Canonical(p), d.Canonical(p2))
	}
	// explain truthy spellings canonicalize to "1", falsy to "".
	for raw, want := range map[string]string{
		"explain=true": "1", "explain=YES": "1", "explain=1": "1",
		"explain=0": "", "explain=false": "", "explain=": "",
	} {
		_, pe := parseQuery(t, "query", raw)
		if got := pe.Str("explain"); got != want {
			t.Errorf("%s: canonicalized to %q, want %q", raw, got, want)
		}
	}
	// group canonicalizes case and whitespace.
	_, pg := parseQuery(t, "query", "group="+url.QueryEscape(" Quarter "))
	if got := pg.Str("group"); got != "quarter" {
		t.Errorf("group canonicalized to %q, want quarter", got)
	}
}

// TestQueryExplainIsCached: an explain answer depends only on the snapshot
// and the params, so it goes through the cache like every other answer —
// miss, then a hit with a byte-identical body — under its own key, never
// the executed query's.
func TestQueryExplainIsCached(t *testing.T) {
	ex := &Executor{Cache: qcache.New(0)}
	d, pExplain := parseQuery(t, "query", "explain=yes&where="+url.QueryEscape("tone>0"))
	_, pRun := parseQuery(t, "query", "where="+url.QueryEscape("tone>0"))
	if d.Canonical(pExplain) == d.Canonical(pRun) {
		t.Fatalf("explain and executed query share a key: %q", d.Canonical(pRun))
	}
	v := testWorld(t).View().WithKind(d.Kind)
	var bodies [2][]byte
	for i, want := range []qcache.Outcome{qcache.Miss, qcache.Hit} {
		val, out, err := ex.ExecuteSharded(d, v, pExplain)
		if err != nil || out != want {
			t.Fatalf("explain request %d: outcome %v (%v), want %v", i, out, err, want)
		}
		if bodies[i], err = json.Marshal(val); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("cached explain body differs:\n%s\n%s", bodies[0], bodies[1])
	}
	if _, out, err := ex.ExecuteSharded(d, v, pRun); err != nil || out != qcache.Miss {
		t.Fatalf("executed query after explain: outcome %v (%v), want miss", out, err)
	}
}
