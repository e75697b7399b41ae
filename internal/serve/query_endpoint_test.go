package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// /api/v1/query endpoint coverage (DESIGN.md §13): the composable ad-hoc
// surface — where/group/agg/k parameters, GET and POST, the explain=1 plan
// report, canonicalization-aware caching, and uniform 400 envelopes.

type queryResult struct {
	Where string   `json:"where"`
	Group string   `json:"group"`
	Agg   string   `json:"agg"`
	Count int64    `json:"count"`
	Value *float64 `json:"value"`
	Rows  []struct {
		Key   string   `json:"key"`
		Count int64    `json:"count"`
		Value *float64 `json:"value"`
	} `json:"rows"`
}

func TestQueryEndpointGET(t *testing.T) { eachWorld(t, testQueryEndpointGET) }

func testQueryEndpointGET(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var res queryResult
	if code := getJSON(t, srv, "/api/v1/query?where="+url.QueryEscape("delay>0")+
		"&group=source&agg=count&k=5", &res); code != 200 {
		t.Fatalf("status %d", code)
	}
	if res.Where != "delay>0" || res.Group != "source" || res.Agg != "count" {
		t.Fatalf("echoed spec %+v", res)
	}
	if res.Count <= 0 || len(res.Rows) == 0 || len(res.Rows) > 5 {
		t.Fatalf("result %+v", res)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Count > res.Rows[i-1].Count {
			t.Fatalf("rows not count-ordered: %+v", res.Rows)
		}
	}
	// A scalar mean carries a value and no rows.
	var scalar queryResult
	if code := getJSON(t, srv, "/api/v1/query?agg="+url.QueryEscape("mean:doclen"), &scalar); code != 200 {
		t.Fatalf("scalar status %d", code)
	}
	if scalar.Value == nil || len(scalar.Rows) != 0 {
		t.Fatalf("scalar result %+v", scalar)
	}
}

// TestQueryEndpointPOST: POST form bodies carry the same parameters (long
// expressions outgrow URLs) and must answer identically to GET.
func TestQueryEndpointPOST(t *testing.T) { eachWorld(t, testQueryEndpointPOST) }

func testQueryEndpointPOST(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	params := "where=" + url.QueryEscape("sourcecountry=US and delay>2") + "&group=quarter&agg=sum:doclen"
	_, getBody := get(t, srv, "/api/v1/query?"+params)
	resp, err := http.Post(srv.URL+"/api/v1/query", "application/x-www-form-urlencoded",
		strings.NewReader(params))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	postBody, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("POST status %d: %s", resp.StatusCode, postBody)
	}
	if string(postBody) != string(getBody) {
		t.Fatalf("POST body differs from GET:\n%s\nvs\n%s", postBody, getBody)
	}
}

// TestQueryCanonicalizationSharesCache is the satellite bugfix pinned at
// the HTTP layer: two spellings of one expression — reordered clauses,
// "&&" vs "and", "==" vs "=" — must hit the same cache entry.
func TestQueryCanonicalizationSharesCache(t *testing.T) {
	eachWorld(t, testQueryCanonicalizationSharesCache)
}

func testQueryCanonicalizationSharesCache(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	a := "/api/v1/query?where=" + url.QueryEscape("tone>1 and delay>2") + "&group=source"
	b := "/api/v1/query?where=" + url.QueryEscape("delay>2 && tone>1.0") + "&group=source"
	ra, abody := get(t, srv, a)
	rb, bbody := get(t, srv, b)
	if ra.StatusCode != 200 || rb.StatusCode != 200 {
		t.Fatalf("status %d / %d", ra.StatusCode, rb.StatusCode)
	}
	if xc := rb.Header.Get("X-Cache"); xc != "hit" {
		t.Fatalf("equivalent spelling X-Cache %q, want hit", xc)
	}
	if string(abody) != string(bbody) {
		t.Fatal("equivalent spellings served different bodies")
	}
}

type planResponse struct {
	Where       string   `json:"where"`
	Path        string   `json:"path"`
	Kernel      string   `json:"kernel"`
	Pushdown    []string `json:"pushdown"`
	Fallback    []string `json:"fallback"`
	EstRows     int64    `json:"est_rows"`
	WindowRows  int64    `json:"window_rows"`
	Selectivity float64  `json:"selectivity"`
}

// TestQueryExplain: explain=1 returns the chosen plan without executing.
// The plan depends only on the snapshot and the params, so explain answers
// go through the result cache like every other answer.
func TestQueryExplain(t *testing.T) { eachWorld(t, testQueryExplain) }

func testQueryExplain(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	explain := func(where string) planResponse {
		t.Helper()
		q := "/api/v1/query?where=" + url.QueryEscape(where) + "&group=source&explain=1"
		var plan planResponse
		var first []byte
		for _, want := range []string{"miss", "hit"} {
			resp, body := get(t, srv, q)
			if resp.StatusCode != 200 {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if xc := resp.Header.Get("X-Cache"); xc != want {
				t.Fatalf("%q explain X-Cache %q, want %q", where, xc, want)
			}
			if first == nil {
				first = body
			} else if string(body) != string(first) {
				t.Fatalf("%q: cached explain body differs", where)
			}
		}
		if err := json.Unmarshal(first, &plan); err != nil {
			t.Fatalf("explain body %q: %v", first, err)
		}
		return plan
	}
	plan := explain("sourcecountry=US and tone>0")
	if plan.Path == "" || plan.WindowRows <= 0 {
		t.Fatalf("plan %+v", plan)
	}
	if len(plan.Pushdown)+len(plan.Fallback) != 2 {
		t.Fatalf("plan splits %d+%d clauses, want 2", len(plan.Pushdown), len(plan.Fallback))
	}
	// A broad residual-only expression takes the other side of the
	// pushdown choice: nothing to push down, every clause on the closure.
	broad := explain("tone<0")
	if broad.Path != "scan" || len(broad.Pushdown) != 0 || len(broad.Fallback) != 1 {
		t.Fatalf("tone<0 explain %+v, want the scan path with one fallback clause", broad)
	}
}

func TestQueryBadParamEnvelopes(t *testing.T) { eachWorld(t, testQueryBadParamEnvelopes) }

func testQueryBadParamEnvelopes(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	cases := []struct{ name, query string }{
		{"bad-where", "where=" + url.QueryEscape("bogusfield=1")},
		{"bad-where-syntax", "where=" + url.QueryEscape("tone>")},
		{"bad-group", "group=banana"},
		{"bad-agg", "agg=median:tone"},
		{"bad-agg-field", "agg=" + url.QueryEscape("sum:source")},
		{"bad-explain", "explain=maybe"},
		{"bad-k", "k=banana"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var env struct {
				Error string `json:"error"`
				Kind  string `json:"kind"`
			}
			resp, body := get(t, srv, "/api/v1/query?"+c.query)
			if resp.StatusCode != 400 {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("400 body %q: %v", body, err)
			}
			if env.Error == "" || env.Kind != "query" {
				t.Fatalf("envelope %+v", env)
			}
		})
	}
}

// TestQueryEndpointMatchesRun: the served answer of every world must equal
// the kind's Run on the monolith byte-for-byte on integer aggregates.
func TestQueryEndpointMatchesRun(t *testing.T) { eachWorld(t, testQueryEndpointMatchesRun) }

func testQueryEndpointMatchesRun(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	params := url.Values{"where": {"delay>4 and sourcecountry=US"}, "group": {"quarter"}}
	d := registry.MustLookup("query")
	p, err := d.ParseURLValues(params)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Run(engine.New(testDB(t)), p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, served := get(t, srv, "/api/v1/query?"+params.Encode())
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, served)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served result differs from Run on the monolith:\n%s\nvs\n%s", served, want)
	}
}
