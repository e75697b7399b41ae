package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"gdeltmine/internal/obs"
	"gdeltmine/internal/shard"
)

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestUnversionedAndAliasPathsAre404: the pre-versioning /api/<kind> paths
// and the legacy /api/v1/<alias> spellings are gone; both answer the
// uniform 404 envelope instead of the mux's plain-text page.
func TestUnversionedAndAliasPathsAre404(t *testing.T) {
	eachWorld(t, testUnversionedAndAliasPathsAre404)
}

func testUnversionedAndAliasPathsAre404(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	for _, path := range []string{"/api/stats", "/api/series/articles", "/api/v1/publishers", "/api/v1/delay"} {
		resp, body := get(t, srv, path)
		var env struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != 404 || json.Unmarshal(body, &env) != nil || env.Error == "" {
			t.Fatalf("%s: status %d body %q, want the 404 JSON envelope", path, resp.StatusCode, body)
		}
	}
}

func TestV1UnknownKindEnvelope(t *testing.T) { eachWorld(t, testV1UnknownKindEnvelope) }

func testV1UnknownKindEnvelope(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var env struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	resp, body := get(t, srv, "/api/v1/no-such-kind")
	if resp.StatusCode != 404 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("404 body %q is not the JSON envelope: %v", body, err)
	}
	if env.Error == "" || env.Kind != "no-such-kind" {
		t.Fatalf("envelope %+v must name the kind", env)
	}
}

func TestV1BadParamEnvelope(t *testing.T) { eachWorld(t, testV1BadParamEnvelope) }

func testV1BadParamEnvelope(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var env struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	resp, body := get(t, srv, "/api/v1/top-publishers?k=banana")
	if resp.StatusCode != 400 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("400 body %q: %v", body, err)
	}
	if env.Error == "" || env.Kind != "top-publishers" {
		t.Fatalf("envelope %+v", env)
	}
}

// TestV1CacheHitServesWithoutScan is the ISSUE's serving acceptance test: a
// repeated identical request answers from the cache (X-Cache: hit) and runs
// zero engine scans.
func TestV1CacheHitServesWithoutScan(t *testing.T) { eachWorld(t, testV1CacheHitServesWithoutScan) }

func testV1CacheHitServesWithoutScan(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	scans := obs.Default.Counter("engine_scans_total", "scan kernels executed",
		obs.L("kind", "top-publishers"))

	first, _ := get(t, srv, "/api/v1/top-publishers")
	if xc := first.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("first request X-Cache %q, want miss", xc)
	}
	before := scans.Value()
	second, body := get(t, srv, "/api/v1/top-publishers")
	if xc := second.Header.Get("X-Cache"); xc != "hit" {
		t.Fatalf("second request X-Cache %q, want hit", xc)
	}
	if delta := scans.Value() - before; delta != 0 {
		t.Fatalf("cache hit ran %d scans, want 0", delta)
	}
	if len(body) == 0 {
		t.Fatal("hit served empty body")
	}
	_, firstBody := get(t, srv, "/api/v1/top-publishers")
	if string(firstBody) != string(body) {
		t.Fatal("cached responses diverge")
	}
}

func TestCacheDisabledByConfig(t *testing.T) { eachWorld(t, testCacheDisabledByConfig) }

func testCacheDisabledByConfig(t *testing.T, sdb *shard.DB) {
	srv := httptest.NewServer(NewSharded(sdb, Config{CacheBytes: -1}))
	defer srv.Close()
	for i := 0; i < 2; i++ {
		resp, _ := get(t, srv, "/api/v1/stats")
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if xc := resp.Header.Get("X-Cache"); xc != "" {
			t.Fatalf("X-Cache %q present with caching disabled", xc)
		}
	}
}

func TestCacheAccessor(t *testing.T) { eachWorld(t, testCacheAccessor) }

func testCacheAccessor(t *testing.T, sdb *shard.DB) {
	testServer(t, sdb)
	if NewSharded(sdb, Config{}).exec.Cache == nil {
		t.Fatal("default server should expose its cache")
	}
	if NewSharded(sdb, Config{CacheBytes: -1}).exec.Cache != nil {
		t.Fatal("disabled cache should be nil")
	}
}
