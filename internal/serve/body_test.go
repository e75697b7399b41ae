package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync/atomic"
	"testing"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// countingServer is a default-configured server whose encoder counts its
// calls, so a test can tell a computed answer from a stored one.
func countingServer(t *testing.T, sdb *shard.DB) (*Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	s := NewSharded(sdb, Config{})
	var n atomic.Int64
	s.exec.Encode = func(v any) (registry.Body, error) {
		n.Add(1)
		return Encode(v)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, &n
}

// TestMissAndHitBodiesIdentical: for every kind, the body a hit writes is
// the body the miss wrote, and both are Encode of the kind's answer.
func TestMissAndHitBodiesIdentical(t *testing.T) { eachWorld(t, testMissAndHitBodiesIdentical) }

func testMissAndHitBodiesIdentical(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	themes, err := queries.TopThemes(engine.New(testDB(t)), 1)
	if err != nil || len(themes) == 0 {
		t.Fatalf("no theme to ask theme-trends for (err %v)", err)
	}
	for _, d := range registry.All() {
		path := "/api/v1/" + d.Kind
		if d.Kind == "theme-trends" {
			path += "?theme=" + url.QueryEscape(themes[0].Theme)
		}
		miss, missBody := get(t, srv, path)
		hit, hitBody := get(t, srv, path)
		if miss.StatusCode != 200 || hit.StatusCode != 200 {
			t.Fatalf("%s: status %d then %d: %s", d.Kind, miss.StatusCode, hit.StatusCode, hitBody)
		}
		if xc := hit.Header.Get("X-Cache"); xc != "hit" {
			t.Fatalf("%s: second request X-Cache %q, want hit", d.Kind, xc)
		}
		if !bytes.Equal(missBody, hitBody) {
			t.Fatalf("%s: hit body differs from miss body:\n%s\nvs\n%s", d.Kind, hitBody, missBody)
		}
		p, err := d.ParseURLValues(miss.Request.URL.Query())
		if err != nil {
			t.Fatal(err)
		}
		v, err := d.RunSharded(sdb.View().WithKind(d.Kind), p)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := Encode(v); err != nil || !bytes.Equal(hitBody, want) {
			t.Fatalf("%s: served body is not Encode of the answer (err %v)", d.Kind, err)
		}
	}
}

// TestHitWritesStoredBody: a hit declares its Content-Length and encodes
// nothing; the miss before it encoded once.
func TestHitWritesStoredBody(t *testing.T) { eachWorld(t, testHitWritesStoredBody) }

func testHitWritesStoredBody(t *testing.T, sdb *shard.DB) {
	_, srv, encodes := countingServer(t, sdb)
	get(t, srv, "/api/v1/country")
	if n := encodes.Load(); n != 1 {
		t.Fatalf("miss encoded %d times, want 1", n)
	}
	resp, body := get(t, srv, "/api/v1/country")
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Fatalf("X-Cache %q, want hit", xc)
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("hit encoded: %d encodes after miss and hit, want 1", n)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, len(body))
	}
}

// TestCancelledAnswerNotCached: a request whose context is cancelled
// answers 504, encodes nothing and leaves the cache empty, so the next
// live request computes the answer afresh.
func TestCancelledAnswerNotCached(t *testing.T) { eachWorld(t, testCancelledAnswerNotCached) }

func testCancelledAnswerNotCached(t *testing.T, sdb *shard.DB) {
	s, srv, encodes := countingServer(t, sdb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/api/v1/country", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("cancelled request: status %d, want 504", rec.Code)
	}
	if n, l := encodes.Load(), s.exec.Cache.Len(); n != 0 || l != 0 {
		t.Fatalf("cancelled request: %d encodes, %d cached entries; want none", n, l)
	}
	resp, _ := get(t, srv, "/api/v1/country")
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("after a cancelled request: status %d, X-Cache %q; want 200 miss",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}
}

// TestBodyChargedByLength: the cache charges an answer its body's byte
// length plus one fixed per-entry overhead, whatever the kind.
func TestBodyChargedByLength(t *testing.T) { eachWorld(t, testBodyChargedByLength) }

func testBodyChargedByLength(t *testing.T, sdb *shard.DB) {
	overhead := map[int64]bool{}
	for _, kind := range []string{"stats", "top-publishers", "series-articles"} {
		s := NewSharded(sdb, Config{})
		srv := httptest.NewServer(s)
		_, body := get(t, srv, "/api/v1/"+kind)
		srv.Close()
		overhead[s.exec.Cache.UsedBytes()-int64(len(body))] = true
	}
	if len(overhead) != 1 {
		t.Fatalf("charge minus body length varies by kind: %v", overhead)
	}
}
