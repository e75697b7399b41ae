package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdeltmine/internal/faults"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/serve"
	"gdeltmine/internal/shard"
)

// The router-cache battery: which answers the router holds, for how long,
// and what it serves from them. Each replica counts the queries that reach
// it, so a test can tell an answer from the router's cache (no exchange)
// from one the replica's own cache served.

// counted wraps a replica handler, counting the /api/v1 requests it sees.
type counted struct {
	next http.Handler
	n    atomic.Int64
}

func (c *counted) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/api/v1/") {
		c.n.Add(1)
	}
	c.next.ServeHTTP(w, r)
}

// cacheFleet is a router with its default cache over the given replica
// handlers, on a fake clock.
type cacheFleet struct {
	rt    *Router
	front *httptest.Server
	reps  []*httptest.Server
	ups   []*counted
	clk   *fakeClock
}

func newCacheFleet(t *testing.T, handlers []http.Handler, mut func(*Config)) *cacheFleet {
	t.Helper()
	f := &cacheFleet{clk: &fakeClock{t: time.Unix(1_000_000, 0)}}
	var replicas []Replica
	for i, h := range handlers {
		c := &counted{next: h}
		srv := httptest.NewServer(c)
		t.Cleanup(srv.Close)
		f.reps = append(f.reps, srv)
		f.ups = append(f.ups, c)
		replicas = append(replicas, Replica{ID: fmt.Sprintf("r%d", i), URL: srv.URL})
	}
	cfg := Config{Replicas: replicas}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.now = f.clk.now
	t.Cleanup(rt.Close)
	f.rt = rt
	f.front = httptest.NewServer(rt)
	t.Cleanup(f.front.Close)
	return f
}

// upstream is the number of queries that have reached any replica.
func (f *cacheFleet) upstream() int64 {
	var n int64
	for _, c := range f.ups {
		n += c.n.Load()
	}
	return n
}

// frozenReplicas returns n gdeltserve replicas over the K=4 world, with
// cfg.
func frozenReplicas(t *testing.T, n int, cfg serve.Config) []http.Handler {
	t.Helper()
	sdb, err := shard.Split(chaosData(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	var hs []http.Handler
	for range n {
		hs = append(hs, serve.NewSharded(sdb, cfg))
	}
	return hs
}

// TestRouterCacheServesReplicaBytes: for every kind, the first routed
// request reaches a replica and the second does not; both answers are the
// replica's bytes, and the cached one names the replica that produced it.
func TestRouterCacheServesReplicaBytes(t *testing.T) {
	f := newCacheFleet(t, frozenReplicas(t, 2, serve.Config{}), nil)
	theme := topTheme(t, chaosData(t))
	for _, d := range registry.All() {
		path, q := "/api/v1/"+d.Kind, queryFor(d, theme)
		before := f.upstream()
		code, first, hdr := get(t, f.front.URL, path, q, nil)
		if code != http.StatusOK || f.upstream() != before+1 {
			t.Fatalf("%s: first request status %d, %d upstream requests", d.Kind, code, f.upstream()-before)
		}
		producer := hdr.Get("X-Gdelt-Replica")
		code, second, hdr2 := get(t, f.front.URL, path, q, nil)
		if code != http.StatusOK || f.upstream() != before+1 {
			t.Fatalf("%s: repeat status %d, %d upstream requests", d.Kind, code, f.upstream()-before)
		}
		if hdr2.Get("X-Cache") != "hit" || hdr2.Get("X-Gdelt-Replica") != producer ||
			hdr2.Get("Content-Type") != hdr.Get("Content-Type") {
			t.Fatalf("%s: repeat X-Cache %q from %q (Content-Type %q), want hit from %q (%q)", d.Kind,
				hdr2.Get("X-Cache"), hdr2.Get("X-Gdelt-Replica"), hdr2.Get("Content-Type"), producer, hdr.Get("Content-Type"))
		}
		_, direct, _ := get(t, f.reps[0].URL, path, q, nil)
		if !bytes.Equal(first, direct) || !bytes.Equal(second, direct) {
			t.Fatalf("%s: routed bodies differ from the replica's\nfirst:  %.200s\nsecond: %.200s\ndirect: %.200s",
				d.Kind, first, second, direct)
		}
	}
}

// TestRouterCacheExpiresAtMaxAge: an answer is served from the router's
// cache for less than its max-age (one second) and never after it.
func TestRouterCacheExpiresAtMaxAge(t *testing.T) {
	f := newCacheFleet(t, frozenReplicas(t, 2, serve.Config{}), nil)
	const path = "/api/v1/stats"
	_, want, hdr := get(t, f.front.URL, path, "", nil)
	if cc := hdr.Get("Cache-Control"); cc != "" {
		t.Fatalf("the router forwarded Cache-Control %q", cc)
	}
	for _, step := range []struct {
		advance  time.Duration
		upstream int64
	}{
		{0, 1},
		{999 * time.Millisecond, 1},
		{time.Millisecond, 2}, // exactly max-age after the first lookup
		{999 * time.Millisecond, 2},
		{time.Millisecond, 3},
	} {
		f.clk.advance(step.advance)
		code, body, _ := get(t, f.front.URL, path, "", nil)
		if code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("status %d, body %.200s", code, body)
		}
		if got := f.upstream(); got != step.upstream {
			t.Fatalf("after %v more: %d upstream requests, want %d", step.advance, got, step.upstream)
		}
	}
}

// TestRouterCacheHoldsOnlyFreshAnswers: the router never holds an answer
// its replica did not mark fresh — from a live world, from a replica whose
// cache is off, a 200 without max-age — nor any non-200, max-age or not.
func TestRouterCacheHoldsOnlyFreshAnswers(t *testing.T) {
	sdb, err := shard.Split(chaosData(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	plain := func(status int, cc string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if cc != "" {
				w.Header().Set("Cache-Control", cc)
			}
			w.WriteHeader(status)
			fmt.Fprintln(w, `{"n":1}`)
		})
	}
	for _, tc := range []struct {
		name    string
		replica http.Handler
		query   string
		status  int
	}{
		{"live world", serve.NewLive(shard.NewLog(sdb), serve.Config{}), "", http.StatusOK},
		{"replica cache off", serve.NewSharded(sdb, serve.Config{CacheBytes: -1}), "", http.StatusOK},
		{"bad parameter", serve.NewSharded(sdb, serve.Config{}), "k=-1", http.StatusBadRequest},
		{"200 without max-age", plain(http.StatusOK, "no-cache"), "", http.StatusOK},
		{"404 with max-age", plain(http.StatusNotFound, "max-age=60"), "", http.StatusNotFound},
		{"500 with max-age", plain(http.StatusInternalServerError, "max-age=60"), "", http.StatusBadGateway},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newCacheFleet(t, []http.Handler{tc.replica}, func(cfg *Config) { cfg.BreakerThreshold = 100 })
			for i := 1; i <= 3; i++ {
				code, body, _ := get(t, f.front.URL, "/api/v1/top-publishers", tc.query, nil)
				if code != tc.status {
					t.Fatalf("request %d: status %d, want %d: %.200s", i, code, tc.status, body)
				}
				if got := f.upstream(); got != int64(i) {
					t.Fatalf("request %d: %d upstream requests — the router held the answer", i, got)
				}
			}
			if n := f.rt.cache.Stats().Entries; n != 0 {
				t.Fatalf("the router's cache holds %d entries", n)
			}
		})
	}
}

// TestRouterCacheCoalescesMisses: N concurrent misses for one query make
// exactly one upstream request, and every caller gets its bytes.
func TestRouterCacheCoalescesMisses(t *testing.T) {
	const n = 8
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	slow := frozenReplicas(t, 1, serve.Config{})[0]
	gate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		slow.ServeHTTP(w, r)
	})
	f := newCacheFleet(t, []http.Handler{gate}, nil)
	t.Cleanup(open) // runs before the fleet's: a failed test leaves no handler waiting
	type reply struct {
		code int
		body []byte
		hdr  http.Header
	}
	replies := make(chan reply, n)
	for range n {
		go func() {
			code, body, hdr := get(t, f.front.URL, "/api/v1/stats", "", nil)
			replies <- reply{code, body, hdr}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); f.rt.cache.Stats().Coalesced < n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests joined the flight", f.rt.cache.Stats().Coalesced, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	open()
	var first []byte
	outcomes := map[string]int{}
	for range n {
		r := <-replies
		if r.code != http.StatusOK || (first != nil && !bytes.Equal(r.body, first)) {
			t.Fatalf("status %d, body %.200s", r.code, r.body)
		}
		first = r.body
		outcomes[r.hdr.Get("X-Cache")]++
	}
	if got := f.upstream(); got != 1 {
		t.Fatalf("%d concurrent misses made %d upstream requests, want 1", n, got)
	}
	if outcomes["coalesced"] != n-1 {
		t.Fatalf("X-Cache outcomes %v, want %d coalesced", outcomes, n-1)
	}
}

// TestRouterCacheAdmissionFirst: a rate-limited tenant is refused even
// when the router holds the answer; another tenant gets it from the cache.
func TestRouterCacheAdmissionFirst(t *testing.T) {
	f := newCacheFleet(t, frozenReplicas(t, 1, serve.Config{}), func(cfg *Config) {
		cfg.Admission = AdmissionConfig{RatePerSec: 0.001, Burst: 1}
	})
	limited := map[string]string{"X-Tenant": "limited"}
	if code, body, _ := get(t, f.front.URL, "/api/v1/stats", "", limited); code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", code, body)
	}
	if code, body, _ := get(t, f.front.URL, "/api/v1/stats", "", limited); code != http.StatusTooManyRequests {
		t.Fatalf("over-rate request for a cached answer: status %d, want 429: %s", code, body)
	}
	code, _, hdr := get(t, f.front.URL, "/api/v1/stats", "", map[string]string{"X-Tenant": "other"})
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" || f.upstream() != 1 {
		t.Fatalf("other tenant: status %d, X-Cache %q, %d upstream requests", code, hdr.Get("X-Cache"), f.upstream())
	}
}

// TestRouterCacheOff: with CacheBytes < 0 every request reaches a replica,
// carries the replica's own X-Cache, and /routez reports no cache.
func TestRouterCacheOff(t *testing.T) {
	f := newCacheFleet(t, frozenReplicas(t, 2, serve.Config{}), cacheOff)
	if f.rt.cache != nil {
		t.Fatal("CacheBytes -1 built a cache")
	}
	for i := 1; i <= 3; i++ {
		code, _, hdr := get(t, f.front.URL, "/api/v1/stats", "", nil)
		want := "hit"
		if i == 1 {
			want = "miss"
		}
		if code != http.StatusOK || hdr.Get("X-Cache") != want || f.upstream() != int64(i) {
			t.Fatalf("request %d: status %d, X-Cache %q (want the replica's %q), %d upstream requests",
				i, code, hdr.Get("X-Cache"), want, f.upstream())
		}
	}
	_, body, _ := get(t, f.front.URL, "/routez", "", nil)
	if bytes.Contains(body, []byte(`"cache"`)) {
		t.Fatalf("/routez reports a cache that is off: %s", body)
	}
}

// TestRouterCacheReported: /routez reports the cache's entries, bytes and
// hit ratio, and /metrics its hit, miss and eviction counters.
func TestRouterCacheReported(t *testing.T) {
	f := newCacheFleet(t, frozenReplicas(t, 1, serve.Config{}), nil)
	hits := obs.Default.Counter("router_cache_hits_total", "").Value()
	_, body, _ := get(t, f.front.URL, "/api/v1/stats", "", nil)
	get(t, f.front.URL, "/api/v1/stats", "", nil)
	var rz struct {
		Cache struct {
			Entries  int     `json:"entries"`
			Bytes    int64   `json:"bytes"`
			HitRatio float64 `json:"hitRatio"`
		} `json:"cache"`
	}
	_, rzBody, _ := get(t, f.front.URL, "/routez", "", nil)
	if err := json.Unmarshal(rzBody, &rz); err != nil {
		t.Fatal(err)
	}
	if c := rz.Cache; c.Entries != 1 || c.Bytes < int64(len(body))+256 || c.HitRatio != 0.5 {
		t.Fatalf("/routez cache %+v: want 1 entry of at least %d bytes, hit ratio 0.5", c, len(body)+256)
	}
	if got := obs.Default.Counter("router_cache_hits_total", "").Value(); got != hits+1 {
		t.Fatalf("router_cache_hits_total moved by %d, want 1", got-hits)
	}
	_, metrics, _ := get(t, f.front.URL, "/metrics", "", nil)
	for _, name := range []string{"router_cache_hits_total", "router_cache_misses_total", "router_cache_evictions_total"} {
		if !bytes.Contains(metrics, []byte("\n"+name+" ")) {
			t.Fatalf("/metrics has no %s", name)
		}
	}
}

// TestChaosCachedAnswerFailsOverAfterExpiry: with the router's cache on,
// the replica that produced a cached answer dies. Until the answer expires
// the router serves it without an exchange; the first request after that
// fails over to a live replica, which answers the same bytes.
func TestChaosCachedAnswerFailsOverAfterExpiry(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	h.rt.now = clk.now
	const path = "/api/v1/stats"
	code, want, hdr := get(t, h.front.URL, path, "", nil)
	producer := hdr.Get("X-Gdelt-Replica")
	if code != http.StatusOK || producer == "" {
		t.Fatalf("first request: status %d from %q", code, producer)
	}
	h.chaos.Set(producer, faults.ReplicaDead)
	code, body, hdr := get(t, h.front.URL, path, "", nil)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" || hdr.Get("X-Gdelt-Replica") != producer || !bytes.Equal(body, want) {
		t.Fatalf("before expiry: status %d, X-Cache %q from %q", code, hdr.Get("X-Cache"), hdr.Get("X-Gdelt-Replica"))
	}
	if n := h.chaos.Stats()[faults.ReplicaDead]; n != 0 {
		t.Fatalf("a cached answer reached the dead replica %d times", n)
	}
	clk.advance(time.Second)
	code, body, hdr = get(t, h.front.URL, path, "", nil)
	if code != http.StatusOK || hdr.Get("X-Gdelt-Replica") == producer {
		t.Fatalf("after expiry: status %d from %q", code, hdr.Get("X-Gdelt-Replica"))
	}
	if h.chaos.Stats()[faults.ReplicaDead] == 0 {
		t.Fatal("the request after expiry never tried the dead producer — failover untested")
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("failover answer differs from the cached one\nafter:  %.200s\nbefore: %.200s", body, want)
	}
	if want := monoBody(t, h.db, registry.MustLookup("stats"), ""); !bytes.Equal(body, want) {
		t.Fatal("failover answer differs from the monolith's")
	}
}
