package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/faults"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/serve"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// The chaos battery drives a real 4-replica, 2-group fleet: every replica
// is an httptest gdeltserve wrapped in a faults.ReplicaChaos middleware, so
// scenarios kill, slow and partition replicas deterministically and the
// router's failover is observed end to end against the kinds' Run on the
// monolith.

var chaosDB *store.DB

func chaosData(t testing.TB) *store.DB {
	t.Helper()
	if chaosDB == nil {
		c, err := gen.Generate(gen.Small())
		if err != nil {
			t.Fatal(err)
		}
		res, err := convert.FromCorpus(c)
		if err != nil {
			t.Fatal(err)
		}
		chaosDB = res.DB
	}
	return chaosDB
}

type chaosHarness struct {
	db    *store.DB
	chaos *faults.ReplicaChaos
	reps  map[string]*httptest.Server
	rt    *Router
	front *httptest.Server
}

var chaosReplicaIDs = []string{"r0", "r1", "r2", "r3"}

// newChaosHarness builds the fleet: K=4 shards, 2 groups (shards {0,1} on
// r0/r1, shards {2,3} on r2/r3), every replica serving the full sharded
// dataset; the monolith it was split from is the bit-identical reference.
func newChaosHarness(t *testing.T, plan faults.ReplicaPlan, mut func(*Config)) *chaosHarness {
	t.Helper()
	db := chaosData(t)
	sdb, err := shard.Split(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := &chaosHarness{
		db:    db,
		chaos: faults.NewReplicaChaos(plan),
		reps:  make(map[string]*httptest.Server),
	}
	var replicas []Replica
	for _, id := range chaosReplicaIDs {
		srv := httptest.NewServer(h.chaos.Middleware(id, serve.NewSharded(sdb, serve.Config{})))
		t.Cleanup(srv.Close)
		h.reps[id] = srv
		replicas = append(replicas, Replica{ID: id, URL: srv.URL})
	}
	cfg := Config{
		Replicas:         replicas,
		Shards:           4,
		Groups:           2,
		Replication:      2,
		Placement:        [][]string{{"r0", "r1"}, {"r2", "r3"}},
		PerTryTimeout:    5 * time.Second,
		MaxAttempts:      4,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		ProbeTimeout:     2 * time.Second,
		Seed:             42,
	}
	if mut != nil {
		mut(&cfg)
	}
	h.rt, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.rt.Close)
	h.front = httptest.NewServer(h.rt)
	t.Cleanup(h.front.Close)
	return h
}

// get fetches base+path+query and returns status, body and headers.
func get(t *testing.T, base, path, query string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	u := base + path
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// monoBody is the reference answer: the kind's Run on the monolith, encoded
// the way a replica encodes a 200.
func monoBody(t *testing.T, db *store.DB, d *registry.Descriptor, query string) []byte {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.ParseURLValues(q)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Run(engine.New(db), p)
	if err != nil {
		t.Fatalf("%s: monolith: %v", d.Kind, err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// topTheme resolves a real theme name for theme-trends queries.
func topTheme(t *testing.T, db *store.DB) string {
	t.Helper()
	tc, err := queries.TopThemes(engine.New(db), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tc) == 0 {
		t.Fatal("dataset has no themes")
	}
	return tc[0].Theme
}

// queryFor supplies the parameters a kind needs to answer 200.
func queryFor(d *registry.Descriptor, theme string) string {
	if d.Kind == "theme-trends" {
		return "theme=" + url.QueryEscape(theme)
	}
	return ""
}

// requireMonolithMatch fetches every registered kind through the router and
// requires a 200 whose body is bit-identical to the monolith's, with full
// coverage of all `shards` shards advertised.
func requireMonolithMatch(t *testing.T, front string, db *store.DB, shards int) {
	t.Helper()
	theme := topTheme(t, db)
	for _, d := range registry.All() {
		path := "/api/v1/" + d.Kind
		q := queryFor(d, theme)
		wantBody := monoBody(t, db, d, q)
		gotCode, gotBody, hdr := get(t, front, path, q, nil)
		if gotCode != http.StatusOK {
			t.Fatalf("%s: routed status %d: %s", d.Kind, gotCode, gotBody)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("%s: routed body differs from monolith\nrouted:   %.200s\nmonolith: %.200s",
				d.Kind, gotBody, wantBody)
		}
		if cov := hdr.Get("X-Gdelt-Coverage"); cov != "full" {
			t.Fatalf("%s: coverage %q, want full", d.Kind, cov)
		}
		if sh, want := hdr.Get("X-Gdelt-Shards"), fmt.Sprintf("%d/%d", shards, shards); sh != want {
			t.Fatalf("%s: shards %q, want %s", d.Kind, sh, want)
		}
		if hdr.Get("X-Gdelt-Replica") == "" {
			t.Fatalf("%s: no X-Gdelt-Replica header", d.Kind)
		}
	}
}

func TestChaosAllHealthyMatchesMonolith(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)
	requireMonolithMatch(t, h.front.URL, h.db, 4)
}

func TestChaosOneReplicaPerGroupDownStaysFull(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)
	// One replica of each group dies; the survivor keeps the group up, so
	// every kind must still answer full-coverage and bit-identical.
	h.chaos.Set("r1", faults.ReplicaDead)
	h.chaos.Set("r3", faults.ReplicaDead)
	requireMonolithMatch(t, h.front.URL, h.db, 4)
	stats := h.chaos.Stats()
	if stats[faults.ReplicaDead] == 0 {
		t.Fatal("dead replicas were never consulted — failover untested")
	}
}

func TestChaosWholeGroupDownDegradesToPartial(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)
	// Kill both replicas of group 1 (shards 2,3) and let one probe round
	// trip their breakers (threshold 1).
	h.chaos.Set("r2", faults.ReplicaDead)
	h.chaos.Set("r3", faults.ReplicaDead)
	h.rt.ProbeAll(context.Background())

	theme := topTheme(t, h.db)
	partBefore := h.rt.met.coverPart.Value()
	for _, d := range registry.All() {
		path := "/api/v1/" + d.Kind
		q := queryFor(d, theme)
		gotCode, gotBody, hdr := get(t, h.front.URL, path, q, nil)
		// The survivors answer restricted to shards 0,1 — never a 5xx.
		wantQ := "shards=0,1"
		if q != "" {
			wantQ = q + "&" + wantQ
		}
		wantCode, wantBody, _ := get(t, h.reps["r0"].URL, path, wantQ, nil)
		if gotCode != wantCode || gotCode >= 500 {
			t.Fatalf("%s: routed status %d, direct restricted %d: %s", d.Kind, gotCode, wantCode, gotBody)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("%s: routed partial body differs from direct shards=0,1 body\nrouted: %.200s\ndirect: %.200s",
				d.Kind, gotBody, wantBody)
		}
		if cov := hdr.Get("X-Gdelt-Coverage"); cov != "partial" {
			t.Fatalf("%s: coverage %q, want partial", d.Kind, cov)
		}
		if sh := hdr.Get("X-Gdelt-Shards"); sh != "2/4" {
			t.Fatalf("%s: shards %q, want 2/4", d.Kind, sh)
		}
		if miss := hdr.Get("X-Gdelt-Missing-Shards"); miss != "2,3" {
			t.Fatalf("%s: missing shards %q, want 2,3", d.Kind, miss)
		}
	}
	if h.rt.met.coverPart.Value() == partBefore {
		t.Fatal("partial coverage counter did not advance")
	}

	// The router's own /readyz reports the degradation.
	code, body, _ := get(t, h.front.URL, "/readyz", "", nil)
	if code != http.StatusOK {
		t.Fatalf("degraded /readyz status %d", code)
	}
	var rz struct {
		Status        string `json:"status"`
		ShardsServing int    `json:"shardsServing"`
		MissingShards []int  `json:"missingShards"`
	}
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Status != "degraded" || rz.ShardsServing != 2 || len(rz.MissingShards) != 2 {
		t.Fatalf("degraded /readyz body %s", body)
	}
}

func TestChaosFirstQueryAfterOutageDegradesWithoutProbe(t *testing.T) {
	// Even before any probe or breaker has noticed the outage, the very
	// first query must degrade within one request: round one burns its
	// attempts on the dead group, round two recomputes coverage from those
	// in-request failures and retries restricted to the surviving shards.
	h := newChaosHarness(t, faults.ReplicaPlan{}, func(cfg *Config) {
		cfg.BreakerThreshold = 100 // breakers stay closed: only in-request evidence
		cfg.MaxAttempts = 2        // round one can exhaust on the dead pair
	})
	h.chaos.Set("r2", faults.ReplicaDead)
	h.chaos.Set("r3", faults.ReplicaDead)
	// Find a query whose top two affinity preferences are both dead, so
	// round one genuinely exhausts its attempts before the degraded retry.
	// The workers parameter changes the affinity key but not the answer.
	query := ""
	for i := 1; i <= 256; i++ {
		q := "workers=" + strconv.Itoa(i)
		ord := h.rt.PreferenceOrder("/api/v1/stats", q)
		if (ord[0] == "r2" || ord[0] == "r3") && (ord[1] == "r2" || ord[1] == "r3") {
			query = q
			break
		}
	}
	if query == "" {
		t.Fatal("no affinity key front-loads the dead pair — widen the search")
	}
	code, body, hdr := get(t, h.front.URL, "/api/v1/stats", query, nil)
	if code != http.StatusOK {
		t.Fatalf("first query after outage: status %d: %s", code, body)
	}
	if cov := hdr.Get("X-Gdelt-Coverage"); cov != "partial" {
		t.Fatalf("first query after outage: coverage %q, want partial", cov)
	}
	if miss := hdr.Get("X-Gdelt-Missing-Shards"); miss != "2,3" {
		t.Fatalf("first query after outage: missing shards %q, want 2,3", miss)
	}
}

func TestChaosHealRestoresFullCoverageAndCleanCache(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)

	// Phase 1: group 1 down, a partial result is computed and cached on the
	// survivors under a shard-scoped cache key.
	h.chaos.Set("r2", faults.ReplicaDead)
	h.chaos.Set("r3", faults.ReplicaDead)
	h.rt.ProbeAll(context.Background())
	code, partialBody, hdr := get(t, h.front.URL, "/api/v1/count", "", nil)
	if code != http.StatusOK || hdr.Get("X-Gdelt-Coverage") != "partial" {
		t.Fatalf("partial phase: status %d coverage %q", code, hdr.Get("X-Gdelt-Coverage"))
	}

	// Phase 2: heal; a probe round closes the breakers immediately.
	h.chaos.Heal("r2")
	h.chaos.Heal("r3")
	h.rt.ProbeAll(context.Background())
	wantBody := monoBody(t, h.db, registry.MustLookup("count"), "")
	gotCode, gotBody, hdr := get(t, h.front.URL, "/api/v1/count", "", nil)
	if gotCode != http.StatusOK || hdr.Get("X-Gdelt-Coverage") != "full" {
		t.Fatalf("healed phase: status %d coverage %q", gotCode, hdr.Get("X-Gdelt-Coverage"))
	}
	// The partial result must not leak out of the cache as a full answer.
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("healed body differs from monolith — partial result served as full?\nrouted:   %.200s\nmonolith: %.200s",
			gotBody, wantBody)
	}
	if bytes.Equal(gotBody, partialBody) {
		t.Fatal("healed body equals the partial body — cache key collision across coverage scopes")
	}
}

func TestChaosAllGroupsDown(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)
	for _, id := range chaosReplicaIDs {
		h.chaos.Set(id, faults.ReplicaDead)
	}
	h.rt.ProbeAll(context.Background())
	code, body, _ := get(t, h.front.URL, "/api/v1/stats", "", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("total outage: status %d, want 503: %s", code, body)
	}
	var env struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("total outage: non-JSON envelope %s: %v", body, err)
	}
	if env.Error == "" || env.Kind != "stats" {
		t.Fatalf("total outage envelope %s", body)
	}
	code, _, _ = get(t, h.front.URL, "/readyz", "", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("total outage /readyz status %d, want 503", code)
	}
}

func TestChaosSlowPrimaryHedges(t *testing.T) {
	const slow = 400 * time.Millisecond
	h := newChaosHarness(t, faults.ReplicaPlan{SlowDelay: slow}, func(cfg *Config) {
		cfg.HedgeDelay = 20 * time.Millisecond
		cfg.HedgeJitter = 0 // deterministic timing for the latency bound
	})
	// Slow exactly the replica the affinity hash prefers for this query.
	primary := h.rt.PreferenceOrder("/api/v1/stats", "")[0]
	h.chaos.Set(primary, faults.ReplicaSlow)

	hedgesBefore := h.rt.met.hedges.Value()
	winsBefore := h.rt.met.hedgeWins.Value()
	start := time.Now()
	code, _, hdr := get(t, h.front.URL, "/api/v1/stats", "", nil)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("hedged query status %d", code)
	}
	if got := hdr.Get("X-Gdelt-Replica"); got == primary {
		t.Fatalf("slow primary %s still served the response", primary)
	}
	if elapsed >= slow {
		t.Fatalf("hedge did not cut latency: %v >= %v", elapsed, slow)
	}
	if h.rt.met.hedges.Value() == hedgesBefore {
		t.Fatal("hedge counter did not advance")
	}
	if h.rt.met.hedgeWins.Value() == winsBefore {
		t.Fatal("hedge win counter did not advance")
	}
}

func TestChaosPartitionedPrimaryRetriesAfterTimeout(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, func(cfg *Config) {
		cfg.PerTryTimeout = 60 * time.Millisecond
	})
	primary := h.rt.PreferenceOrder("/api/v1/stats", "")[0]
	h.chaos.Set(primary, faults.ReplicaPartitioned)

	retriesBefore := h.rt.met.retries.Value()
	code, _, hdr := get(t, h.front.URL, "/api/v1/stats", "", nil)
	if code != http.StatusOK {
		t.Fatalf("query against partitioned primary: status %d", code)
	}
	if got := hdr.Get("X-Gdelt-Replica"); got == primary {
		t.Fatalf("partitioned primary %s served the response", primary)
	}
	if h.rt.met.retries.Value() == retriesBefore {
		t.Fatal("retry counter did not advance")
	}
}

func TestChaosAdmissionRateLimit(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, func(cfg *Config) {
		cfg.Admission = AdmissionConfig{RatePerSec: 1, Burst: 2}
	})
	hdr := map[string]string{"X-Tenant": "rate-tenant"}
	for i := 0; i < 2; i++ {
		if code, body, _ := get(t, h.front.URL, "/api/v1/stats", "", hdr); code != http.StatusOK {
			t.Fatalf("burst request %d: status %d: %s", i, code, body)
		}
	}
	code, body, _ := get(t, h.front.URL, "/api/v1/stats", "", hdr)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate request: status %d, want 429", code)
	}
	var env struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == "" || env.Kind != "stats" {
		t.Fatalf("429 envelope %s (%v)", body, err)
	}
	// A different tenant is unaffected.
	if code, _, _ := get(t, h.front.URL, "/api/v1/stats", "", map[string]string{"X-Tenant": "other"}); code != http.StatusOK {
		t.Fatalf("separate tenant status %d", code)
	}
}

func TestChaosAdmissionConcurrencyCap(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{SlowDelay: 300 * time.Millisecond}, func(cfg *Config) {
		cfg.Admission = AdmissionConfig{MaxConcurrent: 1}
	})
	// Slow the whole fleet so the first request is still in flight when the
	// second arrives.
	for _, id := range chaosReplicaIDs {
		h.chaos.Set(id, faults.ReplicaSlow)
	}
	hdr := map[string]string{"X-Tenant": "conc-tenant"}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, h.front.URL, "/api/v1/stats", "", hdr)
	}()
	time.Sleep(100 * time.Millisecond)
	code, body, _ := get(t, h.front.URL, "/api/v1/stats", "", hdr)
	wg.Wait()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap request: status %d, want 503: %s", code, body)
	}
}

func TestChaosUnknownKind(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)
	code, body, _ := get(t, h.front.URL, "/api/v1/no-such-kind", "", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown kind: status %d: %s", code, body)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
		t.Fatalf("404 envelope %s (%v)", body, err)
	}
}

func TestChaosRoutezTopology(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)
	code, body, _ := get(t, h.front.URL, "/routez", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/routez status %d", code)
	}
	var rz struct {
		Shards int `json:"shards"`
		Groups []struct {
			Shards   []int    `json:"shards"`
			Replicas []string `json:"replicas"`
			Up       bool     `json:"up"`
		} `json:"groups"`
		Replicas []struct {
			ID      string `json:"id"`
			Breaker string `json:"breaker"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Shards != 4 || len(rz.Groups) != 2 || len(rz.Replicas) != 4 {
		t.Fatalf("/routez topology %s", body)
	}
	if fmt.Sprint(rz.Groups[0].Shards) != "[0 1]" || fmt.Sprint(rz.Groups[1].Shards) != "[2 3]" {
		t.Fatalf("/routez group shards %s", body)
	}
	for _, g := range rz.Groups {
		if !g.Up {
			t.Fatalf("healthy group reported down: %s", body)
		}
	}
}

// TestMonolithReplicasRouteAsOneShard: a router in front of replicas that
// each serve a monolithic store (the K=1 world of shard.Single) must work
// like any other fleet — discovery reads shard count 1 off /readyz, the
// routed shards=0 restriction is valid, and every kind answers with full
// coverage, bit-identical to Run on the monolith.
func TestMonolithReplicasRouteAsOneShard(t *testing.T) {
	db := chaosData(t)
	var replicas []Replica
	for _, id := range []string{"r0", "r1"} {
		sdb, err := shard.Single(db)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(serve.NewSharded(sdb, serve.Config{}))
		t.Cleanup(srv.Close)
		replicas = append(replicas, Replica{ID: id, URL: srv.URL})
	}
	k, err := DiscoverShards(replicas)
	if err != nil || k != 1 {
		t.Fatalf("DiscoverShards = %d, %v; want 1", k, err)
	}
	rt, err := New(Config{Replicas: replicas, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	requireMonolithMatch(t, front.URL, db, 1)
}
