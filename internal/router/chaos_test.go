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
	"slices"
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

// The chaos battery drives a real replica fleet: every replica is an
// httptest gdeltserve serving the full K=4 world, wrapped in a
// faults.ReplicaChaos middleware, so scenarios kill, slow and partition
// replicas deterministically and the router's failover is observed end to
// end against the kinds' Run on the monolith.

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

// newFleet builds a fleet of the named replicas, each serving the full
// K=4 split of the monolith (the bit-identical reference), behind a router
// configured as Config{Replicas, Shards: 4} with mut applied.
func newFleet(t *testing.T, ids []string, plan faults.ReplicaPlan, mut func(*Config)) *chaosHarness {
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
	for _, id := range ids {
		srv := httptest.NewServer(h.chaos.Middleware(id, serve.NewSharded(sdb, serve.Config{})))
		t.Cleanup(srv.Close)
		h.reps[id] = srv
		replicas = append(replicas, Replica{ID: id, URL: srv.URL})
	}
	cfg := Config{Replicas: replicas, Shards: 4}
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

// newChaosHarness is the battery's 4-replica fleet with hair-trigger
// breakers: one failure opens a replica's breaker for an hour, so a probe
// round takes a dead replica out of routing at once, and every query may
// try the whole fleet.
func newChaosHarness(t *testing.T, plan faults.ReplicaPlan, mut func(*Config)) *chaosHarness {
	t.Helper()
	return newFleet(t, chaosReplicaIDs, plan, func(cfg *Config) {
		cfg.PerTryTimeout = 5 * time.Second
		cfg.MaxAttempts = 4
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = time.Hour
		if mut != nil {
			mut(cfg)
		}
	})
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
	body, err := serve.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
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
// requires a 200 whose body is bit-identical to the monolith's, naming the
// replica that answered and carrying no coverage metadata: any replica
// answers in full.
func requireMonolithMatch(t *testing.T, front string, db *store.DB) {
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
		for _, name := range []string{"X-Gdelt-Coverage", "X-Gdelt-Shards", "X-Gdelt-Missing-Shards"} {
			if v := hdr.Get(name); v != "" {
				t.Fatalf("%s: routed answer carries %s: %s", d.Kind, name, v)
			}
		}
		if hdr.Get("X-Gdelt-Replica") == "" {
			t.Fatalf("%s: no X-Gdelt-Replica header", d.Kind)
		}
	}
}

func TestChaosAllHealthyMatchesMonolith(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)
	requireMonolithMatch(t, h.front.URL, h.db)
}

// TestChaosSoleSurvivorAnswersFull: in a 3-replica fleet with the default
// configuration, whichever replica is the last one alive answers every
// kind in full, whether a probe round has seen the other two die or not.
func TestChaosSoleSurvivorAnswersFull(t *testing.T) {
	ids := []string{"r0", "r1", "r2"}
	for _, survivor := range ids {
		for _, probed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/probed=%v", survivor, probed), func(t *testing.T) {
				h := newFleet(t, ids, faults.ReplicaPlan{}, nil)
				for _, id := range ids {
					if id != survivor {
						h.chaos.Set(id, faults.ReplicaDead)
					}
				}
				if probed {
					h.rt.ProbeAll(context.Background())
				}
				requireMonolithMatch(t, h.front.URL, h.db)
			})
		}
	}
}

// cacheOff is the Config mutation of a case that needs every request to
// reach a replica: the router's cache would answer repeats itself.
func cacheOff(cfg *Config) { cfg.CacheBytes = -1 }

func TestChaosAnyThreeOfFourDownStaysFull(t *testing.T) {
	// Each survivor's round repeats the last round's queries, and they must
	// fail over again rather than come from the router's cache.
	h := newChaosHarness(t, faults.ReplicaPlan{}, cacheOff)
	for _, survivor := range chaosReplicaIDs {
		// Three replicas die unannounced; queries fail over to the
		// survivor, and every kind still answers bit-identical.
		for _, id := range chaosReplicaIDs {
			if id != survivor {
				h.chaos.Set(id, faults.ReplicaDead)
			}
		}
		deadBefore := h.chaos.Stats()[faults.ReplicaDead]
		requireMonolithMatch(t, h.front.URL, h.db)
		if h.chaos.Stats()[faults.ReplicaDead] == deadBefore {
			t.Fatalf("survivor %s: dead replicas were never consulted — failover untested", survivor)
		}
		// Heal the fleet; a probe round closes the tripped breakers.
		for _, id := range chaosReplicaIDs {
			h.chaos.Heal(id)
		}
		h.rt.ProbeAll(context.Background())
	}
}

func TestChaosFirstQueryAfterOutageStaysFullWithoutProbe(t *testing.T) {
	// Before any probe or breaker has noticed the outage, the first query
	// fails over within one request to the one live replica, and answers in
	// full. MaxAttempts bounds the attempts: three dead replicas ahead of
	// the survivor exhaust three attempts.
	for _, attempts := range []int{3, 4} {
		h := newChaosHarness(t, faults.ReplicaPlan{}, func(cfg *Config) {
			cfg.BreakerThreshold = 100 // breakers stay closed: only in-request evidence
			cfg.MaxAttempts = attempts
		})
		for _, id := range []string{"r1", "r2", "r3"} {
			h.chaos.Set(id, faults.ReplicaDead)
		}
		// Find a query whose affinity order puts the survivor last. The
		// workers parameter changes the affinity key but not the answer.
		query := ""
		for i := 1; i <= 256; i++ {
			q := "workers=" + strconv.Itoa(i)
			if h.rt.PreferenceOrder("/api/v1/stats", q)[3] == "r0" {
				query = q
				break
			}
		}
		if query == "" {
			t.Fatal("no affinity key puts the survivor last — widen the search")
		}
		code, body, hdr := get(t, h.front.URL, "/api/v1/stats", query, nil)
		if attempts == 3 {
			if code != http.StatusBadGateway {
				t.Fatalf("3 attempts on 3 dead replicas: status %d, want 502: %s", code, body)
			}
			continue
		}
		if code != http.StatusOK || hdr.Get("X-Gdelt-Replica") != "r0" {
			t.Fatalf("first query after outage: status %d from %q: %s", code, hdr.Get("X-Gdelt-Replica"), body)
		}
		if want := monoBody(t, h.db, registry.MustLookup("stats"), query); !bytes.Equal(body, want) {
			t.Fatalf("first query after outage: body differs from monolith\nrouted:   %.200s\nmonolith: %.200s", body, want)
		}
	}
}

func TestChaosAllReplicasDown(t *testing.T) {
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
	code, body, _ = get(t, h.front.URL, "/readyz", "", nil)
	var rz struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &rz); err != nil || code != http.StatusServiceUnavailable || rz.Status != "unavailable" {
		t.Fatalf("total outage /readyz: status %d body %s (%v), want 503 unavailable", code, body, err)
	}
}

func TestChaosSlowPrimaryHedges(t *testing.T) {
	const slow = 400 * time.Millisecond
	h := newChaosHarness(t, faults.ReplicaPlan{SlowDelay: slow}, func(cfg *Config) {
		cfg.HedgeDelay = 20 * time.Millisecond
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

// TestRouterForwardsPostedForm: a query POSTed through the router carries
// its form to the replica, so the answer is the GET's and the replica's
// own, byte for byte.
func TestRouterForwardsPostedForm(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)
	form := url.Values{"where": {"delay>2"}, "group": {"quarter"}}
	resp, err := http.PostForm(h.front.URL+"/api/v1/query", form)
	if err != nil {
		t.Fatal(err)
	}
	posted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST through the router: status %d: %s (%v)", resp.StatusCode, posted, err)
	}
	code, routed, _ := get(t, h.front.URL, "/api/v1/query", form.Encode(), nil)
	if code != http.StatusOK || !bytes.Equal(posted, routed) {
		t.Fatalf("POST answered %s, GET (status %d) %s", posted, code, routed)
	}
	code, direct, _ := get(t, h.reps["r0"].URL, "/api/v1/query", form.Encode(), nil)
	if code != http.StatusOK || !bytes.Equal(posted, direct) {
		t.Fatalf("POST answered %s, the replica (status %d) %s", posted, code, direct)
	}
}

// TestRouterKeysOnCanonicalQuery: spellings of one query differing only in
// parameter order share an affinity order, so the second spelling hits the
// replica cache the first one filled. The router's cache is off so that
// the second spelling reaches the replica.
func TestRouterKeysOnCanonicalQuery(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, cacheOff)
	const path = "/api/v1/top-publishers"
	for k := 1; k <= 16; k++ {
		a, b := fmt.Sprintf("k=%d&workers=1", k), fmt.Sprintf("workers=1&k=%d", k)
		if pa, pb := h.rt.PreferenceOrder(path, a), h.rt.PreferenceOrder(path, b); !slices.Equal(pa, pb) {
			t.Fatalf("%s routes %v, %s routes %v", a, pa, b, pb)
		}
	}
	code, first, hdr := get(t, h.front.URL, path, "k=5&workers=1", nil)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first spelling: status %d, X-Cache %q", code, hdr.Get("X-Cache"))
	}
	code, second, hdr := get(t, h.front.URL, path, "workers=1&k=5", nil)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" || !bytes.Equal(first, second) {
		t.Fatalf("second spelling: status %d, X-Cache %q, same body %v", code, hdr.Get("X-Cache"), bytes.Equal(first, second))
	}
}

func TestChaosRoutezTopology(t *testing.T) {
	h := newChaosHarness(t, faults.ReplicaPlan{}, nil)
	h.chaos.Set("r2", faults.ReplicaDead)
	h.rt.ProbeAll(context.Background())
	code, body, _ := get(t, h.front.URL, "/routez", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/routez status %d", code)
	}
	var rz struct {
		Replicas []struct {
			ID      string `json:"id"`
			URL     string `json:"url"`
			Breaker string `json:"breaker"`
			Ready   bool   `json:"ready"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatal(err)
	}
	if len(rz.Replicas) != len(chaosReplicaIDs) {
		t.Fatalf("/routez lists %d replicas, want %d: %s", len(rz.Replicas), len(chaosReplicaIDs), body)
	}
	for i, rep := range rz.Replicas {
		id := chaosReplicaIDs[i]
		wantBreaker, wantReady := "closed", true
		if id == "r2" {
			wantBreaker, wantReady = "open", false
		}
		if rep.ID != id || rep.URL != h.reps[id].URL || rep.Breaker != wantBreaker || rep.Ready != wantReady {
			t.Fatalf("/routez replica %d: %+v, want %s %s breaker %s ready %v", i, rep, id, h.reps[id].URL, wantBreaker, wantReady)
		}
	}
	// Three usable replicas keep the router ready.
	if code, body, _ := get(t, h.front.URL, "/readyz", "", nil); code != http.StatusOK {
		t.Fatalf("/readyz with 3 of 4 usable: status %d: %s", code, body)
	}
}

// TestMonolithReplicasRouteAsOneShard: a router in front of replicas that
// each serve a monolithic store (the K=1 world of shard.Single) works like
// any other fleet — every kind answers bit-identical to Run on the
// monolith.
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
	rt, err := New(Config{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	requireMonolithMatch(t, front.URL, db)
}
