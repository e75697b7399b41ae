// Package router is the replicated routing tier in front of a fleet of
// gdeltserve replicas. Every replica serves the full world, so replicas
// are interchangeable: a query goes to the usable replicas (circuit breaker
// closed, or its cooldown elapsed) in affinity-hash order, with a hedged
// duplicate against the next replica when the primary is slow ("The Tail
// at Scale"), per-try timeouts, and per-replica circuit breakers fed by
// both live traffic and a background /readyz prober. Any live replica
// answers in full; the router refuses with 503 only when no replica is
// usable. Per-tenant admission control (token buckets plus concurrency
// caps on the X-Tenant header) sheds overload before it reaches the fleet.
//
// The router keeps the answers replicas mark fresh (a 200 with
// Cache-Control: max-age=N) in its own body cache, an internal/qcache
// keyed on the canonical query, for at most N seconds: a repeated query
// inside that time is answered with the stored bytes and no upstream
// exchange, and concurrent misses for one query make one upstream race.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"gdeltmine/internal/qcache"
	"gdeltmine/internal/registry"
)

// Replica names one upstream gdeltserve process.
type Replica struct {
	ID  string // stable identity used for affinity hashing and metrics
	URL string // base URL, e.g. http://10.0.0.7:8080
}

// Config assembles a Router. Zero values get conservative defaults; only
// Replicas is mandatory.
type Config struct {
	// Replicas is the upstream fleet. Every replica serves the full world,
	// so any of them can answer any query.
	Replicas []Replica
	// Shards is the shard count of the world the fleet serves. Routing
	// ignores it: a replica answers for every shard it holds.
	Shards int
	// PerTryTimeout bounds each individual attempt. Zero means 5s.
	PerTryTimeout time.Duration
	// HedgeDelay is how long to wait on the primary before launching a
	// duplicate attempt on the next replica. Zero disables hedging.
	HedgeDelay time.Duration
	// MaxAttempts caps total attempts (first try + hedges + retries) per
	// query. Zero means 3.
	MaxAttempts int
	// BreakerThreshold is the consecutive-failure count that trips a
	// replica's circuit breaker. Zero means 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses traffic before
	// the replica is tried again. Zero means 5s.
	BreakerCooldown time.Duration
	// ProbeInterval is the background /readyz polling period. Zero disables
	// the prober; breakers are then fed by live traffic only.
	ProbeInterval time.Duration
	// Admission is the per-tenant rate and concurrency policy.
	Admission AdmissionConfig
	// CacheBytes is the approximate memory budget of the router's cache of
	// fresh replica answers. Zero selects qcache.DefaultMaxBytes; a
	// negative value disables it, so every query reaches a replica.
	CacheBytes int64
	// Transport overrides the upstream HTTP transport (tests inject the
	// httptest client); nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

// Router routes /api/v1 queries across the replica fleet.
type Router struct {
	cfg      Config
	replicas []*replica
	ring     *ring
	adm      *admission
	met      *metrics
	client   *http.Client
	mux      *http.ServeMux
	cache    *qcache.Cache // nil when Config.CacheBytes < 0
	// now is the clock entries' freshness counts from; tests replace it.
	now func() time.Time

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeDone   sync.WaitGroup
	started     bool
}

// New validates the fleet and builds a router. Call Start to begin
// background probing and Close to stop it.
func New(cfg Config) (*Router, error) {
	if err := validateTopology(cfg.Replicas); err != nil {
		return nil, err
	}
	if cfg.PerTryTimeout <= 0 {
		cfg.PerTryTimeout = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	rt := &Router{
		cfg:    cfg,
		adm:    newAdmission(cfg.Admission, nil),
		met:    newMetrics(),
		client: &http.Client{Transport: cfg.Transport},
		now:    time.Now,
	}
	if cfg.CacheBytes >= 0 {
		rt.cache = qcache.NewNamed("router_cache", cfg.CacheBytes)
	}
	ids := make([]string, len(cfg.Replicas))
	for i, rep := range cfg.Replicas {
		ids[i] = rep.ID
		rt.replicas = append(rt.replicas, &replica{
			id:      rep.ID,
			baseURL: strings.TrimRight(rep.URL, "/"),
			brk:     newBreaker(rep.ID, cfg.BreakerThreshold, cfg.BreakerCooldown, nil),
			fails:   replicaFailures(rep.ID),
		})
	}
	rt.ring = buildRing(ids)
	rt.probeCtx, rt.probeCancel = context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/", rt.handleQuery)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.HandleFunc("/routez", rt.handleRoutez)
	mux.HandleFunc("/metrics", handleMetrics)
	rt.mux = mux
	return rt, nil
}

// validateTopology checks the fleet once at construction: at least one
// replica, each with a distinct non-empty ID (the ring and the metrics key
// on it).
func validateTopology(reps []Replica) error {
	if len(reps) == 0 {
		return fmt.Errorf("router: no replicas configured")
	}
	seen := make(map[string]bool, len(reps))
	for i, rep := range reps {
		if rep.ID == "" {
			return fmt.Errorf("router: replica %d has no ID", i)
		}
		if seen[rep.ID] {
			return fmt.Errorf("router: duplicate replica ID %q", rep.ID)
		}
		seen[rep.ID] = true
	}
	return nil
}

// Start runs one synchronous probe round for an immediate health picture,
// then begins background probing if ProbeInterval is set.
func (rt *Router) Start() {
	if rt.started {
		return
	}
	rt.started = true
	if rt.cfg.ProbeInterval > 0 {
		rt.ProbeAll(rt.probeCtx)
		rt.probeDone.Add(1)
		go rt.probeLoop()
	}
}

// Close stops background probing and waits for it to exit.
func (rt *Router) Close() {
	rt.probeCancel()
	rt.probeDone.Wait()
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// PreferenceOrder returns the replica IDs in the affinity order a query for
// (path, rawQuery) would try them — the introspection hook chaos tests use
// to slow or kill "the primary" without guessing ring hashes.
func (rt *Router) PreferenceOrder(path, rawQuery string) []string {
	order := rt.ring.successors(queryKey(path, rawQuery), len(rt.replicas))
	out := make([]string, len(order))
	for i, idx := range order {
		out[i] = rt.replicas[idx].id
	}
	return out
}

// queryKey is a query's affinity and cache key: its kind's canonical
// parameters plus the last workers, from and to values, so every spelling
// of one query shares a primary, the answer its cache holds and the
// router's cached answer. A query whose parameters do
// not parse keys on its raw text; the replica answers it 400.
func queryKey(path, rawQuery string) string {
	d, ok := registry.Lookup(strings.TrimPrefix(path, "/api/v1/"))
	q, err := url.ParseQuery(rawQuery)
	if ok && err == nil {
		if p, err := d.ParseURLValues(q); err == nil {
			common := url.Values{}
			for _, name := range []string{"workers", "from", "to"} {
				if v := q[name]; len(v) > 0 {
					common.Set(name, v[len(v)-1])
				}
			}
			return "c|" + path + "|" + d.Canonical(p) + "|" + common.Encode()
		}
	}
	return "q|" + path + "|" + rawQuery
}

// candidates returns the usable replica indices (breaker closed, or its
// cooldown elapsed) in the affinity order of the query keyed key. Every
// replica serves the full world, so each candidate can answer in full.
func (rt *Router) candidates(key string) []int {
	order := rt.ring.successors(key, len(rt.replicas))
	out := order[:0]
	for _, idx := range order {
		if rt.replicas[idx].brk.canTry() {
			out = append(out, idx)
		}
	}
	return out
}

// upstreamResult is one attempt's outcome.
type upstreamResult struct {
	idx    int // replica index
	hedged bool
	status int
	header http.Header
	body   []byte
	err    error
}

// ok reports whether the attempt counts as a replica success: any response
// the replica produced deliberately, including 4xx. Only transport errors
// and 5xx are replica failures.
func (u upstreamResult) ok() bool { return u.err == nil && u.status < 500 }

// tryReplica performs one upstream attempt with the per-try timeout,
// reading the body fully so a won race can be replayed to the client.
func (rt *Router) tryReplica(ctx context.Context, idx int, path, rawQuery string, hdr http.Header, hedged bool) upstreamResult {
	rep := rt.replicas[idx]
	cctx, cancel := context.WithTimeout(ctx, rt.cfg.PerTryTimeout)
	defer cancel()
	u := rep.baseURL + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, u, nil)
	if err != nil {
		return upstreamResult{idx: idx, hedged: hedged, err: err}
	}
	for _, h := range []string{"X-Tenant", "Accept", "Accept-Encoding"} {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return upstreamResult{idx: idx, hedged: hedged, err: err}
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		return upstreamResult{idx: idx, hedged: hedged, err: err}
	}
	return upstreamResult{idx: idx, hedged: hedged, status: resp.StatusCode, header: resp.Header, body: body}
}

// readBody reads a response body whole: into one buffer of the declared
// length when the replica sent one (gdeltserve always does for a 200), so
// the read is a single allocation, else by growing a buffer to fit.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength < 0 {
		return io.ReadAll(resp.Body)
	}
	body := make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// race runs one query against candidates: the first candidate starts immediately, a
// hedge timer duplicates the request onto the next candidate after
// HedgeDelay, and any failure launches the next candidate at once, up to
// MaxAttempts attempts in all. The first success wins and cancels the rest.
func (rt *Router) race(ctx context.Context, cand []int, path, rawQuery string, hdr http.Header) (upstreamResult, bool) {
	max := rt.cfg.MaxAttempts
	if max > len(cand) {
		max = len(cand)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan upstreamResult, max)
	launched, inFlight := 0, 0
	launch := func(hedged bool) {
		idx := cand[launched]
		launched++
		inFlight++
		go func() {
			results <- rt.tryReplica(cctx, idx, path, rawQuery, hdr, hedged)
		}()
	}
	launch(false)
	var hedge <-chan time.Time
	if rt.cfg.HedgeDelay > 0 && launched < max {
		t := time.NewTimer(rt.cfg.HedgeDelay)
		defer t.Stop()
		hedge = t.C
	}
	for inFlight > 0 {
		select {
		case <-ctx.Done():
			return upstreamResult{}, false
		case <-hedge:
			hedge = nil
			if launched < max {
				rt.met.hedges.Inc()
				launch(true)
			}
		case res := <-results:
			inFlight--
			if res.ok() {
				rt.replicas[res.idx].brk.Success()
				if res.hedged {
					rt.met.hedgeWins.Inc()
				}
				return res, true
			}
			rt.replicas[res.idx].brk.Failure()
			rt.replicas[res.idx].fails.Inc()
			if launched < max {
				rt.met.retries.Inc()
				launch(false)
			}
		}
	}
	return upstreamResult{}, false
}

// handleQuery is the routing entry point for /api/v1/<kind>.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer rt.met.latency.ObserveSince(start)
	name := strings.TrimPrefix(r.URL.Path, "/api/v1/")
	d, ok := registry.Lookup(name)
	if !ok {
		routerError(w, http.StatusNotFound, name, "unknown query kind %q", name)
		return
	}
	release, status, reason := rt.adm.Admit(r.Header.Get("X-Tenant"))
	if release == nil {
		routerError(w, status, d.Kind, "%s", reason)
		return
	}
	defer release()

	// Upstream attempts are GETs: a POSTed form travels as their query,
	// merged as the replica merges it (body first, then the URL, so the
	// last-value-wins rule lets the URL override the body).
	rawQuery := r.URL.RawQuery
	if r.Method == http.MethodPost {
		if err := r.ParseForm(); err != nil {
			routerError(w, http.StatusBadRequest, d.Kind, "invalid form body: %v", err)
			return
		}
		rawQuery = r.Form.Encode()
	}
	key := queryKey(r.URL.Path, rawQuery)
	fetch := func() (any, time.Duration, error) {
		return rt.fetch(r.Context(), key, r.URL.Path, rawQuery, r.Header)
	}
	var (
		v       any
		outcome = qcache.Bypass
		err     error
	)
	if rt.cache != nil {
		v, outcome, err = rt.cache.DoFresh(r.Context(), qcache.Key{Params: key}, rt.now(), fetch)
	} else {
		v, _, err = fetch()
	}
	switch {
	case err == nil:
		rt.writeAnswer(w, v.(*answer), outcome)
	case errors.Is(err, errNoReplica):
		rt.met.unavail.Inc()
		routerError(w, http.StatusServiceUnavailable, d.Kind, "no replica reachable (%d down)", len(rt.replicas))
	case r.Context().Err() != nil:
		routerError(w, http.StatusServiceUnavailable, d.Kind, "request canceled")
	default:
		rt.met.unavail.Inc()
		routerError(w, http.StatusBadGateway, d.Kind, "all replicas failed")
	}
}

var (
	errNoReplica = errors.New("router: no replica usable")
	errAllFailed = errors.New("router: every attempt failed")
)

// answer is a won upstream response as the router replays it.
type answer struct {
	status      int
	contentType string
	xCache      string // the replica's X-Cache
	replica     int    // index of the replica that produced it
	body        []byte
}

// fetch races the query across its candidates and returns the winning
// answer and how long it stays fresh: the max-age of a 200 the replica
// marked so, else zero, and the router's cache does not hold it. The
// error is errNoReplica, errAllFailed or the request's cancellation.
func (rt *Router) fetch(ctx context.Context, key, path, rawQuery string, hdr http.Header) (any, time.Duration, error) {
	cand := rt.candidates(key)
	if len(cand) == 0 {
		return nil, 0, errNoReplica
	}
	res, won := rt.race(ctx, cand, path, rawQuery, hdr)
	if !won {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		return nil, 0, errAllFailed
	}
	a := &answer{
		status:      res.status,
		contentType: res.header.Get("Content-Type"),
		xCache:      res.header.Get("X-Cache"),
		replica:     res.idx,
		body:        res.body,
	}
	var ttl time.Duration
	if res.status == http.StatusOK {
		ttl = maxAge(res.header.Get("Cache-Control"))
	}
	return a, ttl, nil
}

// maxAge reads the max-age directive of a Cache-Control value; zero when
// it has none or it does not parse.
func maxAge(cc string) time.Duration {
	for _, dir := range strings.Split(cc, ",") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(dir), "max-age="); ok {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				return time.Duration(n) * time.Second
			}
		}
	}
	return 0
}

// writeAnswer replays an upstream answer, byte-identical to what the
// replica served, naming the replica that produced it. X-Cache is the
// replica's own unless the router's cache supplied the answer: hit for a
// stored one, coalesced for one shared from a concurrent request's race.
func (rt *Router) writeAnswer(w http.ResponseWriter, a *answer, outcome qcache.Outcome) {
	h := w.Header()
	if a.contentType != "" {
		h.Set("Content-Type", a.contentType)
	}
	xCache := a.xCache
	if outcome == qcache.Hit || outcome == qcache.Coalesced {
		xCache = outcome.String()
	}
	if xCache != "" {
		h.Set("X-Cache", xCache)
	}
	h.Set("X-Gdelt-Replica", rt.replicas[a.replica].id)
	h.Set("Content-Length", strconv.Itoa(len(a.body)))
	w.WriteHeader(a.status)
	w.Write(a.body)
}

// handleReadyz reports the router's own readiness: ready while any replica
// is usable, 503 unavailable when none is.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "unavailable", http.StatusServiceUnavailable
	for _, rep := range rt.replicas {
		if rep.brk.canTry() {
			status, code = "ready", http.StatusOK
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Status string `json:"status"`
	}{status})
}

// handleRoutez dumps the fleet for operators: each replica's breaker state
// and latest probed readiness, and what the router's cache holds (absent
// when it is off).
func (rt *Router) handleRoutez(w http.ResponseWriter, r *http.Request) {
	type replicaz struct {
		ID      string `json:"id"`
		URL     string `json:"url"`
		Breaker string `json:"breaker"`
		Ready   bool   `json:"ready"`
	}
	type cachez struct {
		Entries  int     `json:"entries"`
		Bytes    int64   `json:"bytes"`
		HitRatio float64 `json:"hitRatio"`
	}
	var out struct {
		Replicas []replicaz `json:"replicas"`
		Cache    *cachez    `json:"cache,omitempty"`
	}
	if rt.cache != nil {
		st := rt.cache.Stats()
		out.Cache = &cachez{st.Entries, st.Bytes, st.HitRatio()}
	}
	for _, rep := range rt.replicas {
		out.Replicas = append(out.Replicas, replicaz{
			ID: rep.id, URL: rep.baseURL, Breaker: rep.brk.State(), Ready: rep.ready.Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// routerError writes the same error envelope gdeltserve uses, so clients
// see one error shape whether they talk to a replica or the router.
func routerError(w http.ResponseWriter, status int, kind, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
		Kind  string `json:"kind,omitempty"`
		Query string `json:"query,omitempty"`
	}{fmt.Sprintf(format, args...), kind, kind})
}
