// Package router is the replicated scatter/gather tier in front of a fleet
// of gdeltserve replicas. Shards are tiled into contiguous groups; each
// group is an availability domain placed on R replicas by consistent
// hashing. Queries are routed to one healthy replica by affinity hashing,
// with jittered hedged retries against the next candidate when the primary
// is slow ("The Tail at Scale"), per-try timeouts, and per-replica circuit
// breakers fed by both live traffic and a background /readyz prober. When a
// whole group is unreachable the router degrades gracefully: it restricts
// the query to the shards that are still available and answers 200 with
// explicit coverage metadata instead of a 5xx — a partial timeline beats a
// dead API. Per-tenant admission control (token buckets plus concurrency
// caps on the X-Tenant header) sheds overload before it reaches the fleet.
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gdeltmine/internal/registry"
)

// Replica names one upstream gdeltserve process.
type Replica struct {
	ID  string // stable identity used for placement and metrics
	URL string // base URL, e.g. http://10.0.0.7:8080
}

// Config assembles a Router. Zero values get conservative defaults; only
// Replicas and Shards are mandatory.
type Config struct {
	// Replicas is the upstream fleet. Every replica serves the full sharded
	// dataset; groups assign them availability responsibilities.
	Replicas []Replica
	// Shards is the shard count K of the dataset the fleet serves.
	Shards int
	// Groups tiles [0, Shards) into this many contiguous availability
	// domains. Zero means 1 (the whole dataset is one failure domain).
	Groups int
	// Replication is how many replicas back each group. Zero means 2,
	// clamped to the fleet size.
	Replication int
	// VNodes is the virtual nodes per replica on the placement ring. Zero
	// means 64.
	VNodes int
	// Placement overrides ring placement: Placement[g] lists the replica IDs
	// backing group g. Tests and hand-operated fleets use this; when nil the
	// consistent hash ring decides.
	Placement [][]string
	// PerTryTimeout bounds each individual attempt. Zero means 5s.
	PerTryTimeout time.Duration
	// HedgeDelay is how long to wait on the primary before launching a
	// duplicate attempt on the next candidate. Zero disables hedging.
	HedgeDelay time.Duration
	// HedgeJitter spreads the hedge delay by ±this fraction so a fleet of
	// routers does not hedge in lockstep. Negative means 0.2; zero is
	// honored (no jitter) when set explicitly via -1 semantics is avoided:
	// values outside [0, 1] are clamped.
	HedgeJitter float64
	// MaxAttempts caps total attempts (first try + hedges + retries) per
	// coverage round. Zero means 3.
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
	// ProbeTimeout bounds each probe. Zero means 2s.
	ProbeTimeout time.Duration
	// Admission is the per-tenant rate and concurrency policy.
	Admission AdmissionConfig
	// Seed drives hedge jitter. Zero is a valid seed.
	Seed int64
	// Transport overrides the upstream HTTP transport (tests inject the
	// httptest client); nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

// Router routes /api/v1 queries across the replica fleet.
type Router struct {
	cfg      Config
	replicas []*replica
	byID     map[string]int
	ring     *ring
	groups   [][]int // group -> shard indices
	place    [][]int // group -> replica indices
	adm      *admission
	met      *metrics
	client   *http.Client
	mux      *http.ServeMux

	rngMu sync.Mutex
	rng   *rand.Rand

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeDone   sync.WaitGroup
	started     bool
}

// New validates the topology and builds a router. Call Start to begin
// background probing and Close to stop it.
func New(cfg Config) (*Router, error) {
	if cfg.Groups == 0 {
		cfg.Groups = 1
	}
	if cfg.Replication == 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > len(cfg.Replicas) {
		cfg.Replication = len(cfg.Replicas)
	}
	if err := validateTopology(cfg.Shards, cfg.Groups, cfg.Replication, len(cfg.Replicas)); err != nil {
		return nil, err
	}
	if cfg.PerTryTimeout <= 0 {
		cfg.PerTryTimeout = 5 * time.Second
	}
	if cfg.HedgeJitter < 0 {
		cfg.HedgeJitter = 0.2
	}
	if cfg.HedgeJitter > 1 {
		cfg.HedgeJitter = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	rt := &Router{
		cfg:    cfg,
		byID:   make(map[string]int, len(cfg.Replicas)),
		groups: groupShards(cfg.Shards, cfg.Groups),
		adm:    newAdmission(cfg.Admission, nil),
		met:    newMetrics(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		client: &http.Client{Transport: cfg.Transport},
	}
	ids := make([]string, len(cfg.Replicas))
	for i, rep := range cfg.Replicas {
		if rep.ID == "" {
			return nil, fmt.Errorf("router: replica %d has no ID", i)
		}
		if _, dup := rt.byID[rep.ID]; dup {
			return nil, fmt.Errorf("router: duplicate replica ID %q", rep.ID)
		}
		ids[i] = rep.ID
		rt.byID[rep.ID] = i
		rt.replicas = append(rt.replicas, &replica{
			id:      rep.ID,
			baseURL: strings.TrimRight(rep.URL, "/"),
			brk:     newBreaker(rep.ID, cfg.BreakerThreshold, cfg.BreakerCooldown, nil),
			fails:   replicaFailures(rep.ID),
		})
	}
	rt.ring = buildRing(ids, cfg.VNodes)
	if cfg.Placement != nil {
		if len(cfg.Placement) != cfg.Groups {
			return nil, fmt.Errorf("router: placement names %d groups, topology has %d", len(cfg.Placement), cfg.Groups)
		}
		rt.place = make([][]int, cfg.Groups)
		for g, members := range cfg.Placement {
			if len(members) == 0 {
				return nil, fmt.Errorf("router: group %d placement is empty", g)
			}
			for _, id := range members {
				idx, ok := rt.byID[id]
				if !ok {
					return nil, fmt.Errorf("router: group %d placed on unknown replica %q", g, id)
				}
				rt.place[g] = append(rt.place[g], idx)
			}
		}
	} else {
		rt.place = make([][]int, cfg.Groups)
		for g := range rt.place {
			rt.place[g] = rt.ring.successors("g|"+strconv.Itoa(g), cfg.Replication)
		}
	}
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

// Placement returns the replica IDs backing each group, in group order.
func (rt *Router) Placement() [][]string {
	out := make([][]string, len(rt.place))
	for g, members := range rt.place {
		for _, idx := range members {
			out[g] = append(out[g], rt.replicas[idx].id)
		}
	}
	return out
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

func queryKey(path, rawQuery string) string {
	return "q|" + path + "|" + rawQuery
}

// coverage is one routing round's view of shard availability.
type coverage struct {
	shards  []int // available shard indices, sorted
	missing []int // unavailable shard indices, sorted
	total   int
}

func (c coverage) full() bool { return len(c.missing) == 0 }

// computeCoverage decides which shards are answerable right now: a group's
// shards are available iff at least one of its replicas is usable. The
// failed set carries replicas that already failed within this request, so
// the second routing round can degrade without waiting for breakers or
// probes to notice the outage.
func (rt *Router) computeCoverage(failed map[int]bool) coverage {
	c := coverage{total: rt.cfg.Shards}
	for g, members := range rt.place {
		up := false
		for _, idx := range members {
			if !failed[idx] && rt.replicas[idx].brk.canTry() {
				up = true
				break
			}
		}
		if up {
			c.shards = append(c.shards, rt.groups[g]...)
		} else {
			c.missing = append(c.missing, rt.groups[g]...)
		}
	}
	sort.Ints(c.shards)
	sort.Ints(c.missing)
	return c
}

// candidates returns replica indices in affinity order, restricted to
// usable replicas that belong to an available group — the authority
// discipline: a replica whose every group is down is not consulted even if
// its process still answers.
func (rt *Router) candidates(path, rawQuery string, failed map[int]bool) []int {
	usable := make(map[int]bool)
	for _, members := range rt.place {
		anyUp := false
		for _, idx := range members {
			if !failed[idx] && rt.replicas[idx].brk.canTry() {
				anyUp = true
			}
		}
		if anyUp {
			for _, idx := range members {
				if !failed[idx] && rt.replicas[idx].brk.canTry() {
					usable[idx] = true
				}
			}
		}
	}
	order := rt.ring.successors(queryKey(path, rawQuery), len(rt.replicas))
	out := make([]int, 0, len(usable))
	for _, idx := range order {
		if usable[idx] {
			out = append(out, idx)
		}
	}
	return out
}

// hedgeDelay returns the jittered delay before launching a duplicate
// attempt: HedgeDelay * (1 - j + j*U), U uniform in [0, 1).
func (rt *Router) hedgeDelay() time.Duration {
	j := rt.cfg.HedgeJitter
	if j == 0 {
		return rt.cfg.HedgeDelay
	}
	rt.rngMu.Lock()
	u := rt.rng.Float64()
	rt.rngMu.Unlock()
	return time.Duration(float64(rt.cfg.HedgeDelay) * (1 - j + j*u))
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return upstreamResult{idx: idx, hedged: hedged, err: err}
	}
	return upstreamResult{idx: idx, hedged: hedged, status: resp.StatusCode, header: resp.Header, body: body}
}

// scatter races candidates for one coverage round: the first candidate
// starts immediately, a jittered hedge timer duplicates the request onto
// the next candidate, and any failure launches the next candidate at once.
// The first success wins and cancels the rest. Replicas that failed are
// recorded in failed for the caller's coverage recomputation.
func (rt *Router) scatter(ctx context.Context, cand []int, path, rawQuery string, hdr http.Header, failed map[int]bool) (upstreamResult, bool) {
	if len(cand) == 0 {
		return upstreamResult{}, false
	}
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
		t := time.NewTimer(rt.hedgeDelay())
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
			failed[res.idx] = true
			if launched < max {
				rt.met.retries.Inc()
				launch(false)
			}
		}
	}
	return upstreamResult{}, false
}

// handleQuery is the scatter/gather entry point for /api/v1/<kind>.
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

	// Up to two coverage rounds: the first uses the breaker/probe view; if
	// an undetected outage burned every attempt, the second recomputes
	// coverage excluding the replicas that just failed and retries degraded.
	failed := make(map[int]bool)
	for round := 0; round < 2; round++ {
		cov := rt.computeCoverage(failed)
		if len(cov.shards) == 0 {
			rt.met.unavail.Inc()
			routerError(w, http.StatusServiceUnavailable, d.Kind, "no shard group reachable (%d shards down)", cov.total)
			return
		}
		rawQuery := r.URL.RawQuery
		if !cov.full() {
			// Restrict the query to available shards; appended last, the
			// restriction wins over any client-supplied shards parameter.
			restrict := registry.ParamShards + "=" + joinInts(cov.shards)
			if rawQuery != "" {
				rawQuery += "&" + restrict
			} else {
				rawQuery = restrict
			}
		}
		cand := rt.candidates(r.URL.Path, r.URL.RawQuery, failed)
		res, won := rt.scatter(r.Context(), cand, r.URL.Path, rawQuery, r.Header, failed)
		if won {
			rt.writeResult(w, res, cov)
			return
		}
		if r.Context().Err() != nil {
			routerError(w, http.StatusServiceUnavailable, d.Kind, "request canceled")
			return
		}
	}
	rt.met.unavail.Inc()
	routerError(w, http.StatusBadGateway, d.Kind, "all replicas failed")
}

// writeResult replays the winning upstream response with coverage metadata.
// Full-coverage bodies are byte-identical to what the replica served.
func (rt *Router) writeResult(w http.ResponseWriter, res upstreamResult, cov coverage) {
	h := w.Header()
	for _, name := range []string{"Content-Type", "X-Cache"} {
		if v := res.header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	h.Set("X-Gdelt-Replica", rt.replicas[res.idx].id)
	h.Set("X-Gdelt-Shards", fmt.Sprintf("%d/%d", len(cov.shards), cov.total))
	if cov.full() {
		h.Set("X-Gdelt-Coverage", "full")
		rt.met.coverFull.Inc()
	} else {
		h.Set("X-Gdelt-Coverage", "partial")
		h.Set("X-Gdelt-Missing-Shards", joinInts(cov.missing))
		rt.met.coverPart.Inc()
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// handleReadyz reports the router's own readiness in coverage terms: ready
// when every group is reachable, degraded (still 200 — the router can
// answer, partially) when some are, 503 when none are.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	cov := rt.computeCoverage(nil)
	st := struct {
		Status        string `json:"status"`
		ShardsTotal   int    `json:"shardsTotal"`
		ShardsServing int    `json:"shardsServing"`
		MissingShards []int  `json:"missingShards,omitempty"`
	}{Status: "ready", ShardsTotal: cov.total, ShardsServing: len(cov.shards), MissingShards: cov.missing}
	code := http.StatusOK
	switch {
	case len(cov.shards) == 0:
		st.Status = "unavailable"
		code = http.StatusServiceUnavailable
	case !cov.full():
		st.Status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(st)
}

// handleRoutez dumps the routing topology and per-replica health for
// operators: which shards each group holds, who backs it, breaker states.
func (rt *Router) handleRoutez(w http.ResponseWriter, r *http.Request) {
	type replicaz struct {
		ID      string `json:"id"`
		URL     string `json:"url"`
		Breaker string `json:"breaker"`
		Ready   bool   `json:"ready"`
		Shards  int64  `json:"shards,omitempty"`
	}
	type groupz struct {
		Shards   []int    `json:"shards"`
		Replicas []string `json:"replicas"`
		Up       bool     `json:"up"`
	}
	out := struct {
		Shards   int        `json:"shards"`
		Groups   []groupz   `json:"groups"`
		Replicas []replicaz `json:"replicas"`
	}{Shards: rt.cfg.Shards}
	for g, members := range rt.place {
		gz := groupz{Shards: rt.groups[g]}
		for _, idx := range members {
			rep := rt.replicas[idx]
			gz.Replicas = append(gz.Replicas, rep.id)
			if rep.brk.canTry() {
				gz.Up = true
			}
		}
		out.Groups = append(out.Groups, gz)
	}
	for _, rep := range rt.replicas {
		out.Replicas = append(out.Replicas, replicaz{
			ID: rep.id, URL: rep.baseURL, Breaker: rep.brk.State(),
			Ready: rep.ready.Load(), Shards: rep.shardCount.Load(),
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

func joinInts(v []int) string {
	var b strings.Builder
	for i, n := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(n))
	}
	return b.String()
}
