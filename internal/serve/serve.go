// Package serve exposes the analysis engine over HTTP/JSON — the
// language-agnostic realization of the paper's planned "Python interface
// for ease of use". One loaded dataset serves concurrent read-only queries.
//
// Routing is registry-driven: every query kind registered in
// internal/registry is served under /api/v1/<kind>, parameters validated
// against the kind's schema, results produced by the kind's RunSharded
// function over the dataset's current shard.View, encoded once (Encode)
// and memoized as that body in a snapshot-keyed result cache
// (internal/qcache) with single-flight execution — N concurrent identical
// requests cost one scan, and a cache hit is a write of stored bytes.
//
// Every endpoint accepts the common workers, from and to parameters to pin
// parallelism and restrict the capture-time window, and every failure path
// answers with the uniform JSON envelope {"error": ..., "kind": ...}.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"gdeltmine/internal/obs"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// Server serves analysis queries over one dataset, always a shard.DB world:
// a loaded monolith is the K=1 world shard.Single builds. Queries fan out
// per shard and reduce by global id.
type Server struct {
	// snap resolves the world a request reads: the one prebuilt view of a
	// static dataset, or the append log's snapshot as of the call.
	snap      func() *shard.View
	cfg       Config
	handler   http.Handler
	slots     chan struct{} // load-shedding semaphore, nil when unlimited
	ready     atomic.Bool
	inFlight  atomic.Int64
	endpoints map[string]*endpointMetrics
	exec      *registry.Executor
	// v1 maps canonical kind -> instrumented handler, built once at
	// construction so the /metrics inventory is complete before traffic.
	v1 map[string]http.HandlerFunc
}

// NewSharded returns a server over an immutable time-partitioned shard set.
func NewSharded(sdb *shard.DB, cfg Config) *Server {
	v := sdb.View()
	return newServer(func() *shard.View { return v }, cfg)
}

// NewLive returns a server over a live append log. Each request resolves
// the log's current snapshot, so results reflect every append folded
// before the request arrived while in-flight queries keep reading the
// snapshot they started on (shard.Log publishes copy-on-write worlds).
func NewLive(lg *shard.Log, cfg Config) *Server {
	return newServer(func() *shard.View { return lg.Snapshot().View() }, cfg)
}

// newServer builds the handler tree over snap. Cache keys embed the
// per-shard version vector, and each cache sweep loads the current world
// once for its staleness rule: an append bumps the tail shard's version,
// so exactly the cached windows overlapping the tail retire while
// cold-shard results stay warm.
func newServer(snap func() *shard.View, cfg Config) *Server {
	s := &Server{snap: snap, cfg: cfg, endpoints: make(map[string]*endpointMetrics)}
	if cfg.MaxInFlight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	s.exec = &registry.Executor{Encode: Encode}
	if cfg.CacheBytes >= 0 { // negative disables caching: every query scans
		s.exec.Cache = qcache.New(cfg.CacheBytes)
		s.exec.Cache.SetStale(func() func(qcache.Key) bool { return snap().DB().Staleness() })
	}
	s.ready.Store(true)
	mux := http.NewServeMux()
	// One instrumented handler per registered kind, dispatched by routeV1.
	s.v1 = make(map[string]http.HandlerFunc)
	for _, d := range registry.All() {
		d := d
		s.v1[d.Kind] = s.instrument(d.Kind, func(w http.ResponseWriter, r *http.Request) {
			s.serveQuery(w, r, d)
		})
	}
	mux.HandleFunc("/api/v1/", s.routeV1)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		jsonError(w, http.StatusNotFound, "no such endpoint %q; query kinds are served under /api/v1/", r.URL.Path)
	})
	// Health probes and the metrics scrape stay outside the protective
	// chain: a loaded or draining server must still answer liveness checks
	// and report what it is doing.
	root := http.NewServeMux()
	root.HandleFunc("/healthz", s.handleHealthz)
	root.HandleFunc("/readyz", s.handleReadyz)
	root.HandleFunc("/metrics", s.handleMetrics)
	if cfg.EnablePprof {
		mountPprof(root)
	}
	root.Handle("/", s.protect(mux))
	s.handler = root
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// routeV1 resolves /api/v1/<kind> against the registry. Unknown kinds get
// the uniform 404 envelope naming the kind they asked for.
func (s *Server) routeV1(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/api/v1/")
	d, ok := registry.Lookup(name)
	if !ok {
		jsonErrorQuery(w, http.StatusNotFound, name, "unknown query kind %q", name)
		return
	}
	s.v1[d.Kind](w, r)
}

// serveQuery is the one code path every query endpoint runs: derive the
// engine view from the common parameters, validate the kind's own
// parameters against its schema, execute through the cache and write the
// encoded answer it returns. The X-Cache header reports how the result was
// obtained (hit, miss, coalesced) so clients and benchmarks can tell a
// scan from a lookup.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, d *registry.Descriptor) {
	kind := kindOf(r)
	q := r.URL.Query()
	if r.Method == http.MethodPost {
		// POST carries the parameters form-encoded in the body (long qlang
		// expressions outgrow comfortable URLs). ParseForm merges body and
		// URL values; body values come first, and the registry's
		// last-value-wins rule then lets the URL override the body.
		if err := r.ParseForm(); err != nil {
			jsonErrorQuery(w, http.StatusBadRequest, kind, "invalid form body: %v", err)
			return
		}
		q = r.Form
	}
	p, err := d.ParseURLValues(q)
	if err != nil {
		jsonErrorQuery(w, http.StatusBadRequest, kind, "%v", err)
		return
	}
	sv := s.snap().WithContext(r.Context()).WithKind(kind)
	sv, err = registry.DeriveView(sv, func(name string) []string { return q[name] })
	if err != nil {
		jsonErrorQuery(w, http.StatusBadRequest, kind, "%v", err)
		return
	}
	body, outcome, err := s.exec.ExecuteSharded(d, sv, p)
	if err != nil {
		s.queryError(w, kind, err)
		return
	}
	if outcome != qcache.Bypass {
		w.Header().Set("X-Cache", outcome.String())
	}
	writeBody(w, r, body.(registry.Body))
}

// queryError maps an execution error to its transport status: cancellation
// to 504 (with the timeout counter the dashboards watch), parameter errors
// to 400, a missing GKG to 404, anything else to 500.
func (s *Server) queryError(w http.ResponseWriter, kind string, err error) {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if kind != "" {
			obs.Default.Counter("queries_timeout_total",
				"queries abandoned by timeout or client disconnect", obs.L("kind", kind)).Inc()
		}
		jsonErrorQuery(w, http.StatusGatewayTimeout, kind, "request cancelled: %v", err)
	case registry.IsBadParam(err):
		jsonErrorQuery(w, http.StatusBadRequest, kind, "%v", err)
	case errors.Is(err, queries.ErrNoGKG):
		jsonErrorQuery(w, http.StatusNotFound, kind, "%v", err)
	default:
		jsonErrorQuery(w, http.StatusInternalServerError, kind, "%v", err)
	}
}

// Encode is the wire form of every answer the server sends: compact JSON
// and a trailing newline, the bytes json.Encoder.Encode writes without
// indentation. The body's capacity is its length, so the result cache
// charges exactly the bytes it holds.
func Encode(v any) (registry.Body, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	body := make(registry.Body, len(b)+1)
	copy(body, b)
	body[len(b)] = '\n'
	return body, nil
}

// writeJSON encodes v and sends it as writeBody does.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	body, err := Encode(v)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeBody(w, r, body)
}

// writeBody sends an encoded answer with its length, unless the request
// was cancelled or timed out while the query ran — a cancelled engine scan
// returns a partial aggregate, so the result must not be served as if it
// were complete. The 504 names the query kind in the error envelope and
// records queries_timeout_total so timeout storms are visible on /metrics.
func writeBody(w http.ResponseWriter, r *http.Request, body []byte) {
	if err := r.Context().Err(); err != nil {
		kind := kindOf(r)
		if kind != "" {
			obs.Default.Counter("queries_timeout_total",
				"queries abandoned by timeout or client disconnect", obs.L("kind", kind)).Inc()
		}
		jsonErrorQuery(w, http.StatusGatewayTimeout, kind, "request cancelled: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}
