package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"
)

// Config tunes the server's protective limits. The zero value disables all
// of them (no timeout, no load shedding), matching the pre-hardening
// behavior of New.
type Config struct {
	// RequestTimeout bounds the wall-clock time of one request; the
	// deadline propagates through the engine's scan context, so a timed-out
	// query stops consuming cores. Zero means no timeout.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently served requests; excess requests are
	// shed immediately with 503 rather than queued, keeping latency
	// bounded under overload. Zero means unlimited.
	MaxInFlight int
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: profiling endpoints expose internals and cost CPU,
	// so they are opt-in per deployment.
	EnablePprof bool
	// CacheBytes is the approximate memory budget of the query result
	// cache. Zero selects qcache.DefaultMaxBytes; a negative value
	// disables caching entirely (every request scans).
	CacheBytes int64
}

// jsonError writes the uniform error envelope every failure path uses:
// {"error": "..."} with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	jsonErrorQuery(w, status, "", format, args...)
}

// jsonErrorQuery is jsonError with the query kind named in the envelope,
// so a client that fans out requests can attribute a failure to the query
// that caused it: {"error": "...", "kind": "country"}.
func jsonErrorQuery(w http.ResponseWriter, status int, kind, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
		Kind  string `json:"kind,omitempty"`
	}{fmt.Sprintf(format, args...), kind})
}

// SetReady flips the /readyz probe. A freshly constructed server is ready
// (its dataset is already loaded); cmd/gdeltserve flips it off when a
// shutdown begins so load balancers stop routing to a draining process.
func (s *Server) SetReady(ok bool) { s.ready.Store(ok) }

// InFlight returns the number of requests currently being served.
func (s *Server) InFlight() int64 { return s.inFlight.Load() }

// handleHealthz reports liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, struct {
		Status string `json:"status"`
	}{"ok"})
}

// ShardStatus is the per-shard detail a server reports on /readyz, for
// operators: how the served world is partitioned and each part's snapshot
// version. The routing tier's prober reads only the /readyz status code.
type ShardStatus struct {
	// Count is the number of time-partition shards served.
	Count int `json:"count"`
	// Bounds is the K+1 capture-interval tiling of the shards.
	Bounds []int32 `json:"bounds"`
	// Versions is the per-shard snapshot version vector.
	Versions []uint64 `json:"versions"`
	// TailVersion is the version of the tail (append-target) shard.
	TailVersion uint64 `json:"tailVersion"`
}

// ReadyStatus is the /readyz response body.
type ReadyStatus struct {
	Status string      `json:"status"`
	Shards ShardStatus `json:"shards"`
}

// handleReadyz reports readiness: liveness plus "not draining", with the
// per-shard status of the current world.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		jsonError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	sdb := s.snap().DB()
	sh := ShardStatus{
		Count:       sdb.K(),
		Bounds:      sdb.Bounds(),
		Versions:    make([]uint64, sdb.K()),
		TailVersion: sdb.Tail().Version(),
	}
	for i := range sh.Versions {
		sh.Versions[i] = sdb.Part(i).Version()
	}
	writeJSON(w, r, ReadyStatus{Status: "ready", Shards: sh})
}

// protect is the middleware chain applied outside the mux: panic recovery,
// method filtering, load shedding, and the per-request timeout.
func (s *Server) protect(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				debug.PrintStack()
				mPanics.Inc()
				jsonError(w, http.StatusInternalServerError, "internal error: %v", rec)
			}
		}()
		// Queries are read-only, so GET/HEAD everywhere; POST is additionally
		// accepted on the query endpoints, where long qlang expressions travel
		// form-encoded in the body (serveQuery merges body and URL values).
		switch {
		case r.Method == http.MethodGet || r.Method == http.MethodHead:
		case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/api/"):
		default:
			w.Header().Set("Allow", "GET, POST")
			jsonError(w, http.StatusMethodNotAllowed, "method %s not allowed; use GET or POST", r.Method)
			return
		}
		if s.cfg.MaxInFlight > 0 {
			select {
			case s.slots <- struct{}{}:
				defer func() { <-s.slots }()
			default:
				mShed.Inc()
				jsonError(w, http.StatusServiceUnavailable, "server overloaded: %d requests in flight", s.cfg.MaxInFlight)
				return
			}
		}
		mInFlight.Set(float64(s.inFlight.Add(1)))
		defer func() { mInFlight.Set(float64(s.inFlight.Add(-1))) }()
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}
