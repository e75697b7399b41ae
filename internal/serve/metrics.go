package serve

import (
	"context"
	"net/http"
	"net/http/pprof"
	"time"

	"gdeltmine/internal/obs"
)

// Per-endpoint HTTP metrics. Every query endpoint is registered at server
// construction, so a /metrics scrape lists the full endpoint inventory
// (with zero values) before the first request arrives.
type endpointMetrics struct {
	requests *obs.Counter
	seconds  *obs.Histogram
	timeouts *obs.Counter
	errors   *obs.Counter
}

func newEndpointMetrics(kind string) *endpointMetrics {
	return &endpointMetrics{
		requests: obs.Default.Counter("http_requests_total",
			"requests served per query endpoint", obs.L("endpoint", kind)),
		seconds: obs.Default.Histogram("http_request_seconds",
			"request latency per query endpoint", obs.LatencyBuckets, obs.L("endpoint", kind)),
		timeouts: obs.Default.Counter("queries_timeout_total",
			"queries abandoned by timeout or client disconnect", obs.L("kind", kind)),
		errors: obs.Default.Counter("http_errors_total",
			"4xx/5xx responses per query endpoint", obs.L("endpoint", kind)),
	}
}

// Server-wide protective-limit metrics.
var (
	mInFlight = obs.Default.Gauge("http_inflight_requests",
		"requests currently being served")
	mShed = obs.Default.Counter("http_shed_total",
		"requests shed with 503 by the max-in-flight cap")
	mPanics = obs.Default.Counter("http_panics_total",
		"handler panics recovered into JSON 500s")
)

// ctxKeyKind carries the query kind through the request context so the
// shared response helpers can label timeout metrics and error envelopes.
type ctxKeyKind struct{}

func kindOf(r *http.Request) string {
	if k, ok := r.Context().Value(ctxKeyKind{}).(string); ok {
		return k
	}
	return ""
}

// instrument wraps h with the per-endpoint metrics (request counter,
// latency histogram, error counter) and stores the kind in the request
// context for the shared error/timeout helpers.
func (s *Server) instrument(kind string, h http.HandlerFunc) http.HandlerFunc {
	em := newEndpointMetrics(kind)
	s.endpoints[kind] = em
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyKind{}, kind))
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		em.requests.Inc()
		em.seconds.ObserveSince(start)
		if sw.status >= 400 {
			em.errors.Inc()
		}
	}
}

// statusWriter records the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// handleMetrics exposes the process registry in Prometheus text format. It
// sits outside the protective chain so scrapes keep working while the
// server is draining or shedding load.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}

// mountPprof exposes the net/http/pprof handlers under /debug/pprof/ when
// Config.EnablePprof is set — profile capture for the perf PRs this
// observability layer exists to measure.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
