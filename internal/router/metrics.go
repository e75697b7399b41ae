package router

import (
	"net/http"

	"gdeltmine/internal/obs"
)

// metrics groups the router's observability handles. Counters are resolved
// once at construction — the hot path only increments.
type metrics struct {
	hedges    *obs.Counter // hedge requests launched
	hedgeWins *obs.Counter // hedges that returned first
	retries   *obs.Counter // failure-driven retries (not hedges)
	unavail   *obs.Counter // requests refused: no replica usable, or every attempt failed
	latency   *obs.Histogram
}

func newMetrics() *metrics {
	return &metrics{
		hedges: obs.Default.Counter("router_hedges_total",
			"hedged duplicate requests launched"),
		hedgeWins: obs.Default.Counter("router_hedge_wins_total",
			"hedged requests that won the race"),
		retries: obs.Default.Counter("router_retries_total",
			"failure-driven retries to another replica"),
		unavail: obs.Default.Counter("router_unavailable_total",
			"queries refused because no replica was usable or every attempt failed"),
		latency: obs.Default.Histogram("router_request_seconds",
			"routed query latency", obs.LatencyBuckets),
	}
}

// replicaFailures returns the per-replica failure counter; label cardinality
// is bounded by the configured fleet, so resolving per replica is safe.
func replicaFailures(id string) *obs.Counter {
	return obs.Default.Counter("router_replica_failures_total",
		"failed attempts per replica", obs.L("replica", id))
}

// handleMetrics exposes the shared obs registry in Prometheus text format,
// mirroring gdeltserve's /metrics endpoint.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}
