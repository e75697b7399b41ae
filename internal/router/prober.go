package router

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gdeltmine/internal/obs"
)

// replica is the router's per-replica runtime state: identity, breaker, and
// the latest readiness observation from the background prober.
type replica struct {
	id      string
	baseURL string
	brk     *breaker
	fails   *obs.Counter // router_replica_failures_total{replica=id}

	ready atomic.Bool
}

// probeTimeout bounds each /readyz probe.
const probeTimeout = 2 * time.Second

// probeOnce checks a replica's /readyz, feeding the verdict into both the
// readiness flag and the circuit breaker. Probes bypass canTry: they are the
// mechanism that moves an open breaker back to closed, so they must run even
// when the breaker would refuse traffic.
func (rt *Router) probeOnce(ctx context.Context, rep *replica) {
	cctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, rep.baseURL+"/readyz", nil)
	if err != nil {
		rep.ready.Store(false)
		rep.brk.Failure()
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.ready.Store(false)
		rep.brk.Failure()
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) // drain so the connection is reused
	if resp.StatusCode != http.StatusOK {
		rep.ready.Store(false)
		rep.brk.Failure()
		return
	}
	rep.ready.Store(true)
	rep.brk.Success()
}

// probeLoop runs a ProbeAll round every ProbeInterval until the router
// closes. Start ran the first round.
func (rt *Router) probeLoop() {
	defer rt.probeDone.Done()
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.probeCtx.Done():
			return
		case <-tick.C:
		}
		rt.ProbeAll(rt.probeCtx)
	}
}

// ProbeAll runs one synchronous probe round against every replica: the
// round probeLoop repeats, and what tests and Start run for an immediate
// health picture instead of waiting a full ProbeInterval. Replicas are
// probed concurrently so one partitioned replica's timeout does not delay
// the health verdict of the others.
func (rt *Router) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range rt.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			rt.probeOnce(ctx, rep)
		}(rep)
	}
	wg.Wait()
}
