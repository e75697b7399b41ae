package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
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

	ready       atomic.Bool
	shardCount  atomic.Int64 // shard count reported by /readyz, 0 if unknown
	tailVersion atomic.Uint64
}

// readyz is what the router reads of a replica's /readyz body
// (serve.ReadyStatus): every ready replica reports its world's shard count
// and tail version; a monolithic .gdmb replica is a K=1 world.
type readyz struct {
	Shards struct {
		Count       int    `json:"count"`
		TailVersion uint64 `json:"tailVersion"`
	} `json:"shards"`
}

// probeOnce checks a replica's /readyz, feeding the verdict into both the
// readiness flag and the circuit breaker. Probes bypass Allow: they are the
// mechanism that moves an open breaker back to closed, so they must run even
// when the breaker would refuse traffic.
func (rt *Router) probeOnce(ctx context.Context, rep *replica) {
	cctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
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
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		rep.ready.Store(false)
		rep.brk.Failure()
		return
	}
	// Use the shard count and tail version for topology discovery and drift
	// checks.
	var st readyz
	if json.Unmarshal(body, &st) == nil {
		rep.shardCount.Store(int64(st.Shards.Count))
		rep.tailVersion.Store(st.Shards.TailVersion)
	}
	rep.ready.Store(true)
	rep.brk.Success()
}

// probeLoop polls every replica at ProbeInterval until the router closes.
// Replicas are probed concurrently so one partitioned replica's timeout
// does not delay the health verdict of the others.
func (rt *Router) probeLoop() {
	defer rt.probeDone.Done()
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		var wg sync.WaitGroup
		for _, rep := range rt.replicas {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				rt.probeOnce(rt.probeCtx, rep)
			}(rep)
		}
		wg.Wait()
		select {
		case <-rt.probeCtx.Done():
			return
		case <-tick.C:
		}
	}
}

// ProbeAll runs one synchronous probe round against every replica — used by
// tests and by Start for an immediate initial health picture instead of
// waiting a full ProbeInterval.
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

// DiscoverShards asks each replica's /readyz for its shard count until one
// answers.
func DiscoverShards(replicas []Replica) (int, error) {
	client := &http.Client{Timeout: 3 * time.Second}
	var lastErr error
	for _, rep := range replicas {
		resp, err := client.Get(strings.TrimRight(rep.URL, "/") + "/readyz")
		if err != nil {
			lastErr = err
			continue
		}
		var st readyz
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if st.Shards.Count > 0 {
			return st.Shards.Count, nil
		}
		lastErr = fmt.Errorf("%s: /readyz carries no shard count (status %d)", rep.URL, resp.StatusCode)
	}
	return 0, lastErr
}
