// Command gdeltrouter fronts a fleet of gdeltserve replicas with the
// routing tier from internal/router. Every replica serves the full world,
// so any live replica answers any query in full: queries go to the usable
// replicas in affinity-hash order, with per-try timeouts, a hedged
// duplicate when the primary is slow, per-replica circuit breakers fed by
// background /readyz probing, and per-tenant admission control. The router
// answers 503 only when no replica is usable.
//
// The router keeps the answers replicas mark fresh — a 200 with
// Cache-Control: max-age=N, which gdeltserve sends for cached answers over
// a frozen world (N = 1) — in a body cache of -cache-bytes, keyed on the
// canonical query, for N seconds: a repeat inside that time is answered
// from the stored bytes with X-Cache: hit and no upstream exchange, and
// concurrent misses for one query make one upstream race. Live-world,
// uncached and error answers carry no max-age and always reach a replica.
//
// Usage:
//
//	gdeltrouter -replicas http://h1:8321,http://h2:8321 [-addr :8322]
//	            [-per-try-timeout 5s] [-hedge-delay 30ms] [-max-attempts 3]
//	            [-breaker-failures 3] [-breaker-cooldown 5s]
//	            [-probe-interval 2s] [-rate 0] [-burst 0] [-max-concurrent 0]
//	            [-cache-bytes 268435456]
//
// Responses carry an X-Gdelt-Replica header naming the replica that
// answered (for a cached answer, the one that produced it); /routez dumps
// each replica's breaker state and readiness and the cache's entries,
// bytes and hit ratio.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gdeltmine/internal/qcache"
	"gdeltmine/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gdeltrouter: ")
	var (
		addr        = flag.String("addr", ":8322", "listen address")
		replicasRaw = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		perTry      = flag.Duration("per-try-timeout", 5*time.Second, "deadline for each upstream attempt")
		hedgeDelay  = flag.Duration("hedge-delay", 30*time.Millisecond, "delay before duplicating a slow request; 0 disables hedging")
		maxAttempts = flag.Int("max-attempts", 3, "total attempts per query (first try + hedges + retries)")
		brkFails    = flag.Int("breaker-failures", 3, "consecutive failures that trip a replica's circuit breaker")
		brkCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker refuses traffic before the replica is tried again")
		probeEvery  = flag.Duration("probe-interval", 2*time.Second, "replica /readyz polling period; 0 disables probing")
		rate        = flag.Float64("rate", 0, "per-tenant sustained requests/sec; 0 disables rate limiting")
		burst       = flag.Int("burst", 0, "per-tenant token bucket capacity; 0 derives from -rate")
		maxConc     = flag.Int("max-concurrent", 0, "per-tenant concurrent query cap; 0 disables")
		grace       = flag.Duration("shutdown-grace", 15*time.Second, "time allowed for in-flight requests to drain on SIGTERM")
		cacheBytes  = flag.Int64("cache-bytes", qcache.DefaultMaxBytes,
			"approximate memory budget of the cache of fresh replica answers; 0 disables caching")
	)
	flag.Parse()
	if *replicasRaw == "" {
		flag.Usage()
		os.Exit(2)
	}
	var replicas []router.Replica
	for i, u := range strings.Split(*replicasRaw, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		replicas = append(replicas, router.Replica{ID: fmt.Sprintf("r%d", i), URL: u})
	}
	// Flag semantics as gdeltserve's: 0 disables caching; Config uses
	// negative for "off".
	cacheBudget := *cacheBytes
	if cacheBudget == 0 {
		cacheBudget = -1
	}
	rt, err := router.New(router.Config{
		Replicas:         replicas,
		PerTryTimeout:    *perTry,
		HedgeDelay:       *hedgeDelay,
		MaxAttempts:      *maxAttempts,
		BreakerThreshold: *brkFails,
		BreakerCooldown:  *brkCooldown,
		ProbeInterval:    *probeEvery,
		Admission: router.AdmissionConfig{
			RatePerSec:    *rate,
			Burst:         *burst,
			MaxConcurrent: *maxConc,
		},
		CacheBytes: cacheBudget,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt.Start()
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("routing %d replicas on %s\n", len(replicas), *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Print("shutdown signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("drain incomplete after %v: %v", *grace, err)
		os.Exit(1)
	}
	log.Print("drained cleanly")
}
