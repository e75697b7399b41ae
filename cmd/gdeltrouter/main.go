// Command gdeltrouter fronts a fleet of gdeltserve replicas with the
// replicated scatter/gather tier from internal/router. Shards are tiled
// into contiguous groups, each group placed on R replicas by consistent
// hashing; queries route to one healthy replica by affinity hashing with
// per-try timeouts, jittered hedged retries, per-replica circuit breakers
// fed by background /readyz probing, graceful degradation to partial
// coverage when a whole group is down, and per-tenant admission control.
//
// Usage:
//
//	gdeltrouter -replicas http://h1:8321,http://h2:8321 -shards 4
//	            [-addr :8322] [-groups 2] [-replication 2]
//	            [-per-try-timeout 5s] [-hedge-delay 30ms] [-max-attempts 3]
//	            [-breaker-failures 3] [-breaker-cooldown 5s]
//	            [-probe-interval 2s] [-rate 0] [-burst 0] [-max-concurrent 0]
//
// With -shards 0 the router discovers the shard count from the first
// replica whose /readyz answers with shard status. Responses carry
// X-Gdelt-Coverage (full|partial), X-Gdelt-Shards (answered/total),
// X-Gdelt-Missing-Shards and X-Gdelt-Replica headers; /routez dumps the
// live topology and breaker states.
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

	"gdeltmine/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gdeltrouter: ")
	var (
		addr        = flag.String("addr", ":8322", "listen address")
		replicasRaw = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		shards      = flag.Int("shards", 0, "shard count of the dataset; 0 discovers it from a replica's /readyz")
		groups      = flag.Int("groups", 1, "contiguous shard groups (availability domains)")
		replication = flag.Int("replication", 2, "replicas per group")
		perTry      = flag.Duration("per-try-timeout", 5*time.Second, "deadline for each upstream attempt")
		hedgeDelay  = flag.Duration("hedge-delay", 30*time.Millisecond, "delay before duplicating a slow request; 0 disables hedging")
		maxAttempts = flag.Int("max-attempts", 3, "total attempts per query (first try + hedges + retries)")
		brkFails    = flag.Int("breaker-failures", 3, "consecutive failures that trip a replica's circuit breaker")
		brkCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "breaker open -> half-open delay")
		probeEvery  = flag.Duration("probe-interval", 2*time.Second, "replica /readyz polling period; 0 disables probing")
		rate        = flag.Float64("rate", 0, "per-tenant sustained requests/sec; 0 disables rate limiting")
		burst       = flag.Int("burst", 0, "per-tenant token bucket capacity; 0 derives from -rate")
		maxConc     = flag.Int("max-concurrent", 0, "per-tenant concurrent query cap; 0 disables")
		seed        = flag.Int64("seed", 1, "hedge jitter seed")
		grace       = flag.Duration("shutdown-grace", 15*time.Second, "time allowed for in-flight requests to drain on SIGTERM")
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
	if *shards == 0 {
		k, err := router.DiscoverShards(replicas)
		if err != nil {
			log.Fatalf("shard discovery: %v (pass -shards explicitly)", err)
		}
		*shards = k
		fmt.Printf("discovered %d shards\n", k)
	}
	rt, err := router.New(router.Config{
		Replicas:         replicas,
		Shards:           *shards,
		Groups:           *groups,
		Replication:      *replication,
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
		Seed: *seed,
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
	fmt.Printf("routing %d replicas on %s (%d shards, %d groups)\n",
		len(replicas), *addr, *shards, *groups)

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
