// Command gdeltserve loads a converted binary GDELT database into memory
// and serves the analysis engine over HTTP/JSON — the language-agnostic
// counterpart of the paper's planned Python interface. All endpoints are
// read-only and safe for concurrent use.
//
// The server is hardened for unattended operation: per-request timeouts
// cancel the engine scans of abandoned queries, a max-in-flight cap sheds
// excess load with 503 instead of queueing it, panics surface as JSON 500s,
// and SIGTERM/SIGINT drains in-flight requests before exiting (flipping
// /readyz to 503 so load balancers stop routing first).
//
// Query results are memoized in a snapshot-keyed cache with single-flight
// execution (-cache-bytes sets its memory budget): repeated or concurrent
// identical queries cost one scan, and the X-Cache response header reports
// hit/miss/coalesced per request.
//
// Usage:
//
//	gdeltserve -db ./gdelt.gdmb -addr :8321 [-request-timeout 30s]
//	           [-max-inflight 64] [-shutdown-grace 15s] [-cache-bytes 268435456]
//	           [-shards 4]
//
// Every dataset is served as a time-partitioned shard set (internal/shard):
// a .shards directory (written by `gdeltconvert -shards`) loads as written,
// and a monolithic .gdmb file is the one-shard world unless -shards K > 1
// re-slices it into K time-range shards. Every query fans out per shard,
// reducing through a shared global dictionary; results do not depend on K.
// Cache keys embed the per-shard version vector, so a tail-shard append
// invalidates only entries whose window touches the tail.
//
// The query surface is registry-driven: every kind known to
// internal/registry is served under /api/v1/<kind> (run `gdeltquery list`
// for the inventory and per-kind parameters). All endpoints are GET and
// accept workers=N, from=YYYYMMDDHHMMSS, to=YYYYMMDDHHMMSS:
//
//	/healthz               liveness probe
//	/readyz                readiness probe (503 while draining)
//	/metrics               Prometheus text exposition (obs registry)
//	/debug/pprof/          profiling handlers (only with -pprof)
//	/api/v1/<kind>         any registered query kind
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

	"gdeltmine/internal/binfmt"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/report"
	"gdeltmine/internal/serve"
	"gdeltmine/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gdeltserve: ")
	var (
		dbPath     = flag.String("db", "", "binary database path, or a .shards directory from gdeltconvert -shards (required)")
		addr       = flag.String("addr", ":8321", "listen address")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline; 0 disables")
		maxFlight  = flag.Int("max-inflight", 64, "max concurrent requests before shedding with 503; 0 disables")
		grace      = flag.Duration("shutdown-grace", 15*time.Second, "time allowed for in-flight requests to drain on SIGTERM")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		cacheBytes = flag.Int64("cache-bytes", qcache.DefaultMaxBytes,
			"approximate memory budget of the query result cache; 0 disables caching")
		shards = flag.Int("shards", 0,
			"re-slice a monolithic -db into K time-range shards and fan queries out per shard; 0/1 serves it as one shard")
	)
	flag.Parse()
	if *dbPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Flag semantics: 0 disables caching; Config uses negative for "off".
	cacheBudget := *cacheBytes
	if cacheBudget == 0 {
		cacheBudget = -1
	}
	cfg := serve.Config{
		RequestTimeout: *reqTimeout,
		MaxInFlight:    *maxFlight,
		EnablePprof:    *pprofOn,
		CacheBytes:     cacheBudget,
	}
	start := time.Now()
	var sdb *shard.DB
	if fi, err := os.Stat(*dbPath); err == nil && fi.IsDir() {
		// A sharded layout written by `gdeltconvert -shards`: an append-log
		// directory holding a manifest plus one store file per shard.
		lg, err := shard.OpenLog(*dbPath)
		if err != nil {
			log.Fatal(err)
		}
		sdb = lg.Snapshot()
		fmt.Printf("loaded %s articles (%d shards) from %s in %v\n",
			report.Int(sdb.View().Dataset().Articles), sdb.K(), *dbPath,
			time.Since(start).Round(time.Millisecond))
	} else if strings.HasSuffix(*dbPath, ".shards") {
		log.Fatalf("%s is not a directory: re-run `gdeltconvert -shards` to rewrite this older sharded layout", *dbPath)
	} else {
		db, err := binfmt.ReadFile(*dbPath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s articles from %s in %v\n",
			report.Int(int64(db.Mentions.Len())), *dbPath, time.Since(start).Round(time.Millisecond))
		if *shards > 1 {
			if sdb, err = shard.Split(db, *shards); err == nil {
				fmt.Printf("sharded into %d time partitions\n", sdb.K())
			}
		} else {
			sdb, err = shard.Single(db)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	srv := serve.NewSharded(sdb, cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("serving on %s\n", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising readiness, then give in-flight
	// requests up to -shutdown-grace to complete.
	log.Print("shutdown signal received, draining")
	srv.SetReady(false)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("drain incomplete after %v: %v (%d requests still in flight)",
			*grace, err, srv.InFlight())
		os.Exit(1)
	}
	log.Print("drained cleanly")
}
