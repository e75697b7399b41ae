// Command gdeltconvert is the preprocessing tool of Section IV: it reads a
// raw GDELT dataset (master file list plus chunk files), cleans and
// validates the data, and writes the indexed binary database. The defect
// tally it prints reproduces Table II.
//
// The conversion is fault-tolerant: unreadable chunks are quarantined (the
// build completes partially and reports the loss), and a damage level
// above -max-quarantine-frac aborts. Local file reads fail permanently, so
// they are not retried; the retry schedule applies only to sources that
// report transient failures.
//
// Usage:
//
//	gdeltconvert -in ./dataset -out ./gdelt.gdmb [-max-quarantine-frac 1.0]
//	             [-shards 4]
//
// With -shards K > 1 the converted store is additionally split on
// capture-interval boundaries into K time-range shards, written as the
// append-log directory <out>.shards/ (a manifest plus one part file per
// shard, each fsynced and renamed into place), ready for
// `gdeltserve -db <out>.shards`. An existing <out>.shards is replaced.
//
// Exit codes: 0 success, 1 fatal error, 2 usage,
// 3 quarantine threshold exceeded (dataset too damaged).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gdeltmine"
	"gdeltmine/internal/report"
	"gdeltmine/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gdeltconvert: ")
	var (
		in      = flag.String("in", "", "raw dataset directory (required)")
		out     = flag.String("out", "", "output binary database path (required)")
		maxQuar = flag.Float64("max-quarantine-frac", 1.0, "abort when more than this fraction of chunks quarantine")
		shards  = flag.Int("shards", 0, "also write a K-shard layout next to -out (directory <out>.shards: manifest + one file per shard); 0 disables")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	ds, err := gdeltmine.ConvertRawOpts(ctx, *in, gdeltmine.ConvertOptions{
		MaxQuarantineFrac: *maxQuar,
	})
	if err != nil {
		if errors.Is(err, gdeltmine.ErrTooManyQuarantined) {
			log.Print(err)
			os.Exit(3)
		}
		log.Fatal(err)
	}
	convTime := time.Since(start)

	start = time.Now()
	if err := ds.SaveBinary(*out); err != nil {
		log.Fatal(err)
	}
	saveTime := time.Since(start)

	info, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converted %s articles, %s events, %s sources in %v\n",
		report.Int(int64(ds.Articles())), report.Int(int64(ds.Events())),
		report.Int(int64(ds.Sources())), convTime.Round(time.Millisecond))
	fmt.Printf("ingestion: %d duplicate events, %d dangling mentions, %d dropped mentions\n",
		ds.Build.DuplicateEvents, ds.Build.DanglingMentions, ds.Build.DroppedMentions)
	if n := len(ds.Quarantined); n > 0 {
		fmt.Printf("quarantined %d chunks (build completed without them):\n", n)
		for i, q := range ds.Quarantined {
			if i == 10 {
				fmt.Printf("  ... and %d more\n", n-10)
				break
			}
			fmt.Printf("  %s: %s\n", q.Path, q.Reason)
		}
	}
	fmt.Printf("wrote %s (%.1f MB) in %v\n", *out, float64(info.Size())/1e6, saveTime.Round(time.Millisecond))
	if *shards > 1 {
		start = time.Now()
		sdb, err := shard.Split(ds.Engine().DB(), *shards)
		if err != nil {
			log.Fatal(err)
		}
		dir := *out + ".shards"
		if err := os.RemoveAll(dir); err != nil {
			log.Fatal(err)
		}
		if _, err := shard.CreateLog(dir, sdb); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d-shard layout (directory %s) in %v\n",
			sdb.K(), dir, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println()
	fmt.Print(report.TableII(ds.Report()))
}
