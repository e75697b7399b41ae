// Command gdeltgen generates a synthetic GDELT 2.0 raw dataset: per-chunk
// Events and Mentions files in the real tab-separated format plus a master
// file list, with the paper's Table II defect classes injected.
//
// Usage:
//
//	gdeltgen -out ./dataset [-preset small|bench|standard] [-seed N]
//	         [-sources N] [-events-per-day F]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gdeltmine"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gdeltgen: ")
	var (
		out          = flag.String("out", "", "output dataset directory (required)")
		preset       = flag.String("preset", "small", "corpus preset: small, bench, or standard")
		seed         = flag.Int64("seed", 0, "override the preset's random seed")
		sources      = flag.Int("sources", 0, "override the number of news sources")
		eventsPerDay = flag.Float64("events-per-day", 0, "override the base event arrival rate")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	var cfg gdeltmine.CorpusConfig
	switch *preset {
	case "small":
		cfg = gdeltmine.SmallCorpus()
	case "bench":
		cfg = gdeltmine.BenchCorpus()
	case "standard":
		cfg = gdeltmine.StandardCorpus()
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *sources != 0 {
		cfg.Sources = *sources
	}
	if *eventsPerDay != 0 {
		cfg.EventsPerDay = *eventsPerDay
	}

	start := time.Now()
	corpus, err := gdeltmine.GenerateCorpus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	genTime := time.Since(start)

	start = time.Now()
	res, err := gdeltmine.WriteRawDataset(corpus, *out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d events, %d articles from %d sources in %v\n",
		len(corpus.Events), len(corpus.Mentions), len(corpus.World.Sources), genTime.Round(time.Millisecond))
	fmt.Printf("wrote %d of %d chunk files, %d per tick over %d ticks (%.1f MB), to %s in %v\n",
		res.FilesWritten, res.FilesPerChunk*res.Chunks, res.FilesPerChunk, res.Chunks,
		float64(res.Bytes)/1e6, res.Dir, time.Since(start).Round(time.Millisecond))
	fmt.Printf("injected defects: %d malformed master lines, %d withheld archives\n",
		res.MalformedLines, len(res.MissingFiles))
}
