package main

import (
	"fmt"
	"runtime"
	"time"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// The two named worlds. The run seed is XOR-ed into the preset's seed, so
// seed 0 reproduces the presets and every other seed is a different corpus
// of the same shape. Worlds are always built fresh: nothing is reused from
// disk between runs, so setup_s is comparable across runs and commits.
const (
	worldStandard = "W-standard" // gen.Standard(): ~4.5 M articles
	worldBench    = "W-bench"    // gen.Bench(): ~440 k articles
)

// worldShards is K for every pre-split world.
const worldShards = 4

// presets maps world names to generator configurations. The smoke test
// swaps in gen.Small() for both.
var presets = map[string]func() gen.Config{
	worldStandard: gen.Standard,
	worldBench:    gen.Bench,
}

func worldConfig(name string, seed int64) gen.Config {
	cfg := presets[name]()
	cfg.Seed ^= seed
	return cfg
}

// world is the monolithic store built from a generated corpus (the
// verification oracle, and the K=1 side of the layer probes) and its
// K-shard split. The corpus itself is dropped once the store is built.
type world struct {
	cfg      gen.Config
	articles int
	mono     *store.DB
	sdb      *shard.DB
}

// layerSeconds collects the wall time of named set-up steps.
type layerSeconds map[string]float64

func (l layerSeconds) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	l[name] += time.Since(t0).Seconds()
	return err
}

// buildWorld generates, builds and splits a world, timing each layer.
func buildWorld(name string, seed int64, steps layerSeconds) (*world, error) {
	w := &world{cfg: worldConfig(name, seed)}
	var corpus *gen.Corpus
	err := steps.time("gen.generate_s", func() (err error) {
		corpus, err = gen.Generate(w.cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	w.articles = len(corpus.Mentions)
	err = steps.time("store.build_s", func() error {
		res, err := convert.FromCorpus(corpus)
		if err == nil {
			w.mono = res.DB
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	err = steps.time("shard.split_s", func() (err error) {
		w.sdb, err = shard.Split(w.mono, worldShards)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("splitting %s: %w", name, err)
	}
	return w, nil
}

// setupResult is the outcome of a workload's set-up phase.
type setupResult struct {
	seconds float64      // median over repetitions of one full set-up
	steps   layerSeconds // median over repetitions, per step
	heapMB  float64      // HeapAlloc after a forced GC, last repetition live
}

// runSetup runs a workload's set-up reps times and reports the median
// duration (and per-step medians), keeping only the last repetition's
// state alive: discard tears down the state of a repetition that is about
// to be replaced. W-bench workloads repeat so one scheduling hiccup does
// not decide setup_s; W-standard takes ~24 s to build and is built once,
// or the driver's total time cap could not hold.
func runSetup(reps int, setup func(steps layerSeconds) error, discard func()) (setupResult, error) {
	var totals []float64
	perStep := map[string][]float64{}
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard()
		}
		steps := layerSeconds{}
		t0 := time.Now()
		if err := setup(steps); err != nil {
			return setupResult{}, err
		}
		totals = append(totals, time.Since(t0).Seconds())
		for k, v := range steps {
			perStep[k] = append(perStep[k], v)
		}
	}
	res := setupResult{seconds: median(totals), steps: layerSeconds{}}
	for k, v := range perStep {
		res.steps[k] = median(v)
	}
	// Twice: the first cycle runs finalizers and empties sync.Pools, the
	// second frees what they held, so the figure does not depend on where
	// the previous cycle happened to fall.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return res, nil
}
