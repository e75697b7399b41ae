package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gdeltmine/internal/obs"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// scan.cold is the paper's own case: one analyst, one heavy query at a
// time, all cores. A single closed-loop caller cycles a fixed panel of
// eight full-archive kinds through an uncached registry.Executor over
// W-standard split K=4, with workers = nproc. engine kernels, shard
// fan-out/merge and the parallel pool do all the work; qcache, serve and
// router do none. The operation is one pass over the panel: a per-query
// median over a fixed mix would ignore the heavy kinds, the pass time
// weights each kind by its cost.

var scanPanel = []string{"country", "follow", "coreport", "delays", "wildfires",
	"themes", "series-active-sources", "top-publishers"}

type scanEnv struct {
	w      *world
	kinds  []*registry.Descriptor
	params []registry.Params
}

func newScanEnv(w *world) (*scanEnv, error) {
	env := &scanEnv{w: w}
	for _, kind := range scanPanel {
		d := registry.MustLookup(kind)
		p, err := defaultParams(d)
		if err != nil {
			return nil, fmt.Errorf("%s: default params: %w", kind, err)
		}
		env.kinds = append(env.kinds, d)
		env.params = append(env.params, p)
	}
	return env, nil
}

// pass runs the panel once and returns its wall time in ms, the results
// in panel order, and the number of queries that returned an error.
func (env *scanEnv) pass(x *registry.Executor, view *shard.View, tr *tracer) (float64, []any, int) {
	results := make([]any, len(env.kinds))
	failed := 0
	ctx := context.Background()
	var root *liveSpan
	if tr != nil {
		root = tr.start(spanRef{}, spanPass)
	}
	t0 := time.Now()
	for i, d := range env.kinds {
		v := view.WithKind(d.Kind)
		var sp *liveSpan
		if tr != nil {
			sp = tr.start(root.ref(), spanExecute)
			v = v.WithContext(withSpan(ctx, sp.ref()))
		}
		res, _, err := x.ExecuteSharded(d, v, env.params[i])
		if sp != nil {
			sp.end()
		}
		if err != nil {
			failed++
			continue
		}
		results[i] = res
	}
	ms := float64(time.Since(t0)) / 1e6
	if root != nil {
		root.end()
	}
	return ms, results, failed
}

// passes repeats pass for dur and returns the pass times, the last pass's
// results and the failure count.
func (env *scanEnv) passes(x *registry.Executor, view *shard.View, dur time.Duration, tr *tracer) ([]float64, []any, int, float64) {
	var (
		times  []float64
		last   []any
		failed int
	)
	start := time.Now()
	for deadline := start.Add(dur); len(times) == 0 || time.Now().Before(deadline); {
		ms, res, f := env.pass(x, view, tr)
		times = append(times, ms)
		last, failed = res, failed+f
	}
	return times, last, failed, time.Since(start).Seconds()
}

// verify compares one pass's results with the monolith oracle.
func (env *scanEnv) verify(results []any) []error {
	var errs []error
	for i, d := range env.kinds {
		if results[i] == nil {
			continue // already counted as a failed query
		}
		got, err := valueTree(results[i])
		if err == nil {
			var want any
			if want, err = reference(env.w.mono, d.Kind, nil); err == nil {
				err = eqTree(d.Kind, want, got)
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", d.Kind, err))
		}
	}
	return errs
}

func runScanCold(o options) (*row, error) {
	var env *scanEnv
	setup, err := runSetup(1, func(steps layerSeconds) error {
		w, err := buildWorld(worldStandard, o.seed, steps)
		if err != nil {
			return err
		}
		env, err = newScanEnv(w)
		return err
	}, func() { env = nil })
	if err != nil {
		return nil, err
	}
	r := newRow("scan.cold", o, worldStandard, env.w.articles, 1)
	r.setupMetrics(setup)

	nproc := runtime.NumCPU()
	x := &registry.Executor{}
	view := env.w.sdb.View().WithWorkers(nproc)
	env.passes(x, view, o.warmup(), nil)

	before := obs.Default.Snapshot()
	times, last, failed, elapsed := env.passes(x, view, o.window(), nil)
	after := obs.Default.Snapshot()

	t := summarize(times)
	r.opMetrics("panel_pass", t, float64(len(times))/elapsed, "panel_pass_per_s")
	r.Attempted = len(times) * len(env.kinds)
	r.fail(failed, nil)
	for _, err := range env.verify(last) {
		r.fail(1, err)
	}
	if !o.trace {
		return r, nil
	}

	tr := newTracer()
	restore := tr.wrapRegistry()
	traced, _, _, _ := env.passes(x, view, o.traced(), tr)
	restore()
	b, err := r.traceBudget(o, tr)
	if err != nil {
		return nil, err
	}
	r.perLayer(setup.steps, b, 0, overheadPct(t.P50, median(traced)))
	r.Layers = metrics{}
	counterDeltas(r.Layers, before, after)
	if err := kernelProbes(r.Layers, env.w, scanPanel, nproc); err != nil {
		return nil, err
	}
	return r, nil
}
