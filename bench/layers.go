package main

import (
	"fmt"
	"path/filepath"
	"time"

	"gdeltmine/internal/obs"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// Span names. A root span names the operation; the others name the layer
// whose public function the span wraps.
const (
	spanPass     = "panel.pass"       // root: one pass over the scan panel
	spanExecute  = "registry.execute" // registry.Executor.ExecuteSharded, called directly
	spanShardRun = "shard.run"        // Descriptor.RunSharded: fan-out, kernels, merge
	spanRequest  = "client.request"   // root: one HTTP request, send to last body byte
	spanRouter   = "router.serve"     // router.Router.ServeHTTP
	spanUpstream = "router.upstream"  // the router's HTTP hop to a replica
	spanServe    = "serve.handler"    // serve.Server.ServeHTTP
	spanTick     = "tick"             // root: one feed tick
	spanParse    = "gdelt.parse"      // SplitTabs + Parse*Fields over a tick's TSV
	spanAppend   = "log.append"       // shard.Log.Append
	spanCompact  = "compactor.run"    // stream.Compactor.RunOnce
	spanQuery    = "client.query"     // root: one in-process query beside the feeder
)

// traceBudget ends a traced pass: it boils the spans down to a budget and
// writes the trace file the row then points at.
func (r *row) traceBudget(o options, tr *tracer) (layerBudget, error) {
	b := tr.budget()
	r.TraceFile = filepath.Join(o.outDir, r.Workload+".trace.json")
	return b, tr.write(r.TraceFile, r.Workload, o.seed, b)
}

// overheadPct is how much slower the traced pass's median operation was
// than the untraced window's.
func overheadPct(untracedP50, tracedP50 float64) float64 {
	if untracedP50 == 0 {
		return 0
	}
	return 100 * (tracedP50 - untracedP50) / untracedP50
}

// shareOf is the self time of the named spans as a percentage of the wall
// time of the root operations they occurred in ("each layer's share of
// the op it belongs to").
func (b layerBudget) shareOf(names ...string) float64 {
	var self, total int64
	for _, ob := range b.Ops {
		hit := false
		for _, n := range names {
			if ns, ok := ob.SelfNS[n]; ok {
				self += ns
				hit = true
			}
		}
		if hit {
			total += ob.TotalNS
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(self) / float64(total)
}

// perLayer fills the per-layer metrics BENCHMARK.json lists. Every
// workload reports every one of them; a layer the workload does not touch
// reads 0, which is itself the prediction ("qcache, serve and router do
// none of the work on scan.cold").
func (r *row) perLayer(steps layerSeconds, b layerBudget, hitRatio, overhead float64) {
	m := metrics{}
	for _, name := range []string{"gen.generate_s", "store.build_s", "shard.split_s"} {
		m.set(name, steps[name], "s")
	}
	m.set("self.shard_run_pct", b.shareOf(spanShardRun), "%")
	m.set("self.registry_pct", b.shareOf(spanExecute), "%")
	m.set("self.serve_pct", b.shareOf(spanServe), "%")
	m.set("self.router_pct", b.shareOf(spanRouter, spanUpstream), "%")
	m.set("self.client_http_pct", b.shareOf(spanRequest), "%")
	m.set("self.parse_pct", b.shareOf(spanParse), "%")
	m.set("self.append_pct", b.shareOf(spanAppend), "%")
	m.set("self.compact_pct", b.shareOf(spanCompact), "%")
	m.set("qcache.hit_ratio", hitRatio, "ratio")
	m.set("trace.overhead_pct", overhead, "%")
	r.PerLayer = m
}

// counterDeltas reports what the program's own obs counters did over the
// untraced window. Labelled families are summed, except the planner's
// path label, which is the point of that counter.
func counterDeltas(m metrics, before, after obs.Snapshot) {
	sum := func(s obs.Snapshot, name, labelKey, labelVal string) float64 {
		total := 0.0
		for _, ms := range s.Metrics {
			if ms.Name == name && (labelKey == "" || ms.Labels[labelKey] == labelVal) {
				total += ms.Value
			}
		}
		return total
	}
	delta := func(out, name, labelKey, labelVal string) {
		m.set(out, sum(after, name, labelKey, labelVal)-sum(before, name, labelKey, labelVal), "count")
	}
	delta("obs.scan_rows_pruned_total", "scan_rows_pruned_total", "", "")
	for _, path := range []string{"rows", "events", "scan"} {
		delta("obs.planner_choice_total."+path, "planner_choice_total", "path", path)
	}
	for _, path := range []string{"pushdown", "range", "scan"} {
		delta("obs.qlang_plan_total."+path, "qlang_plan_total", "path", path)
	}
	delta("obs.parallel_pool_steals_total", "parallel_pool_steals_total", "", "")
	delta("obs.parallel_pool_parks_total", "parallel_pool_parks_total", "", "")
	delta("obs.qcache_hits_total", "qcache_hits_total", "", "")
	delta("obs.qcache_misses_total", "qcache_misses_total", "", "")
	delta("obs.qcache_evictions_total", "qcache_evictions_total", "", "")
	delta("obs.stream_compactor_seals_total", "stream_compactor_seals_total", "", "")
}

// medianOf times fn reps times and returns the median in milliseconds.
func medianOf(reps int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// meanOf runs fn n times back to back and returns the mean in
// microseconds — for calls too short to time one at a time.
func meanOf(n int, fn func() error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / 1e3 / float64(n), nil
}

// kernelProbes times the engine and fan-out layers one kind at a time, on
// the workload's own world: engine.kernel_ms is the kind on a K=1 view
// with one worker (no fan-out, no pool), shard.fanout_ratio is K=4 ÷ K=1
// at one worker (what splitting costs before any parallelism pays), and
// parallel.speedup.country is Figure 12 — the aggregated country query at
// 1..nproc workers, never beyond the cores the host has.
func kernelProbes(m metrics, w *world, kinds []string, nproc int) error {
	k1, err := shard.Split(w.mono, 1)
	if err != nil {
		return err
	}
	const reps = 3
	run := func(v *shard.View, kind string) (float64, error) {
		d := registry.MustLookup(kind)
		p, err := defaultParams(d)
		if err != nil {
			return 0, err
		}
		return medianOf(reps, func() error {
			_, err := d.RunSharded(v.WithKind(kind), p)
			return err
		})
	}
	for _, kind := range kinds {
		one, err := run(k1.View().WithWorkers(1), kind)
		if err != nil {
			return fmt.Errorf("kernel probe %s: %w", kind, err)
		}
		split, err := run(w.sdb.View().WithWorkers(1), kind)
		if err != nil {
			return fmt.Errorf("fan-out probe %s: %w", kind, err)
		}
		m.set("engine.kernel_ms."+kind, one, "ms")
		if one > 0 {
			m.set("shard.fanout_ratio."+kind, split/one, "ratio")
		}
	}
	var base float64
	for workers := 1; workers <= nproc; workers++ {
		ms, err := run(w.sdb.View().WithWorkers(workers), "country")
		if err != nil {
			return fmt.Errorf("scaling probe: %w", err)
		}
		if workers == 1 {
			base = ms
		}
		if ms > 0 {
			m.set(fmt.Sprintf("parallel.speedup.country.w%d", workers), base/ms, "ratio")
		}
	}
	return nil
}

// kindLatencies reports the median miss latency of each kind seen in a
// load window as <prefix>.<kind>.
func kindLatencies(m metrics, prefix string, byKind map[string][]float64) {
	for kind, ms := range byKind {
		m.set(prefix+"."+kind, median(ms), "ms")
	}
}
