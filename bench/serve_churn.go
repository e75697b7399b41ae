package main

import (
	"fmt"
	"net/http/httptest"
	"net/url"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/qlang"
	"gdeltmine/internal/serve"
)

// serve.churn is the exploring-analyst case: a wide, flat working set of
// windowed and filtered questions that does not fit the result cache. Two
// keep-alive HTTP clients go straight to one sharded server (no router)
// over W-standard and draw Zipf(0.8) from ~800 distinct keys — eleven
// query shapes times every quarter-aligned window of one to four
// quarters — against a cache sized at under a quarter of the catalogue's
// result bytes. It uses the layers route.hot and scan.cold use, but
// differently: qcache is insert/evict-heavy instead of read-only, and the
// engine runs windowed, selective plans (qlang parse+plan, bitmap
// pushdown, shard window pruning) instead of full scans. A hot-lookup gain
// that costs inserts, or a full-scan gain that costs selective plans,
// shows here.

const churnZipfS = 0.8

// churnCacheBytes is the server's result-cache budget: a little under a
// quarter of the ~1.0 MB the catalogue's results occupy on W-standard
// (Approx cost plus per-entry overhead; qcache.catalogue_bytes_seen in the
// traced report re-measures it), which puts the hit ratio at 0.55-0.59.
// The issue asked for an eighth; there the hit ratio is 0.45 and the
// median request sits on the cliff between a 0.1 ms hit and a
// multi-millisecond miss, so op_p50_ms moved 20% between identical runs.
// At this size the median is a hit, the p90 a miss, and the cache still
// inserts and evicts on four requests in ten. Calibrated once and fixed,
// so a change to result sizes or eviction shows as a hit-ratio change
// rather than being tuned away.
const churnCacheBytes = 230 << 10

// churnShapes are the query shapes crossed with the windows: three plain
// full-scan kinds, two filtered kinds, and six ad-hoc queries whose where
// clauses are three selective (a small publisher or event country the
// bitmap postings answer) and three broad (a head country or an unindexed
// comparison that degrades towards a scan).
var churnShapes = []struct {
	kind string
	q    url.Values
}{
	{"country", nil},
	{"top-publishers", nil},
	{"series-articles", nil},
	{"filtered-publishers", url.Values{"where": {"sourcecountry=NZ and delay>2"}}},
	{"count", url.Values{"where": {"sourcecountry=US and tone<0"}}},
	{"query", url.Values{"where": {"sourcecountry=NZ and delay>2"}, "group": {"quarter"}, "agg": {"count"}}},
	{"query", url.Values{"where": {"eventcountry=JA and tone<0"}, "group": {"sourcecountry"}, "agg": {"mean:delay"}}},
	{"query", url.Values{"where": {"sourcecountry=KE and doclen>1000"}, "group": {"source"}, "agg": {"sum:doclen"}}},
	{"query", url.Values{"where": {"sourcecountry=US and delay>2"}, "group": {"quarter"}, "agg": {"mean:tone"}}},
	{"query", url.Values{"where": {"sourcecountry=UK and tone<0"}, "group": {"source"}, "agg": {"count"}}},
	{"query", url.Values{"where": {"delay>1 and confidence>=20"}, "group": {"eventcountry"}, "agg": {"count"}}},
}

// quarterStart is the timestamp of the first instant of the q-th quarter
// counted from the quarter holding the archive start.
func quarterStart(cfg gen.Config, q int) gdelt.Timestamp {
	abs := cfg.Start.Year()*4 + (cfg.Start.Month()-1)/3 + q
	return gdelt.MakeTimestamp(abs/4, 1+3*(abs%4), 1, 0, 0, 0)
}

// churnCatalogue crosses the shapes with every quarter-aligned window of
// one to four quarters.
func churnCatalogue(cfg gen.Config) []entry {
	var cat []entry
	nq := cfg.Quarters()
	for length := 1; length <= 4; length++ {
		for q0 := 0; q0+length <= nq; q0++ {
			from, to := quarterStart(cfg, q0).String(), quarterStart(cfg, q0+length).String()
			for _, s := range churnShapes {
				q := url.Values{"from": {from}, "to": {to}}
				for k, v := range s.q {
					q[k] = v
				}
				cat = append(cat, newEntry(s.kind, q))
			}
		}
	}
	return cat
}

type churnEnv struct {
	w   *world
	cat []entry
	srv *serve.Server
	ts  *httptest.Server
}

func (env *churnEnv) close() {
	if env != nil && env.ts != nil {
		env.ts.Close()
	}
}

func runServeChurn(o options) (*row, error) {
	var env *churnEnv
	setup, err := runSetup(1, func(steps layerSeconds) error {
		w, err := buildWorld(worldStandard, o.seed, steps)
		if err != nil {
			return err
		}
		srv := serve.NewSharded(w.sdb, serve.Config{CacheBytes: churnCacheBytes})
		env = &churnEnv{w: w, cat: churnCatalogue(w.cfg), srv: srv, ts: httptest.NewServer(srv)}
		return nil
	}, func() { env.close(); env = nil })
	if err != nil {
		return nil, err
	}
	defer env.close()
	r := newRow("serve.churn", o, worldStandard, env.w.articles, loadClients)
	r.setupMetrics(setup)

	z := newZipf(len(env.cat), churnZipfS)
	runLoad(env.ts.URL, env.cat, z, o.seed, o.warmup(), nil)

	before := obs.Default.Snapshot()
	res := runLoad(env.ts.URL, env.cat, z, o.seed+1, o.window(), nil)
	after := obs.Default.Snapshot()

	t := summarize(res.latMS)
	r.opMetrics("query", t, float64(len(res.latMS))/res.elapsed, "throughput_qps")
	r.Attempted = res.attempted
	r.fail(res.failed, res.firstErr)
	hitRatio := res.hitRatio()
	r.Info.set("qcache.hit_ratio", hitRatio, "ratio")
	var seenBytes int64
	for _, err := range verifyBodies(env.w.mono, env.cat, res.bodies, func(v any) {
		seenBytes += qcache.Approx(v) + 256 // qcache's per-entry overhead
	}) {
		r.fail(1, err)
	}
	if !o.trace {
		return r, nil
	}

	tr := newTracer()
	ts := httptest.NewServer(tr.handler(spanServe, env.srv))
	restore := tr.wrapRegistry()
	traced := runLoad(ts.URL, env.cat, z, o.seed+2, o.traced(), tr)
	restore()
	ts.Close()
	b, err := r.traceBudget(o, tr)
	if err != nil {
		return nil, err
	}
	r.perLayer(setup.steps, b, hitRatio, overheadPct(t.P50, median(traced.latMS)))

	m := metrics{}
	r.Layers = m
	counterDeltas(m, before, after)
	m.set("qcache.evictions", m["obs.qcache_evictions_total"].Value, "count")
	m.set("qcache.miss_ms", median(res.missMS), "ms")
	m.set("qcache.catalogue_entries", float64(len(env.cat)), "count")
	m.set("qcache.catalogue_entries_seen", float64(len(res.bodies)), "count")
	m.set("qcache.catalogue_bytes_seen", float64(seenBytes), "B")
	m.set("qcache.budget_bytes", churnCacheBytes, "B")
	kindLatencies(m, "engine.window_ms", res.missKind)

	part := env.w.sdb.Part(0)
	var compile []float64
	for _, s := range churnShapes {
		where := s.q.Get("where")
		if where == "" {
			continue
		}
		us, err := meanOf(500, func() error { _, err := qlang.Compile(part, where); return err })
		if err != nil {
			return nil, fmt.Errorf("qlang.Compile(%q): %w", where, err)
		}
		compile = append(compile, us)
	}
	m.set("qlang.compile_us", median(compile), "us")
	return r, nil
}
