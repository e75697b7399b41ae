package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"

	"gdeltmine/internal/obs"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/router"
	"gdeltmine/internal/serve"
)

// route.hot is the dashboard case: many small repeated questions through
// the whole serving stack. Two keep-alive HTTP clients draw Zipf(1.1)
// from a 64-entry full-archive catalogue covering every registered kind,
// through an in-process router (production defaults: one group, two
// replicas, hedging off) to two sharded replicas over loopback. The
// default result cache holds the whole catalogue and warm-up touches
// every entry, so kernels do ~nothing: router hop, serve parse/encode,
// registry canonicalisation and qcache lookup are all there is. A kernel
// change must show no change here.

const (
	hotCatalogueSize = 64
	hotZipfS         = 1.1
)

// Filter expressions and ad-hoc specs for catalogue variants. They only
// need to be valid and distinct; every answer is served from cache.
var (
	hotWheres = []string{"", "delay>4", "sourcecountry=US and tone<0", "quarter>=2017Q1 and doclen>2000"}
	hotAdhoc  = [][3]string{ // where, group, agg
		{"", "quarter", "count"},
		{"delay>2", "sourcecountry", "count"},
		{"sourcecountry=US", "quarter", "mean:tone"},
		{"tone<0", "eventcountry", "count"},
		{"confidence>=50", "source", "sum:doclen"},
		{"quarter>=2018Q1", "sourcecountry", "mean:delay"},
		{"eventcountry=US and delay>8", "quarter", "count"},
		{"doclen>3000", "", "count"},
		{"articles>10", "quarter", "mean:doclen"},
	}
)

// variants lists the parameter sets the catalogue uses for one kind,
// derived from the kind's schema so a newly registered kind is covered
// without editing the benchmark.
func variants(d *registry.Descriptor, themes []string) []url.Values {
	has := func(name string) bool {
		for _, p := range d.Params {
			if p.Name == name {
				return true
			}
		}
		return false
	}
	var out []url.Values
	switch {
	case has("group"):
		for _, a := range hotAdhoc {
			out = append(out, url.Values{"where": {a[0]}, "group": {a[1]}, "agg": {a[2]}})
		}
	case has("theme"):
		for _, t := range themes {
			out = append(out, url.Values{"theme": {t}})
		}
	case has("where"):
		for _, w := range hotWheres {
			out = append(out, url.Values{"where": {w}})
		}
	case has("window"):
		for _, w := range []int{4, 8, 16} {
			out = append(out, url.Values{"window": {strconv.Itoa(w)}})
		}
	case has("k"):
		for _, k := range []int{5, 10, 15, 20} {
			out = append(out, url.Values{"k": {strconv.Itoa(k)}})
		}
	default:
		out = append(out, url.Values{})
	}
	return out
}

// hotCatalogue interleaves the kinds' variants (first variant of every
// kind, then second, ...) up to hotCatalogueSize entries.
func hotCatalogue(w *world) []entry {
	var themes []string
	if th := w.sdb.Themes(); th != nil {
		for i := 0; i < 3 && i < th.Len(); i++ {
			themes = append(themes, th.Name(int32(i)))
		}
	}
	all := registry.All()
	perKind := make([][]url.Values, len(all))
	for i, d := range all {
		perKind[i] = variants(d, themes)
	}
	var cat []entry
	for round := 0; len(cat) < hotCatalogueSize; round++ {
		added := false
		for i, d := range all {
			if round < len(perKind[i]) && len(cat) < hotCatalogueSize {
				cat = append(cat, newEntry(d.Kind, perKind[i][round]))
				added = true
			}
		}
		if !added {
			break
		}
	}
	return cat
}

// fleet is a router in front of two replicas, each behind its own
// loopback listener.
type fleet struct {
	servers  []*serve.Server
	replicas []*httptest.Server
	rt       *router.Router
	front    *httptest.Server
}

// newFleet stands up listeners for the given replica servers and a router
// over them. wrap, when non-nil, decorates each layer's handler (the
// traced pass wraps them in spans); tp overrides the router's upstream
// transport.
func newFleet(servers []*serve.Server, wrap func(name string, h http.Handler) http.Handler, tp http.RoundTripper) (*fleet, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	f := &fleet{servers: servers}
	var reps []router.Replica
	for i, srv := range servers {
		ts := httptest.NewServer(wrap(spanServe, srv))
		f.replicas = append(f.replicas, ts)
		reps = append(reps, router.Replica{ID: fmt.Sprintf("r%d", i), URL: ts.URL})
	}
	rt, err := router.New(router.Config{Replicas: reps, Shards: worldShards, Transport: tp})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt = rt
	f.front = httptest.NewServer(wrap(spanRouter, rt))
	return f, nil
}

func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, ts := range f.replicas {
		ts.Close()
	}
}

type hotEnv struct {
	w   *world
	cat []entry
	f   *fleet
}

func (env *hotEnv) close() {
	if env != nil && env.f != nil {
		env.f.close()
	}
}

func runRouteHot(o options) (*row, error) {
	var env *hotEnv
	setup, err := runSetup(3, func(steps layerSeconds) error {
		w, err := buildWorld(worldBench, o.seed, steps)
		if err != nil {
			return err
		}
		servers := []*serve.Server{serve.NewSharded(w.sdb, serve.Config{}), serve.NewSharded(w.sdb, serve.Config{})}
		f, err := newFleet(servers, nil, nil)
		if err != nil {
			return err
		}
		env = &hotEnv{w: w, cat: hotCatalogue(w), f: f}
		return nil
	}, func() { env.close(); env = nil })
	if err != nil {
		return nil, err
	}
	defer env.close()
	r := newRow("route.hot", o, worldBench, env.w.articles, loadClients)
	r.setupMetrics(setup)

	// Warm-up touches every entry once through the router (so the replica
	// its affinity picks holds it), then runs the real mix.
	for _, e := range env.cat {
		if err := get(http.DefaultClient, env.f.front.URL+e.path); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	z := newZipf(len(env.cat), hotZipfS)
	runLoad(env.f.front.URL, env.cat, z, o.seed, o.warmup(), nil)

	before := obs.Default.Snapshot()
	res := runLoad(env.f.front.URL, env.cat, z, o.seed+1, o.window(), nil)
	after := obs.Default.Snapshot()

	t := summarize(res.latMS)
	r.opMetrics("query", t, float64(len(res.latMS))/res.elapsed, "throughput_qps")
	r.Attempted = res.attempted
	r.fail(res.failed, res.firstErr)
	for _, err := range verifyBodies(env.w.mono, env.cat, res.bodies, nil) {
		r.fail(1, err)
	}
	if !o.trace {
		return r, nil
	}

	tr := newTracer()
	tf, err := newFleet(env.f.servers, tr.handler, transport{tr, http.DefaultTransport})
	if err != nil {
		return nil, err
	}
	restore := tr.wrapRegistry()
	traced := runLoad(tf.front.URL, env.cat, z, o.seed+2, o.traced(), tr)
	restore()
	tf.close()
	b, err := r.traceBudget(o, tr)
	if err != nil {
		return nil, err
	}
	r.perLayer(setup.steps, b, res.hitRatio(), overheadPct(t.P50, median(traced.latMS)))
	r.Layers = metrics{}
	counterDeltas(r.Layers, before, after)
	return r, servingProbes(r.Layers, env)
}

// servingProbes splits a cached request into its layers by timing each
// layer's public entry point alone, on the hottest catalogue entry:
// registry.parse_us (ParseURLValues + DeriveView), qcache.hit_us
// (ExecuteSharded on a warm key), serve.handler_us (Server.ServeHTTP into
// a recorder, hit), serve.http_us (loopback round trip minus the handler)
// and router.hop_us (routed minus direct, interleaved so drift cancels).
func servingProbes(m metrics, env *hotEnv) error {
	e := env.cat[popularity(len(env.cat))[0]]
	d := registry.MustLookup(e.kind)
	getParam := func(name string) []string { return e.query[name] }
	view := env.w.sdb.View().WithKind(e.kind)

	const calls = 2000
	us, err := meanOf(calls, func() error {
		if _, err := d.ParseURLValues(e.query); err != nil {
			return err
		}
		_, err := registry.DeriveView(view, getParam)
		return err
	})
	if err != nil {
		return err
	}
	m.set("registry.parse_us", us, "us")

	p, err := d.ParseURLValues(e.query)
	if err != nil {
		return err
	}
	x := &registry.Executor{Cache: qcache.New(0)}
	hit := func() error { _, _, err := x.ExecuteSharded(d, view, p); return err }
	if err := hit(); err != nil {
		return err
	}
	if us, err = meanOf(calls, hit); err != nil {
		return err
	}
	m.set("qcache.hit_us", us, "us")

	srv := env.f.servers[0]
	handlerUS, err := meanOf(calls, func() error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, e.path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d", e.path, rec.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("serve.handler_us", handlerUS, "us")

	tp := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	const trips = 500
	var direct, routed []float64
	for i := 0; i < trips; i++ {
		for _, leg := range []struct {
			url string
			dst *[]float64
		}{{env.f.replicas[0].URL, &direct}, {env.f.front.URL, &routed}} {
			ms, err := medianOf(1, func() error { return get(client, leg.url+e.path) })
			if err != nil {
				return err
			}
			*leg.dst = append(*leg.dst, ms*1e3)
		}
	}
	m.set("serve.http_us", median(direct)-handlerUS, "us")
	m.set("router.hop_us", median(routed)-median(direct), "us")
	return nil
}
