package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gdeltmine"
	"gdeltmine/internal/baseline"
	"gdeltmine/internal/engine"
	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/serve"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
	"gdeltmine/internal/stream"
)

// live.ingest is the catch-up-after-restart case: writes beside reads.
// Set-up is "bootstrap, then go live" on W-bench: the full corpus goes
// raw TSV -> ConvertRaw -> SaveBinary -> OpenBinary (each step timed, plus
// one raw-rescan country query against the engine for the paper's
// re-parse claim); then a base world is batch-built from the records
// before a cut 720 days from the end, split so the tail starts empty at
// the cut, and persisted as a durable append log. In the window one
// feeder replays the real 15-minute ticks after the cut back to back —
// parse the tick's TSV, Log.Append, one Compactor.RunOnce at production
// thresholds — while one client loops three query kinds through the live
// server's handler. It is the only workload where stream, shard.Log,
// store.AppendChunk and binfmt persist+fsync dominate. The operation is
// one tick; throughput is ticks made queryable per second.

// liveReserveDays of ticks are held back for the feeder: enough that an
// append path 50x faster than today's still has ticks left after a 30 s
// window.
const liveReserveDays = 720

// liveQueryKinds is what the reader loops while the feeder runs.
var liveQueryKinds = []string{"top-publishers", "country", "series-articles"}

// liveVerifyKinds are compared between the final snapshot and a batch
// build of the same rows: the scan panel without its GKG kind (appends do
// not extend GKG) plus the reader's kinds.
var liveVerifyKinds = []string{"country", "follow", "coreport", "delays", "wildfires",
	"series-active-sources", "top-publishers", "series-articles"}

// tick is one 15-minute feed update rendered as the two TSV files a real
// GDELT tick carries.
type tick struct {
	iv       int32
	export   []byte
	mentions []byte
}

type liveEnv struct {
	corpus *gen.Corpus
	dir    string // scratch directory: raw dataset, binary file, log
	lg     *shard.Log
	comp   *stream.Compactor
	srv    *serve.Server
	ticks  []tick
	next   int // first tick not yet fed
	cut    int32
}

func (env *liveEnv) close() {
	if env != nil && env.dir != "" {
		os.RemoveAll(env.dir)
	}
}

// buildTruncated batch-builds the store holding exactly the rows a feed
// has delivered by capture interval end: events first seen before end and
// mentions captured before end. No GKG, as on the append path.
func buildTruncated(c *gen.Corpus, end int32) (*store.DB, error) {
	b, err := store.NewBuilder(gdelt.Timestamp(c.World.Cfg.Start), int32(c.World.Days()*gdelt.IntervalsPerDay))
	if err != nil {
		return nil, err
	}
	for i := range c.Events {
		if c.Events[i].FirstMention < end {
			ev := c.EventRecord(i)
			b.AddEvent(&ev)
		}
	}
	for j := range c.Mentions {
		if c.Mentions[j].Interval < end {
			mn := c.MentionRecord(j)
			b.AddMention(&mn)
		}
	}
	db, _, err := b.Finish()
	return db, err
}

// renderTicks renders every capture interval from cut on as a tick, empty
// ones included: the feed publishes a file pair every 15 minutes whether
// or not anything happened.
func renderTicks(c *gen.Corpus, cut int32) []tick {
	intervals := int32(c.World.Days() * gdelt.IntervalsPerDay)
	ticks := make([]tick, intervals-cut)
	for i := range ticks {
		ticks[i].iv = cut + int32(i)
	}
	var row []byte
	for i := range c.Events {
		if fm := c.Events[i].FirstMention; fm >= cut {
			ev := c.EventRecord(i)
			row = gdelt.AppendEventRow(row[:0], &ev)
			t := &ticks[fm-cut]
			t.export = append(append(t.export, row...), '\n')
		}
	}
	for j := range c.Mentions {
		if iv := c.Mentions[j].Interval; iv >= cut {
			mn := c.MentionRecord(j)
			row = gdelt.AppendMentionRow(row[:0], &mn)
			t := &ticks[iv-cut]
			t.mentions = append(append(t.mentions, row...), '\n')
		}
	}
	return ticks
}

// parseTick is what the live runner does with a fetched tick: split each
// line on tabs and parse the typed record.
func parseTick(t *tick) ([]gdelt.Event, []gdelt.Mention, error) {
	var (
		evs    []gdelt.Event
		mns    []gdelt.Mention
		fields [][]byte
	)
	// rows calls parse with the tab-split fields of each line of data.
	rows := func(data []byte, parse func() error) error {
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(line) == 0 {
				continue
			}
			fields = gdelt.SplitTabs(line, fields[:0])
			if err := parse(); err != nil {
				return err
			}
		}
		return nil
	}
	err := rows(t.export, func() error {
		ev, err := gdelt.ParseEventFields(fields)
		evs = append(evs, ev)
		return err
	})
	if err == nil {
		err = rows(t.mentions, func() error {
			mn, err := gdelt.ParseMentionFields(fields)
			mns = append(mns, mn)
			return err
		})
	}
	return evs, mns, err
}

// liveSetup is one full set-up: bootstrap, base world, durable log,
// rendered ticks.
func liveSetup(o options, steps layerSeconds, layers metrics) (*liveEnv, error) {
	dir, err := os.MkdirTemp(o.outDir, "live-")
	if err != nil {
		return nil, err
	}
	env := &liveEnv{dir: dir}
	ok := false
	defer func() {
		if !ok {
			env.close()
		}
	}()

	err = steps.time("gen.generate_s", func() (err error) {
		env.corpus, err = gen.Generate(worldConfig(worldBench, o.seed))
		return err
	})
	if err != nil {
		return nil, err
	}
	c := env.corpus

	// (a) Bootstrap the way an operator would: raw files, one conversion,
	// one binary save, one load.
	rawDir, binPath := filepath.Join(dir, "raw"), filepath.Join(dir, "world.gdmb")
	if err := steps.time("gen.write_raw_s", func() error { _, err := gen.WriteRaw(c, rawDir); return err }); err != nil {
		return nil, err
	}
	var ds *gdeltmine.Dataset
	if err := steps.time("convert.raw_s", func() (err error) { ds, err = gdeltmine.ConvertRaw(rawDir); return err }); err != nil {
		return nil, err
	}
	if err := steps.time("binfmt.save_s", func() error { return ds.SaveBinary(binPath) }); err != nil {
		return nil, err
	}
	if err := steps.time("binfmt.load_s", func() (err error) { ds, err = gdeltmine.OpenBinary(binPath); return err }); err != nil {
		return nil, err
	}
	fi, err := os.Stat(binPath)
	if err != nil {
		return nil, err
	}
	layers.set("binfmt.bytes_per_row", float64(fi.Size())/float64(ds.Articles()), "B")
	// The paper's re-parse claim: the same country cross-count answered by
	// re-reading the raw TSV versus by the in-memory binary tables.
	rr, err := baseline.NewRawRescan(rawDir)
	if err != nil {
		return nil, err
	}
	if err := steps.time("baseline.rescan_s", func() error { _, err := rr.CrossCountry(); return err }); err != nil {
		return nil, err
	}
	if err := steps.time("engine.country_s", func() error { _, err := queries.CountryQuery(ds.Engine()); return err }); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(rawDir); err != nil {
		return nil, err
	}

	// (b) Go live: base world up to the cut, empty tail from the cut on.
	intervals := int32(c.World.Days() * gdelt.IntervalsPerDay)
	env.cut = intervals - liveReserveDays*gdelt.IntervalsPerDay
	if env.cut < intervals/4 {
		env.cut = intervals / 4 // short test corpora: keep a base world
	}
	var base *store.DB
	if err := steps.time("store.build_s", func() (err error) { base, err = buildTruncated(c, env.cut); return err }); err != nil {
		return nil, err
	}
	var sdb *shard.DB
	err = steps.time("shard.split_s", func() (err error) {
		bounds := []int32{0, env.cut / 3, 2 * env.cut / 3, env.cut, intervals}
		sdb, err = shard.SplitAt(base, bounds)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = steps.time("shard.create_log_s", func() (err error) {
		env.lg, err = shard.CreateLog(filepath.Join(dir, "log"), sdb)
		return err
	})
	if err != nil {
		return nil, err
	}
	env.comp = stream.NewCompactor(env.lg, stream.CompactorConfig{})
	env.srv = serve.NewLive(env.lg, serve.Config{})
	if err := steps.time("bench.render_ticks_s", func() error { env.ticks = renderTicks(c, env.cut); return nil }); err != nil {
		return nil, err
	}
	ok = true
	return env, nil
}

// fedTick is what the feeder measured for one tick, in milliseconds.
type fedTick struct {
	total, parse, append, compact float64
	sealed                        bool
	rows                          int // events + mentions parsed
	mentions                      int
}

// liveWindow is one stretch of feeding with a reader beside it.
type liveWindow struct {
	ticks       []fedTick
	feedSeconds float64
	rawBytes    int64
	logBytes    int64
	tailRowsMax int
	queryMS     []float64
	queryFailed int
	queryErr    error
}

// run feeds ticks back to back for dur (or until they run out) while one
// reader loops liveQueryKinds through handler.
func (env *liveEnv) run(dur time.Duration, handler http.Handler, tr *tracer) (liveWindow, error) {
	var win liveWindow
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			kind := liveQueryKinds[i%len(liveQueryKinds)]
			req := httptest.NewRequest(http.MethodGet, "/api/v1/"+kind, nil)
			var sp *liveSpan
			if tr != nil {
				sp = tr.start(spanRef{}, spanQuery)
				req.Header.Set(spanHeader, sp.ref().header())
			}
			rec := httptest.NewRecorder()
			t0 := time.Now()
			handler.ServeHTTP(rec, req)
			lat := ms(time.Since(t0))
			if sp != nil {
				sp.end()
			}
			if _, err := decodeTree(rec.Body.Bytes()); rec.Code != http.StatusOK || err != nil {
				win.queryFailed++
				if win.queryErr == nil {
					win.queryErr = fmt.Errorf("%s beside the feeder: status %d, decode: %v", kind, rec.Code, err)
				}
				continue
			}
			win.queryMS = append(win.queryMS, lat)
		}
	}()

	seen := map[string]bool{}
	if ents, err := os.ReadDir(env.lg.Dir()); err == nil {
		for _, e := range ents {
			seen[e.Name()] = true
		}
	}
	var feedErr error
	start := time.Now()
	for deadline := start.Add(dur); env.next < len(env.ticks) && time.Now().Before(deadline); env.next++ {
		t := &env.ticks[env.next]
		var root *liveSpan
		span := func(name string) func() {
			if tr == nil {
				return func() {}
			}
			sp := tr.start(root.ref(), name)
			return sp.end
		}
		if tr != nil {
			root = tr.start(spanRef{}, spanTick)
		}
		t0 := time.Now()
		end := span(spanParse)
		evs, mns, err := parseTick(t)
		end()
		t1 := time.Now()
		if err == nil {
			end = span(spanAppend)
			_, err = env.lg.Append(evs, mns)
			end()
		}
		t2 := time.Now()
		var sealed bool
		if err == nil {
			end = span(spanCompact)
			sealed, err = env.comp.RunOnce()
			end()
		}
		t3 := time.Now()
		if root != nil {
			root.end()
		}
		if err != nil {
			feedErr = fmt.Errorf("tick %s: %w", env.corpus.IntervalTimestamp(t.iv), err)
			break
		}
		win.ticks = append(win.ticks, fedTick{
			total: ms(t3.Sub(t0)), parse: ms(t1.Sub(t0)), append: ms(t2.Sub(t1)), compact: ms(t3.Sub(t2)),
			sealed: sealed, rows: len(evs) + len(mns), mentions: len(mns),
		})
		win.rawBytes += int64(len(t.export) + len(t.mentions))
		if n := env.lg.TailRows(); n > win.tailRowsMax {
			win.tailRowsMax = n
		}
		if sealed {
			// Every seal writes fresh generation-stamped part files and
			// rewrites the manifest.
			ents, _ := os.ReadDir(env.lg.Dir())
			for _, e := range ents {
				if fi, err := e.Info(); err == nil && (!seen[e.Name()] || e.Name() == shard.LogManifestName) {
					win.logBytes += fi.Size()
					seen[e.Name()] = true
				}
			}
		}
	}
	win.feedSeconds = time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	return win, feedErr
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// verify compares the final snapshot with a batch build of exactly the
// rows fed so far.
func (env *liveEnv) verify() []error {
	end := env.cut + int32(env.next)
	ref, err := buildTruncated(env.corpus, end)
	if err != nil {
		return []error{fmt.Errorf("batch reference: %w", err)}
	}
	snap := env.lg.Snapshot()
	var errs []error
	for _, kind := range liveVerifyKinds {
		d := registry.MustLookup(kind)
		p, err := defaultParams(d)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		want, err := d.Run(engine.New(ref).WithKind(kind), p)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: batch reference: %w", kind, err))
			continue
		}
		got, err := d.RunSharded(snap.View().WithKind(kind), p)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: live snapshot: %w", kind, err))
			continue
		}
		wt, err1 := valueTree(want)
		gt, err2 := valueTree(got)
		if err1 != nil || err2 != nil {
			errs = append(errs, fmt.Errorf("%s: encoding: %v %v", kind, err1, err2))
			continue
		}
		if err := eqTree(kind, wt, gt); err != nil {
			errs = append(errs, fmt.Errorf("%s: streamed world differs from the batch build: %w", kind, err))
		}
	}
	return errs
}

func runLiveIngest(o options) (*row, error) {
	var env *liveEnv
	layers := metrics{}
	setup, err := runSetup(2, func(steps layerSeconds) (err error) {
		env, err = liveSetup(o, steps, layers)
		return err
	}, func() { env.close(); env = nil })
	if err != nil {
		return nil, err
	}
	defer env.close()
	r := newRow("live.ingest", o, worldBench, len(env.corpus.Mentions), 1)
	r.setupMetrics(setup)

	if _, err := env.run(o.warmup(), env.srv, nil); err != nil {
		return nil, err
	}
	before := obs.Default.Snapshot()
	win, err := env.run(o.window(), env.srv, nil)
	if err != nil {
		return nil, err
	}
	after := obs.Default.Snapshot()

	var tickMS []float64
	mentions, seals := 0, 0
	for _, t := range win.ticks {
		tickMS = append(tickMS, t.total)
		mentions += t.mentions
		if t.sealed {
			seals++
		}
	}
	t := summarize(tickMS)
	// Gated throughput is ticks per second: what a tick costs today does not
	// depend on how many rows it carries, while rows per tick over a
	// ~500-tick stretch differ by +-10% from one seed's corpus to the next,
	// so rows/s would carry that input variance into the gate.
	r.opMetrics("tick", t, float64(len(win.ticks))/win.feedSeconds, "ticks_per_s")
	r.Info.set("ingest_rows_per_s", float64(mentions)/win.feedSeconds, "1/s")
	q := summarize(win.queryMS)
	r.Info.set("query_p50_ms", q.P50, "ms")
	r.Info.set("query_p90_ms", q.P90, "ms")
	r.Info.set("query_p99_ms", q.P99, "ms")
	r.Info.set("query_max_ms", q.Max, "ms")
	r.Info.set("queries", float64(q.N), "count")
	r.Info.set("ticks_fed", float64(len(win.ticks)), "count")
	r.Info.set("seals", float64(seals), "count")
	r.Attempted = len(win.ticks) + len(win.queryMS) + win.queryFailed
	r.fail(win.queryFailed, win.queryErr)
	for _, err := range env.verify() {
		r.fail(1, err)
	}
	if !o.trace {
		return r, nil
	}

	tr := newTracer()
	restore := tr.wrapRegistry()
	traced, err := env.run(o.traced(), tr.handler(spanServe, env.srv), tr)
	restore()
	if err != nil {
		return nil, err
	}
	b, err := r.traceBudget(o, tr)
	if err != nil {
		return nil, err
	}
	var tracedMS []float64
	for _, t := range traced.ticks {
		tracedMS = append(tracedMS, t.total)
	}
	r.perLayer(setup.steps, b, 0, overheadPct(t.P50, median(tracedMS)))

	r.Layers = layers
	counterDeltas(layers, before, after)
	for name, v := range setup.steps {
		layers.set(name, v, "s")
	}
	if s := setup.steps["convert.raw_s"]; s > 0 {
		layers.set("convert.rows_per_s", float64(len(env.corpus.Mentions))/s, "1/s")
	}
	if e := setup.steps["engine.country_s"]; e > 0 {
		layers.set("baseline.rescan_ratio", setup.steps["baseline.rescan_s"]/e, "ratio")
	}
	var parseMS, appendMS, sealMS []float64
	rows := 0
	for _, t := range win.ticks {
		parseMS = append(parseMS, t.parse)
		appendMS = append(appendMS, t.append)
		rows += t.rows
		if t.sealed {
			sealMS = append(sealMS, t.compact)
		}
	}
	if rows > 0 {
		total := 0.0
		for _, p := range parseMS {
			total += p
		}
		layers.set("stream.parse_us_per_row", 1e3*total/float64(rows), "us")
	}
	layers.set("shard.append_ms", median(appendMS), "ms")
	layers.set("shard.seal_ms", median(sealMS), "ms")
	layers.set("shard.parts_final", float64(env.lg.Snapshot().K()), "count")
	layers.set("shard.tail_rows_max", float64(win.tailRowsMax), "count")
	if win.rawBytes > 0 {
		layers.set("shard.write_amp", float64(win.logBytes)/float64(win.rawBytes), "ratio")
	}
	return r, nil
}
