package baseline

import (
	"fmt"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// kindParams resolves d's defaults, with theme as theme-trends' theme.
func kindParams(t *testing.T, d *registry.Descriptor, theme string) registry.Params {
	t.Helper()
	p, err := d.ParseParams(func(name string) []string {
		if name == "theme" && theme != "" {
			return []string{theme}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRegistryDifferentialCachedVsUncachedWindowed is the windowed K=3
// half of TestRegistryDifferentialCachedVsUncached: every registered kind
// runs over five windows through ONE shared cache, so entries of different
// windows coexist and a key that drops a window component serves another
// window's answer. Uncached at 1 worker, cached-cold and cached-warm at 4,
// and all three must agree. A kind with an Archive half (country) must
// compute it once: the first window misses the archive key and every later
// window hits it, which the process-wide qcache_hits_total counts too.
func TestRegistryDifferentialCachedVsUncachedWindowed(t *testing.T) {
	db := buildCorpus(t, gen.Small())
	sdb := shardWorld(t, db, 3)
	iv := db.Meta.Intervals
	windows := [][2]int32{
		{0, iv / 4},            // first shard only
		{iv / 5, iv - iv/7},    // interior, across shard bounds
		{iv / 3, iv/3 + iv/11}, // narrow
		{iv - iv/13, iv},       // tail-only
		{0, iv},                // full
	}
	theme := themeParam(t, db)
	cached := &registry.Executor{Cache: qcache.New(0)}
	var uncached *registry.Executor
	hits := obs.Default.Counter("qcache_hits_total", "query results served from the cache")

	for _, d := range registry.All() {
		d := d
		t.Run(d.Kind, func(t *testing.T) {
			if d.NeedsGKG && db.GKG == nil {
				t.Skip("dataset has no GKG")
			}
			p := kindParams(t, d, theme)
			// Count the cached path's archive computations on a copy; the
			// copy's derived RunSharded still calls the registered Archive.
			archives := 0
			if d.Archive != nil {
				counted, archive := *d, d.Archive
				counted.Archive = func(v *shard.View) any {
					archives++
					return archive(v)
				}
				d = &counted
			}
			hitsBefore := hits.Value()
			for _, win := range windows {
				view := func(workers int) *shard.View {
					return sdb.View().WithWorkers(workers).WithWindow(win[0], win[1]).WithKind(d.Kind)
				}
				name := fmt.Sprintf("%s@%d-%d", d.Kind, win[0], win[1])
				ref, out, err := uncached.ExecuteSharded(d, view(1), p)
				if err != nil || out != qcache.Bypass {
					t.Fatalf("%s: uncached: %v %v", name, out, err)
				}
				cold, out, err := cached.ExecuteSharded(d, view(4), p)
				if err != nil || out != qcache.Miss {
					t.Fatalf("%s: cold: %v %v, want miss", name, out, err)
				}
				warm, out, err := cached.ExecuteSharded(d, view(4), p)
				if err != nil || out != qcache.Hit {
					t.Fatalf("%s: warm: %v %v, want hit", name, out, err)
				}
				refTree := jsonTree(t, ref)
				if err := eqTree(name, refTree, jsonTree(t, cold)); err != nil {
					t.Errorf("cached-cold diverges from uncached: %v", err)
				}
				if err := eqTree(name, refTree, jsonTree(t, warm)); err != nil {
					t.Errorf("cached-warm diverges from uncached: %v", err)
				}
			}
			if d.Archive == nil {
				return
			}
			if archives != 1 {
				t.Errorf("archive half computed %d times over %d windows, want 1", archives, len(windows))
			}
			// One hit per warm run, plus one archive hit per window after
			// the first.
			if got, want := hits.Value()-hitsBefore, int64(2*len(windows)-1); got != want {
				t.Errorf("qcache_hits_total moved by %d, want %d", got, want)
			}
		})
	}
}

// TestRegistryStaleKeyAfterAppend pins that no cached answer outlives the
// data it read. On a K=3 log every kind is cached at a window over the
// first shard alone; then one tick appends, into the tail, a new event
// with three mentions and a mention of an event the first shard holds.
// Asked again, every kind must answer what an uncached run answers. Most
// kinds read event tables, postings or per-event metadata, which the tick
// changed in every part, so their cold-window entries must not be served;
// a window-only kind (series-articles) over the untouched shard must still
// hit, so the fix does not invalidate everything.
func TestRegistryStaleKeyAfterAppend(t *testing.T) {
	db := buildCorpus(t, gen.Small())
	sdb := shardWorld(t, db, 3)
	from, to := int32(0), db.Meta.Intervals/4
	if to > sdb.Bounds()[1] {
		t.Fatalf("window [0, %d) reaches past the first shard (bound %d)", to, sdb.Bounds()[1])
	}
	lg := shard.NewLog(sdb)
	ex := &registry.Executor{Cache: qcache.New(0)}
	ex.Cache.SetStale(func() func(qcache.Key) bool { return lg.Snapshot().Staleness() })
	theme := themeParam(t, db)
	view := func(d *registry.Descriptor) *shard.View {
		return lg.Snapshot().View().WithWindow(from, to).WithKind(d.Kind)
	}

	var kinds []*registry.Descriptor
	before := make(map[string]any)
	for _, d := range registry.All() {
		if d.NeedsGKG && db.GKG == nil {
			continue
		}
		val, out, err := ex.ExecuteSharded(d, view(d), kindParams(t, d, theme))
		if err != nil || out != qcache.Miss {
			t.Fatalf("%s: caching at the old window: %v %v", d.Kind, out, err)
		}
		kinds = append(kinds, d)
		before[d.Kind] = jsonTree(t, val)
	}

	evs, mns := staleTick(t, db, sdb)
	if _, err := lg.Append(evs, mns); err != nil {
		t.Fatal(err)
	}

	for _, d := range kinds {
		d := d
		t.Run(d.Kind, func(t *testing.T) {
			p := kindParams(t, d, theme)
			got, out, err := ex.ExecuteSharded(d, view(d), p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := d.RunSharded(view(d), p)
			if err != nil {
				t.Fatal(err)
			}
			wantTree := jsonTree(t, want)
			if err := eqTree(d.Kind, wantTree, jsonTree(t, got)); err != nil {
				t.Errorf("cached answer after the append (%v) differs from uncached: %v", out, err)
			}
			switch d.Kind {
			case "series-articles":
				if out != qcache.Hit {
					t.Errorf("window-only kind over the untouched shard: %v, want hit", out)
				}
			case "country":
				// Fixture sanity: the tick must change a whole-archive
				// kind's old-window answer, or this test proves nothing.
				if eqTree(d.Kind, before[d.Kind], wantTree) == nil {
					t.Error("the tick left country's old-window answer unchanged")
				}
			}
		})
	}
}

// staleTick builds one feed tick at sdb's last interval: a new event,
// located in the top reported country, mentioned by three top publishers
// of distinct countries, one of which also mentions an event that the
// first shard holds and the tail does not.
func staleTick(t *testing.T, db *store.DB, sdb *shard.DB) ([]gdelt.Event, []gdelt.Mention) {
	t.Helper()
	ranked := rankSources(db)
	var srcs []string
	seen := make(map[int32]bool)
	for _, s := range ranked {
		if c := db.SourceCountry[s]; c >= 0 && !seen[c] && len(srcs) < 3 {
			seen[c] = true
			srcs = append(srcs, db.Sources.Name(s))
		}
	}
	if len(srcs) < 3 {
		t.Fatal("fewer than three publishing countries; pick another world")
	}
	tail, p0 := sdb.Tail(), sdb.Part(0)
	var oldID int64 = -1
	for i := 0; i < p0.Events.Len(); i++ {
		if id := p0.Events.ID[i]; tail.EventRowByID(id) < 0 && p0.Events.NumArticles[i] > 0 {
			oldID = id
			break
		}
	}
	if oldID < 0 {
		t.Fatal("no first-shard event absent from the tail; pick another world")
	}
	ts := gdelt.IntervalStart(db.Meta.Start.IntervalIndex() + int64(db.Meta.Intervals) - 1)
	newID := db.Events.ID[len(db.Events.ID)-1] + 1000
	evs := []gdelt.Event{{GlobalEventID: newID, Day: 20191231, DateAdded: ts,
		ActionCountry: gdelt.Countries[0].FIPS, SourceURL: "http://tail-news.example/new"}}
	web := func(id int64, src string) gdelt.Mention {
		return gdelt.Mention{GlobalEventID: id, EventTime: ts, MentionTime: ts,
			MentionType: gdelt.MentionTypeWeb, SourceName: src, DocLen: 900, Confidence: 70}
	}
	mns := []gdelt.Mention{web(oldID, srcs[0])}
	for _, s := range srcs {
		mns = append(mns, web(newID, s))
	}
	return evs, mns
}
