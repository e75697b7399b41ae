// Append-log tests: copy-on-write snapshot isolation, seal mechanics and
// version carry-forward, cache-key safety across a seal, and the durable
// persist/reopen round trip. The crash harness that kills the persist
// protocol at every step lives in crash_test.go; the full query-equality
// battery (every registry kind, 2 seeds x K x workers) lives in
// internal/baseline/compaction_differential_test.go.
package shard_test

import (
	"reflect"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// logWorldCfg is a deliberately tiny corpus (~3.5 months, 40 sources) so
// the crash harness can rebuild it once per protocol step.
func logWorldCfg() gen.Config {
	c := gen.Small()
	c.End = 20150601000000
	c.Sources = 40
	c.GKG = false
	c.DefectMalformedMaster = 0
	c.DefectMissingArchives = 0
	return c
}

// buildPrefix assembles a monolith from the corpus with mentions
// restricted to intervals below cut (all events are always included; the
// builder recounts their metadata from the retained mentions), mirroring
// internal/baseline's buildTruncated.
func buildPrefix(t *testing.T, c *gen.Corpus, cut int32) *store.DB {
	t.Helper()
	b, err := store.NewBuilder(gdelt.Timestamp(c.World.Cfg.Start),
		int32(c.World.Days()*gdelt.IntervalsPerDay))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Events {
		ev := c.EventRecord(i)
		b.AddEvent(&ev)
	}
	for j := range c.Mentions {
		if c.Mentions[j].Interval >= cut {
			continue
		}
		mn := c.MentionRecord(j)
		b.AddMention(&mn)
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// mentionChunks groups the corpus mentions at or past cut into feed ticks
// of step capture intervals each, in interval order — the shape the live
// poller folds.
func mentionChunks(c *gen.Corpus, cut, step int32) [][]gdelt.Mention {
	iv := int32(c.World.Days() * gdelt.IntervalsPerDay)
	var chunks [][]gdelt.Mention
	for lo := cut; lo < iv; lo += step {
		hi := lo + step
		var ch []gdelt.Mention
		for j := range c.Mentions {
			if m := c.Mentions[j]; m.Interval >= lo && m.Interval < hi {
				ch = append(ch, c.MentionRecord(j))
			}
		}
		if len(ch) > 0 {
			chunks = append(chunks, ch)
		}
	}
	return chunks
}

// runKind executes one registry kind on a sharded snapshot.
func runKind(t *testing.T, s *shard.DB, kind string) any {
	t.Helper()
	d := registry.MustLookup(kind)
	p, err := d.ParseParams(func(string) []string { return nil })
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.RunSharded(s.View().WithWorkers(2).WithKind(kind), p)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return got
}

var logProbeKinds = []string{"stats", "top-publishers", "country", "series-articles"}

func TestLogAppendSnapshotIsolation(t *testing.T) {
	c, err := gen.Generate(logWorldCfg())
	if err != nil {
		t.Fatal(err)
	}
	iv := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := iv - 14*gdelt.IntervalsPerDay
	sdb, err := shard.Split(buildPrefix(t, c, cut), 2)
	if err != nil {
		t.Fatal(err)
	}
	lg := shard.NewLog(sdb)

	snap0 := lg.Snapshot()
	before := map[string]any{}
	for _, k := range logProbeKinds {
		before[k] = runKind(t, snap0, k)
	}
	rows0 := snap0.Tail().Mentions.Len()
	srcs0 := snap0.Sources().Len()
	v0 := snap0.Tail().Version()
	metaBefore := make([][]int32, snap0.K()-1)
	for i := range metaBefore {
		metaBefore[i] = append([]int32(nil), snap0.Part(i).Events.NumArticles...)
	}

	chunks := mentionChunks(c, cut, 2*gdelt.IntervalsPerDay)
	if len(chunks) < 3 {
		t.Fatalf("world too small: %d chunks", len(chunks))
	}
	var appended int
	for _, ch := range chunks {
		st, err := lg.Append(nil, ch)
		if err != nil {
			t.Fatal(err)
		}
		appended += st.AppendedMentions
	}
	if appended == 0 {
		t.Fatal("no mentions appended")
	}

	// The old snapshot is byte-for-byte the world it was: same tail rows,
	// same dictionary, same version, same answers.
	if got := snap0.Tail().Mentions.Len(); got != rows0 {
		t.Fatalf("pre-append snapshot tail grew: %d -> %d rows", rows0, got)
	}
	if got := snap0.Sources().Len(); got != srcs0 {
		t.Fatalf("pre-append snapshot dictionary grew: %d -> %d", srcs0, got)
	}
	if got := snap0.Tail().Version(); got != v0 {
		t.Fatalf("pre-append snapshot version moved: %d -> %d", v0, got)
	}
	for _, k := range logProbeKinds {
		if got := runKind(t, snap0, k); !reflect.DeepEqual(got, before[k]) {
			t.Errorf("%s: answer on the old snapshot changed after appends", k)
		}
	}

	// The published snapshot has the folds, and its version advanced once
	// per append.
	snap1 := lg.Snapshot()
	if got := snap1.Tail().Mentions.Len(); got != rows0+appended {
		t.Fatalf("published tail has %d rows, want %d", got, rows0+appended)
	}
	if got, want := snap1.Tail().Version(), v0+uint64(len(chunks)); got != want {
		t.Fatalf("published tail version %d, want %d", got, want)
	}
	// Cold shards share mention storage with the old snapshot (COW, not a
	// full copy), and a per-event metadata column only for as long as no
	// append changed a value in it.
	if &snap0.Part(0).Mentions.Interval[0] != &snap1.Part(0).Mentions.Interval[0] {
		t.Error("cold shard mention columns were copied; expected sharing")
	}
	for i, want := range metaBefore {
		if !reflect.DeepEqual(snap0.Part(i).Events.NumArticles, want) {
			t.Errorf("part %d: old snapshot's NumArticles changed under appends", i)
		}
	}
}

func TestLogSealEquivalenceAndVersions(t *testing.T) {
	c, err := gen.Generate(logWorldCfg())
	if err != nil {
		t.Fatal(err)
	}
	iv := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := iv - 14*gdelt.IntervalsPerDay
	sdb, err := shard.Split(buildPrefix(t, c, cut), 2)
	if err != nil {
		t.Fatal(err)
	}
	lg := shard.NewLog(sdb)
	for _, ch := range mentionChunks(c, cut, 4*gdelt.IntervalsPerDay)[:2] {
		if _, err := lg.Append(nil, ch); err != nil {
			t.Fatal(err)
		}
	}
	pre := lg.Snapshot()
	before := map[string]any{}
	for _, k := range logProbeKinds {
		before[k] = runKind(t, pre, k)
	}
	tailV := pre.Tail().Version()

	sealed, err := lg.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if !sealed {
		t.Fatal("Seal declined with a non-empty tail and interval headroom")
	}
	post := lg.Snapshot()
	if got, want := post.K(), pre.K()+1; got != want {
		t.Fatalf("K after seal %d, want %d", got, want)
	}
	b := post.Bounds()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing after seal: %v", b)
		}
	}
	// The sealed part and the fresh tail both carry the old tail's version
	// forward — resetting to zero could let a cache key minted before the
	// seal match a later world with different data.
	if got := post.Part(post.K() - 2).Version(); got != tailV {
		t.Fatalf("sealed part version %d, want carried-forward %d", got, tailV)
	}
	if got := post.Tail().Version(); got != tailV {
		t.Fatalf("fresh tail version %d, want carried-forward %d", got, tailV)
	}
	if got := post.Tail().Mentions.Len(); got != 0 {
		t.Fatalf("fresh tail holds %d rows; the seal cut should drain it", got)
	}
	for _, k := range logProbeKinds {
		if got := runKind(t, post, k); !reflect.DeepEqual(got, before[k]) {
			t.Errorf("%s: answer changed across a seal", k)
		}
	}

	// Sealing an empty tail is a no-op.
	if again, err := lg.Seal(); err != nil || again {
		t.Fatalf("Seal on empty tail: (%v, %v), want (false, nil)", again, err)
	}

	// Appends keep working against the fresh tail.
	rest := mentionChunks(c, cut, 4*gdelt.IntervalsPerDay)[2:]
	if len(rest) == 0 {
		t.Fatal("no chunks left after the seal point")
	}
	if _, err := lg.Append(nil, rest[0]); err != nil {
		t.Fatalf("append after seal: %v", err)
	}
	if got := lg.Snapshot().Tail().Version(); got != tailV+1 {
		t.Fatalf("tail version after post-seal append %d, want %d", got, tailV+1)
	}
}

// TestLogSealCacheKeySafety pins the concrete collision the version
// carry-forward prevents: a window over the not-yet-filled interval range
// is cached before a seal; after the seal the same window maps to the
// fresh tail, new ticks fill it, and the recomputed key must differ from
// the cached one. If the fresh tail restarted at version zero and then
// took exactly tailV appends, the stale pre-seal answer would be served
// for changed data.
func TestLogSealCacheKeySafety(t *testing.T) {
	c, err := gen.Generate(logWorldCfg())
	if err != nil {
		t.Fatal(err)
	}
	iv := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := iv - 14*gdelt.IntervalsPerDay
	sdb, err := shard.Split(buildPrefix(t, c, cut), 2)
	if err != nil {
		t.Fatal(err)
	}
	lg := shard.NewLog(sdb)
	chunks := mentionChunks(c, cut, 2*gdelt.IntervalsPerDay)
	// Fill half the tail range, so the seal cut lands mid-tail and the
	// remaining chunks target the fresh tail's window.
	half := len(chunks) / 2
	for _, ch := range chunks[:half] {
		if _, err := lg.Append(nil, ch); err != nil {
			t.Fatal(err)
		}
	}

	ex := &registry.Executor{Cache: qcache.New(0)}
	ex.Cache.SetStale(func(k qcache.Key) bool { return lg.Snapshot().StaleKey(k) })
	d := registry.MustLookup("top-publishers")
	p, err := d.ParseParams(func(string) []string { return nil })
	if err != nil {
		t.Fatal(err)
	}
	pre := lg.Snapshot()
	tailMid := pre.Tail().Mentions.Interval[pre.Tail().Mentions.Len()-1] + 1
	win := func(s *shard.DB) *shard.View { return s.View().WithWindow(tailMid, iv) }
	run := func(s *shard.DB) (any, qcache.Outcome) {
		t.Helper()
		res, out, err := ex.ExecuteSharded(d, win(s).WithKind(d.Kind), p)
		if err != nil {
			t.Fatal(err)
		}
		return res, out
	}
	empty, out := run(pre)
	if out != qcache.Miss {
		t.Fatalf("first windowed run: %v, want miss", out)
	}
	if _, out = run(pre); out != qcache.Hit {
		t.Fatalf("warm windowed run: %v, want hit", out)
	}

	if sealed, err := lg.Seal(); err != nil || !sealed {
		t.Fatalf("seal: (%v, %v)", sealed, err)
	}
	for _, ch := range chunks[half:] {
		if _, err := lg.Append(nil, ch); err != nil {
			t.Fatal(err)
		}
	}
	res, out := run(lg.Snapshot())
	if out == qcache.Hit {
		t.Fatal("post-seal query over freshly filled window served from the pre-seal cache entry")
	}
	if reflect.DeepEqual(res, empty) {
		t.Fatal("post-seal window answer identical to the pre-fill answer; expected new data")
	}
}

func TestLogPersistRoundTrip(t *testing.T) {
	c, err := gen.Generate(logWorldCfg())
	if err != nil {
		t.Fatal(err)
	}
	iv := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := iv - 14*gdelt.IntervalsPerDay
	sdb, err := shard.Split(buildPrefix(t, c, cut), 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lg, err := shard.CreateLog(dir, sdb)
	if err != nil {
		t.Fatal(err)
	}
	chunks := mentionChunks(c, cut, 2*gdelt.IntervalsPerDay)
	for i, ch := range chunks {
		if _, err := lg.Append(nil, ch); err != nil {
			t.Fatal(err)
		}
		if i == len(chunks)/2 {
			if sealed, err := lg.Seal(); err != nil || !sealed {
				t.Fatalf("mid-stream seal: (%v, %v)", sealed, err)
			}
		}
	}
	if sealed, err := lg.Seal(); err != nil || !sealed {
		t.Fatalf("final seal: (%v, %v)", sealed, err)
	}
	want := lg.Snapshot()

	re, err := shard.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := re.Snapshot()
	if got.K() != want.K() {
		t.Fatalf("reopened K %d, want %d", got.K(), want.K())
	}
	if !reflect.DeepEqual(got.Bounds(), want.Bounds()) {
		t.Fatalf("reopened bounds %v, want %v", got.Bounds(), want.Bounds())
	}
	for i := 0; i < want.K(); i++ {
		if g, w := got.Part(i).Mentions.Len(), want.Part(i).Mentions.Len(); g != w {
			t.Errorf("part %d: %d mention rows reopened, want %d", i, g, w)
		}
	}
	for _, k := range logProbeKinds {
		if !reflect.DeepEqual(runKind(t, got, k), runKind(t, want, k)) {
			t.Errorf("%s: reopened log answers differently", k)
		}
	}
	if re.Gen() < lg.Gen() {
		t.Errorf("reopened generation %d below writer's %d; a future seal could collide", re.Gen(), lg.Gen())
	}
}
