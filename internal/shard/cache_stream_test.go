// Package shard_test holds the shard tests that dispatch through the
// registry: registry imports shard, so these live outside the shard package
// to keep the import graph acyclic.
package shard_test

import (
	"slices"
	"testing"

	"gdeltmine/internal/qcache"
	"gdeltmine/internal/shard"
)

func buildSharded(t *testing.T, k int) *shard.DB {
	t.Helper()
	sdb, err := shard.Split(smallStore(t), k)
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

// TestStaleKeyUnparseableWindow: keys whose window string the shard layer
// cannot re-derive (foreign formats, corruption) must read as stale — the
// conservative direction.
func TestStaleKeyUnparseableWindow(t *testing.T) {
	sdb := buildSharded(t, 2)
	stale := sdb.Staleness()
	for _, win := range []string{"", "0:10", "iv0:10", "ivx:y/v0", "iv0:10/vnope", "iv0:10/anope", "anope", "a"} {
		k := qcache.Key{Kind: "count", Window: win}
		if !stale(k) {
			t.Errorf("Staleness()(%q) = false, want true for unparseable window", win)
		}
	}
	// The keys the world itself mints are fresh.
	for _, windowOnly := range []bool{false, true} {
		w, _ := sdb.CacheWindow(0, 10, windowOnly)
		if stale(qcache.Key{Kind: "count", Window: w}) {
			t.Errorf("Staleness()(%q) = true for a key minted by the same world", w)
		}
	}
	if w, _ := sdb.ArchiveWindow(); stale(qcache.Key{Kind: "country/archive", Window: w}) {
		t.Errorf("Staleness()(%q) = true for the world's own archive key", w)
	}
}

// TestWriteLoadRoundTrip pins the on-disk layout `gdeltconvert -shards`
// writes and gdeltserve loads: CreateLog then OpenLog reproduces a sharded
// DB with the same bounds, the same per-part event metadata and the same
// dataset statistics.
func TestWriteLoadRoundTrip(t *testing.T) {
	sdb := buildSharded(t, 3)
	dir := t.TempDir() + "/world.shards"
	if _, err := shard.CreateLog(dir, sdb); err != nil {
		t.Fatal(err)
	}
	lg, err := shard.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded := lg.Snapshot()
	if loaded.K() != sdb.K() || loaded.EventCount() != sdb.EventCount() ||
		!slices.Equal(loaded.Bounds(), sdb.Bounds()) {
		t.Fatalf("loaded K=%d events=%d bounds=%v, want K=%d events=%d bounds=%v",
			loaded.K(), loaded.EventCount(), loaded.Bounds(), sdb.K(), sdb.EventCount(), sdb.Bounds())
	}
	for i := 0; i < sdb.K(); i++ {
		a, b := &loaded.Part(i).Events, &sdb.Part(i).Events
		if !slices.Equal(a.ID, b.ID) || !slices.Equal(a.NumArticles, b.NumArticles) ||
			!slices.Equal(a.FirstMention, b.FirstMention) || !slices.Equal(a.Interval, b.Interval) {
			t.Fatalf("part %d: loaded event metadata differs from the written world", i)
		}
	}
	a := sdb.View().Dataset()
	b := loaded.View().Dataset()
	if a != b {
		t.Fatalf("loaded dataset stats %+v differ from original %+v", b, a)
	}
}
