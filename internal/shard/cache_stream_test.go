// Package shard_test holds the shard tests that dispatch through the
// registry: registry imports shard, so these live outside the shard package
// to keep the import graph acyclic.
package shard_test

import (
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/qcache"
	"gdeltmine/internal/shard"
)

func buildSharded(t *testing.T, k int) *shard.DB {
	t.Helper()
	c, err := gen.Generate(gen.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.FromCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := shard.Split(res.DB, k)
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
	for _, win := range []string{"", "0:10", "iv0:10", "ivx:y/v0", "iv0:10/vnope"} {
		k := qcache.Key{Kind: "count", Window: win}
		if !sdb.StaleKey(k) {
			t.Errorf("StaleKey(%q) = false, want true for unparseable window", win)
		}
	}
}

// TestWriteLoadRoundTrip pins the on-disk layout: WriteFiles then LoadFile
// reproduces a sharded DB that answers queries identically.
func TestWriteLoadRoundTrip(t *testing.T) {
	sdb := buildSharded(t, 3)
	path := t.TempDir() + "/world.shards"
	if err := shard.WriteFiles(path, sdb); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != sdb.K() || loaded.EventCount() != sdb.EventCount() {
		t.Fatalf("loaded K=%d events=%d, want K=%d events=%d",
			loaded.K(), loaded.EventCount(), sdb.K(), sdb.EventCount())
	}
	a := sdb.View().Dataset()
	b := loaded.View().Dataset()
	if a != b {
		t.Fatalf("loaded dataset stats %+v differ from original %+v", b, a)
	}
}
