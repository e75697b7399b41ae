package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"gdeltmine/internal/gdelt"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

// TestLiveServerSeesAppends pins the live-mode contract: a NewLive server
// resolves each request against the log's current snapshot, so folded
// appends become visible to the next query without restarting or
// re-pointing the server, and the result cache retires exactly the entries
// the append staled.
func TestLiveServerSeesAppends(t *testing.T) {
	lg, held := heldBackLog(t)
	server := NewLive(lg, Config{})
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	stats := func() (int64, string) {
		resp, err := http.Get(srv.URL + "/api/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats status %d", resp.StatusCode)
		}
		var st struct{ Articles int64 }
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Articles, resp.Header.Get("X-Cache")
	}

	before, outcome := stats()
	if outcome != "miss" {
		t.Fatalf("first query outcome %q, want miss", outcome)
	}
	if _, outcome = stats(); outcome != "hit" {
		t.Fatalf("repeat query outcome %q, want hit", outcome)
	}

	if _, err := lg.Append(nil, held); err != nil {
		t.Fatal(err)
	}

	after, outcome := stats()
	if outcome != "miss" {
		t.Fatalf("post-append outcome %q, want miss (append must stale the cached window)", outcome)
	}
	if want := before + int64(len(held)); after != want {
		t.Fatalf("articles after append %d, want %d (before %d + %d appended)", after, want, before, len(held))
	}

	// /readyz reports the appended world too: the tail version moved.
	var rs ReadyStatus
	if code := getJSON(t, srv, "/readyz", &rs); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	if rs.Shards.TailVersion != lg.Snapshot().Tail().Version() {
		t.Fatalf("readyz shard status %+v, want live tail version %d", rs.Shards, lg.Snapshot().Tail().Version())
	}
}

// TestSweepLoadsWorldOnce: the cache sweep after an append resolves the
// live world once for its staleness rule, however many entries are
// resident — the request that triggers it costs one snapshot load more
// than a request that sweeps nothing.
func TestSweepLoadsWorldOnce(t *testing.T) {
	lg, held := heldBackLog(t)
	var loads atomic.Int64
	server := newServer(func() *shard.View {
		loads.Add(1)
		return lg.Snapshot().View()
	}, Config{})
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	get := func(path string) int64 {
		t.Helper()
		before := loads.Load()
		var out any
		if code := getJSON(t, srv, path, &out); code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		return loads.Load() - before
	}
	// Resident entries of every key shape: all-parts answers, window-only
	// answers over each shard, and country's archive value.
	const resident = 24
	for k := 1; k <= resident/2; k++ {
		get(fmt.Sprintf("/api/v1/top-publishers?k=%d", k))
	}
	for k := 1; k <= resident/2-2; k++ {
		get(fmt.Sprintf("/api/v1/series-articles?from=20150101000000&to=201503%02d000000", k))
	}
	get("/api/v1/country")
	if n := server.exec.Cache.Len(); n != resident {
		t.Fatalf("resident entries %d, want %d", n, resident)
	}
	perRequest := get("/api/v1/stats")

	if _, err := lg.Append(nil, held); err != nil {
		t.Fatal(err)
	}
	if got := get("/api/v1/stats"); got != perRequest+1 {
		t.Fatalf("the request that swept %d entries loaded the world %d times, want %d (the request's own %d plus one for the sweep)",
			resident+1, got, perRequest+1, perRequest)
	}
	if n := server.exec.Cache.Len(); n > resident/2 {
		t.Fatalf("%d entries resident after the sweep; the append should have retired the all-parts ones", n)
	}
}

// heldBackLog returns an append log over a two-shard world with the last
// week of mentions withheld, and those mentions, to arrive as an append.
func heldBackLog(t *testing.T) (*shard.Log, []gdelt.Mention) {
	t.Helper()
	cfg := gen.Small()
	cfg.End = 20150401000000
	cfg.Sources = 40
	cfg.GKG = false
	cfg.DefectMalformedMaster = 0
	cfg.DefectMissingArchives = 0
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// World with the last week of mentions withheld; they arrive as appends.
	intervals := int32(c.World.Days() * gdelt.IntervalsPerDay)
	cut := intervals - 7*gdelt.IntervalsPerDay
	b, err := store.NewBuilder(gdelt.Timestamp(cfg.Start), intervals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Events {
		ev := c.EventRecord(i)
		b.AddEvent(&ev)
	}
	var held []gdelt.Mention
	for j := range c.Mentions {
		mn := c.MentionRecord(j)
		if c.Mentions[j].Interval >= cut {
			held = append(held, mn)
			continue
		}
		b.AddMention(&mn)
	}
	db, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := shard.Split(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	return shard.NewLog(sdb), held
}
