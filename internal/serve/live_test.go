package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
	lg := shard.NewLog(sdb)

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
