package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"gdeltmine/internal/shard"
)

// TestReadyzReportsPerShardStatus checks the shard-aware /readyz a routing
// tier's prober depends on: shard count, the interval tiling, the per-shard
// version vector, and the tail shard's version — for a K=1 world too, which
// is what lets a router front monolithic replicas.
func TestReadyzReportsPerShardStatus(t *testing.T) { eachWorld(t, testReadyzReportsPerShardStatus) }

func testReadyzReportsPerShardStatus(t *testing.T, sdb *shard.DB) {
	k := sdb.K()
	server := NewSharded(sdb, Config{})
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	var st ReadyStatus
	if code := getJSON(t, srv, "/readyz", &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.Status != "ready" {
		t.Fatalf("/readyz %+v", st)
	}
	sh := st.Shards
	if sh.Count != k {
		t.Fatalf("shard count %d, want %d", sh.Count, k)
	}
	if len(sh.Bounds) != k+1 {
		t.Fatalf("bounds %v, want %d entries tiling the interval range", sh.Bounds, k+1)
	}
	for i := 1; i < len(sh.Bounds); i++ {
		if sh.Bounds[i] < sh.Bounds[i-1] {
			t.Fatalf("bounds not monotone: %v", sh.Bounds)
		}
	}
	if len(sh.Versions) != k {
		t.Fatalf("version vector %v, want %d entries", sh.Versions, k)
	}
	if want := sh.Versions[k-1]; sh.TailVersion != want {
		t.Fatalf("tail version %d, want tail shard's %d", sh.TailVersion, want)
	}

	// Draining flips /readyz to 503 regardless of shard detail.
	server.SetReady(false)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz status %d, want 503", resp.StatusCode)
	}
}
