package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gdeltmine/internal/obs"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsCoverEveryEndpoint asserts the acceptance criterion: the
// Prometheus exposition carries request counters and latency histograms
// for every query endpoint, pre-registered at construction.
func TestMetricsCoverEveryEndpoint(t *testing.T) { eachWorld(t, testMetricsCoverEveryEndpoint) }

func testMetricsCoverEveryEndpoint(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	out := scrape(t, srv)
	for _, kind := range registry.Kinds() {
		for _, series := range []string{
			`http_requests_total{endpoint="` + kind + `"}`,
			`http_request_seconds_count{endpoint="` + kind + `"}`,
			`queries_timeout_total{kind="` + kind + `"}`,
		} {
			if !strings.Contains(out, series) {
				t.Errorf("/metrics missing %s", series)
			}
		}
	}
	for _, family := range []string{
		"# TYPE http_requests_total counter",
		"# TYPE http_request_seconds histogram",
		"# TYPE engine_scan_seconds histogram",
		"# TYPE parallel_scans_total counter",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestRequestsAdvanceEndpointMetrics runs one query and checks its counter
// and latency histogram moved, and that the engine recorded per-kind scans.
func TestRequestsAdvanceEndpointMetrics(t *testing.T) {
	eachWorld(t, testRequestsAdvanceEndpointMetrics)
}

func testRequestsAdvanceEndpointMetrics(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	before := obs.Default.Snapshot()
	req0 := before.Find("http_requests_total", obs.L("endpoint", "country")).Value
	scan0 := float64(0)
	if m := before.Find("engine_scans_total", obs.L("kind", "country")); m != nil {
		scan0 = m.Value
	}
	var out any
	if code := getJSON(t, srv, "/api/v1/country", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	after := obs.Default.Snapshot()
	if got := after.Find("http_requests_total", obs.L("endpoint", "country")).Value - req0; got != 1 {
		t.Fatalf("country requests advanced by %v, want 1", got)
	}
	lat := after.Find("http_request_seconds", obs.L("endpoint", "country"))
	if lat.Count == 0 {
		t.Fatal("country latency histogram has no samples")
	}
	scans := after.Find("engine_scans_total", obs.L("kind", "country"))
	if scans == nil || scans.Value <= scan0 {
		t.Fatalf("engine scans for kind=country did not advance: %+v", scans)
	}
}

// TestTimeoutRecordsCounterAndKind exercises the hardened 504 path: a
// nanosecond deadline expires before writeJSON, the envelope names the
// query, and queries_timeout_total{kind} advances.
func TestTimeoutRecordsCounterAndKind(t *testing.T) { eachWorld(t, testTimeoutRecordsCounterAndKind) }

func testTimeoutRecordsCounterAndKind(t *testing.T, sdb *shard.DB) {
	s := NewSharded(sdb, Config{RequestTimeout: time.Nanosecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	before := obs.Default.Counter("queries_timeout_total", "", obs.L("kind", "stats")).Value()
	resp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var env struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != "stats" {
		t.Fatalf("error envelope kind = %q, want \"stats\" (envelope %+v)", env.Kind, env)
	}
	if env.Error == "" {
		t.Fatal("error envelope missing error text")
	}
	after := obs.Default.Counter("queries_timeout_total", "", obs.L("kind", "stats")).Value()
	if after != before+1 {
		t.Fatalf("queries_timeout_total advanced %d -> %d, want +1", before, after)
	}
}

// TestPprofGatedByConfig: the profiling endpoints exist only when enabled.
func TestPprofGatedByConfig(t *testing.T) { eachWorld(t, testPprofGatedByConfig) }

func testPprofGatedByConfig(t *testing.T, sdb *shard.DB) {
	off := httptest.NewServer(NewSharded(sdb, Config{}))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without EnablePprof")
	}

	on := httptest.NewServer(NewSharded(sdb, Config{EnablePprof: true}))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d with EnablePprof", resp.StatusCode)
	}
}

// TestConcurrentMetricsScrapesDuringQueries is the race-focused test wired
// into ci.sh's -race run: scrapers hammer /metrics (registry reads,
// histogram snapshots) while query workers drive the engine's lock-free
// writers, and the JSON -stats snapshot path runs alongside.
func TestConcurrentMetricsScrapesDuringQueries(t *testing.T) {
	eachWorld(t, testConcurrentMetricsScrapesDuringQueries)
}

func testConcurrentMetricsScrapesDuringQueries(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	const scrapers, queriers, iters = 4, 4, 8
	paths := []string{"/api/v1/stats", "/api/v1/country", "/api/v1/top-publishers", "/api/v1/series-articles"}
	var wg sync.WaitGroup
	errs := make(chan error, scrapers+queriers+1)
	wg.Add(scrapers + queriers + 1)
	for i := 0; i < scrapers; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < queriers; i++ {
		go func(i int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				resp, err := http.Get(srv.URL + paths[(i+j)%len(paths)])
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	go func() {
		defer wg.Done()
		for j := 0; j < iters*2; j++ {
			if _, err := obs.Default.Snapshot().MarshalJSONIndent(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
