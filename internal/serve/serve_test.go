package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"gdeltmine/internal/convert"
	"gdeltmine/internal/gen"
	"gdeltmine/internal/shard"
	"gdeltmine/internal/store"
)

var (
	cachedDB *store.DB
	// cachedWorlds are the served layouts of cachedDB every test runs
	// over: the K=1 world shard.Single wraps the monolith in, and a 3-way
	// Split. Worlds are immutable, so the suite shares them.
	cachedWorlds []*shard.DB
)

// testDB returns the shared monolithic test dataset.
func testDB(t testing.TB) *store.DB {
	t.Helper()
	if cachedDB == nil {
		c, err := gen.Generate(gen.Small())
		if err != nil {
			t.Fatal(err)
		}
		res, err := convert.FromCorpus(c)
		if err != nil {
			t.Fatal(err)
		}
		cachedDB = res.DB
	}
	return cachedDB
}

// eachWorld runs body once per served layout of the shared dataset, so the
// whole suite pins that the HTTP surface does not depend on K.
func eachWorld(t *testing.T, body func(t *testing.T, sdb *shard.DB)) {
	t.Helper()
	if cachedWorlds == nil {
		db := testDB(t)
		single, err := shard.Single(db)
		if err != nil {
			t.Fatal(err)
		}
		split, err := shard.Split(db, 3)
		if err != nil {
			t.Fatal(err)
		}
		cachedWorlds = []*shard.DB{single, split}
	}
	for _, sdb := range cachedWorlds {
		sdb := sdb
		t.Run(fmt.Sprintf("K=%d", sdb.K()), func(t *testing.T) { body(t, sdb) })
	}
}

func testServer(t testing.TB, sdb *shard.DB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewSharded(sdb, Config{}))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestStatsEndpoint(t *testing.T) { eachWorld(t, testStatsEndpoint) }

func testStatsEndpoint(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var st struct {
		Sources  int
		Events   int64
		Articles int64
	}
	if code := getJSON(t, srv, "/api/v1/stats", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if st.Sources == 0 || st.Events == 0 || st.Articles == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDefectsEndpoint(t *testing.T) { eachWorld(t, testDefectsEndpoint) }

func testDefectsEndpoint(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var defects []struct {
		Class string `json:"class"`
		Count int64  `json:"count"`
	}
	if code := getJSON(t, srv, "/api/v1/defects", &defects); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(defects) == 0 {
		t.Fatal("no defect classes")
	}
}

func TestTopPublishersEndpoint(t *testing.T) { eachWorld(t, testTopPublishersEndpoint) }

func testTopPublishersEndpoint(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var rows []struct {
		Rank     int    `json:"rank"`
		Source   string `json:"source"`
		Articles int64  `json:"articles"`
	}
	if code := getJSON(t, srv, "/api/v1/top-publishers?k=5", &rows); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(rows) != 5 || rows[0].Articles < rows[4].Articles {
		t.Fatalf("rows %+v", rows)
	}
}

func TestTopEventsAndSizes(t *testing.T) { eachWorld(t, testTopEventsAndSizes) }

func testTopEventsAndSizes(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var evs []struct {
		Mentions int64
	}
	if code := getJSON(t, srv, "/api/v1/top-events?k=3", &evs); code != 200 {
		t.Fatal("top-events")
	}
	if len(evs) != 3 {
		t.Fatalf("events %d", len(evs))
	}
	var sizes struct {
		Counts []int64
		Alpha  float64
	}
	if code := getJSON(t, srv, "/api/v1/event-sizes", &sizes); code != 200 {
		t.Fatal("event-sizes")
	}
	if sizes.Alpha <= 0 || len(sizes.Counts) == 0 {
		t.Fatalf("sizes %+v", sizes.Alpha)
	}
}

func TestCountryEndpoint(t *testing.T) { eachWorld(t, testCountryEndpoint) }

func testCountryEndpoint(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var out struct {
		Reported   []string
		Publishing []string
		Cross      [][]int64
		Percent    [][]float64
	}
	if code := getJSON(t, srv, "/api/v1/country?k=5", &out); code != 200 {
		t.Fatal("country")
	}
	if len(out.Reported) != 5 || len(out.Cross) != 5 || len(out.Cross[0]) != 5 {
		t.Fatalf("shape %+v", out.Reported)
	}
	if out.Reported[0] != "United States" {
		t.Fatalf("top reported %q", out.Reported[0])
	}
}

func TestFollowAndCoReportEndpoints(t *testing.T) { eachWorld(t, testFollowAndCoReportEndpoints) }

func testFollowAndCoReportEndpoints(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var fr struct {
		Names   []string
		F       [][]float64
		ColSums []float64
	}
	if code := getJSON(t, srv, "/api/v1/follow?k=4", &fr); code != 200 {
		t.Fatal("follow")
	}
	if len(fr.F) != 4 || len(fr.ColSums) != 4 {
		t.Fatal("follow shape")
	}
	var co struct {
		Names   []string
		Jaccard [][]float64
	}
	if code := getJSON(t, srv, "/api/v1/coreport?k=4", &co); code != 200 {
		t.Fatal("coreport")
	}
	if len(co.Jaccard) != 4 {
		t.Fatal("coreport shape")
	}
}

func TestSeriesEndpoints(t *testing.T) { eachWorld(t, testSeriesEndpoints) }

func testSeriesEndpoints(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	for _, which := range []string{"articles", "events", "active-sources", "slow-articles"} {
		var s struct {
			Labels []string
			Values []int64
		}
		if code := getJSON(t, srv, "/api/v1/series-"+which, &s); code != 200 {
			t.Fatalf("series %s", which)
		}
		if len(s.Labels) != len(s.Values) || len(s.Values) == 0 {
			t.Fatalf("series %s shape", which)
		}
	}
	resp, err := http.Get(srv.URL + "/api/v1/series-nonsense")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown series status %d", resp.StatusCode)
	}
}

func TestWildfiresEndpoint(t *testing.T) { eachWorld(t, testWildfiresEndpoint) }

func testWildfiresEndpoint(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var fires []struct {
		EarlySources int
	}
	if code := getJSON(t, srv, "/api/v1/wildfires?window=16&min=3&k=5", &fires); code != 200 {
		t.Fatal("wildfires")
	}
	if len(fires) == 0 {
		t.Fatal("no wildfires")
	}
}

func TestDelayEndpoints(t *testing.T) { eachWorld(t, testDelayEndpoints) }

func testDelayEndpoints(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var rows []struct {
		Name   string
		Median int64
	}
	if code := getJSON(t, srv, "/api/v1/delays?k=3", &rows); code != 200 {
		t.Fatal("delays")
	}
	if len(rows) != 3 || rows[0].Name == "" {
		t.Fatal("delay rows")
	}
	var qd struct {
		Average []float64
		Median  []int64
	}
	if code := getJSON(t, srv, "/api/v1/quarterly-delay", &qd); code != 200 {
		t.Fatal("quarterly-delay")
	}
	if len(qd.Average) == 0 || len(qd.Average) != len(qd.Median) {
		t.Fatal("quarterly shape")
	}
}

func TestWindowParameterRestricts(t *testing.T) { eachWorld(t, testWindowParameterRestricts) }

func testWindowParameterRestricts(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var whole, windowed struct{ Articles int64 }
	if code := getJSON(t, srv, "/api/v1/stats", &whole); code != 200 {
		t.Fatal("stats")
	}
	// Only 2016.
	path := "/api/v1/stats?from=20160101000000&to=20170101000000"
	if code := getJSON(t, srv, path, &windowed); code != 200 {
		t.Fatal("windowed stats")
	}
	_ = windowed // Dataset() counts full tables; check a scan endpoint instead.

	var all, y2016 []struct{ Articles int64 }
	if code := getJSON(t, srv, "/api/v1/top-publishers?k=1", &all); code != 200 {
		t.Fatal("top")
	}
	if code := getJSON(t, srv, "/api/v1/top-publishers?k=1&from=20160101000000&to=20170101000000", &y2016); code != 200 {
		t.Fatal("top windowed")
	}
	if y2016[0].Articles >= all[0].Articles {
		t.Fatalf("window did not restrict: %d vs %d", y2016[0].Articles, all[0].Articles)
	}
}

func TestCountEndpoint(t *testing.T) { eachWorld(t, testCountEndpoint) }

func testCountEndpoint(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var all, slow struct {
		Where    string `json:"where"`
		Articles int64  `json:"articles"`
	}
	if code := getJSON(t, srv, "/api/v1/count", &all); code != 200 {
		t.Fatal("count")
	}
	if all.Articles == 0 {
		t.Fatal("no articles")
	}
	if code := getJSON(t, srv, "/api/v1/count?where=delay>96", &slow); code != 200 {
		t.Fatal("filtered count")
	}
	if slow.Articles == 0 || slow.Articles >= all.Articles {
		t.Fatalf("filtered %d of %d", slow.Articles, all.Articles)
	}
	resp, err := http.Get(srv.URL + "/api/v1/count?where=nosuchfield=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad expression status %d", resp.StatusCode)
	}
}

func TestThemeEndpoints(t *testing.T) { eachWorld(t, testThemeEndpoints) }

func testThemeEndpoints(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	var themes []struct {
		Theme    string
		Articles int64
	}
	if code := getJSON(t, srv, "/api/v1/themes?k=5", &themes); code != 200 {
		t.Fatalf("themes status %d", code)
	}
	if len(themes) != 5 || themes[0].Articles == 0 {
		t.Fatalf("themes %+v", themes)
	}
	var trends []struct {
		Theme  string
		Values []int64
	}
	if code := getJSON(t, srv, "/api/v1/theme-trends?theme="+themes[0].Theme, &trends); code != 200 {
		t.Fatal("trends")
	}
	if len(trends) != 1 || len(trends[0].Values) == 0 {
		t.Fatalf("trends %+v", trends)
	}
	resp, err := http.Get(srv.URL + "/api/v1/theme-trends")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing theme param status %d", resp.StatusCode)
	}
	var ts struct {
		Labels []string
		Share  []float64
	}
	if code := getJSON(t, srv, "/api/v1/translated-share", &ts); code != 200 {
		t.Fatal("translated-share")
	}
	if len(ts.Labels) != len(ts.Share) || len(ts.Share) == 0 {
		t.Fatal("translated-share shape")
	}
}

func TestBadParameters(t *testing.T) { eachWorld(t, testBadParameters) }

func testBadParameters(t *testing.T, sdb *shard.DB) {
	srv := testServer(t, sdb)
	for _, path := range []string{
		"/api/v1/top-publishers?k=zero",
		"/api/v1/stats?workers=-1",
		"/api/v1/stats?from=notatime",
		"/api/v1/stats?from=20170101000000&to=20160101000000",
		"/api/v1/wildfires?window=x",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d want 400", path, resp.StatusCode)
		}
	}
}
