package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests served")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "requests served"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestLabeledMetricsAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("queries_total", "", L("kind", "country"))
	b := r.Counter("queries_total", "", L("kind", "stats"))
	if a == b {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Add(3)
	b.Inc()
	snap := r.Snapshot()
	if m := snap.Find("queries_total", L("kind", "country")); m == nil || m.Value != 3 {
		t.Fatalf("country counter snapshot = %+v", m)
	}
	if m := snap.Find("queries_total", L("kind", "stats")); m == nil || m.Value != 1 {
		t.Fatalf("stats counter snapshot = %+v", m)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("lag", "")
	g.Set(2.5)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	counts := h.BucketCounts()
	// per-bucket (non-cumulative): <=0.1 gets 0.05 and 0.1; (0.1,1] gets
	// 0.5; (1,10] gets 2; +Inf gets 100.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 102.65; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x", "")
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("scans_total", "scans run", L("kind", "country")).Add(7)
	r.Gauge("inflight", "").Set(3)
	h := r.Histogram("scan_seconds", "scan latency", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE scans_total counter",
		`scans_total{kind="country"} 7`,
		"inflight 3",
		`scan_seconds_bucket{le="0.5"} 1`,
		`scan_seconds_bucket{le="1"} 1`,
		`scan_seconds_bucket{le="+Inf"} 2`,
		"scan_seconds_sum 2.25",
		"scan_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Histogram("b_seconds", "", []float64{1}).Observe(0.5)
	data, err := r.Snapshot().MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != 2 {
		t.Fatalf("round-tripped %d metrics, want 2", len(back.Metrics))
	}
	if m := back.Find("b_seconds"); m == nil || m.Count != 1 || len(m.Buckets) != 2 {
		t.Fatalf("histogram snapshot = %+v", m)
	}
}

func TestConcurrentWritersAndSnapshots(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits_total", "")
			h := r.Histogram("lat", "", LatencyBuckets)
			g := r.Gauge("g", "")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%10) / 1000)
				g.Set(float64(perWorker))
			}
		}(w)
	}
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
			var buf bytes.Buffer
			_ = r.WritePrometheus(&buf)
		}
	}()
	wg.Wait()
	if got := r.Counter("hits_total", "").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat", "", LatencyBuckets).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g", "").Value(); got != perWorker {
		t.Fatalf("gauge = %v, want %d", got, perWorker)
	}
}
