package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gdeltmine/internal/gen"
	"gdeltmine/internal/serve"
)

// useSmallWorlds points both named worlds at the test-sized preset.
func useSmallWorlds(t *testing.T) {
	t.Helper()
	saved := map[string]func() gen.Config{}
	for k, v := range presets {
		saved[k] = v
		presets[k] = gen.Small
	}
	t.Cleanup(func() {
		for k, v := range saved {
			presets[k] = v
		}
	})
}

func keys(m metrics) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestContractFile pins BENCHMARK.json to the code: workload names, the
// gated metrics with their direction and bound (compare.go's gates), and
// the per-layer metric names every traced run reports.
func TestContractFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(c.EndToEnd) != len(gates) {
		t.Fatalf("BENCHMARK.json gates %d metrics, compare.go %d", len(c.EndToEnd), len(gates))
	}
	for i, m := range c.EndToEnd {
		g := gates[i]
		if m.Name != g.name || (m.Better == "higher") != g.higher || m.Bound != g.bound {
			t.Errorf("end_to_end[%d] = %+v, gate = %+v", i, m, g)
		}
	}
	r := &row{}
	r.perLayer(layerSeconds{}, layerBudget{}, 0, 0)
	var listed []string
	for _, m := range c.PerLayer {
		listed = append(listed, m.Name)
		if got := r.PerLayer[m.Name].Unit; got != m.Unit {
			t.Errorf("per_layer %s: unit %q in BENCHMARK.json, %q reported", m.Name, m.Unit, got)
		}
	}
	sort.Strings(listed)
	if got := keys(r.PerLayer); strings.Join(got, ",") != strings.Join(listed, ",") {
		t.Errorf("per_layer names differ:\n BENCHMARK.json %v\n reported       %v", listed, got)
	}
}

// TestSmoke runs all four workloads, traced, on the small preset with
// 0.3 s windows: every named metric present and finite, nothing failed,
// and a trace file whose every span has a resolvable parent.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	useSmallWorlds(t)
	o := options{seed: 5, seconds: 0.3, trace: true, outDir: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.run(o)
			if err != nil {
				t.Fatal(err)
			}
			r.finish()
			if r.Failed != 0 || r.ErrorRate != 0 || r.Attempted < 1 {
				t.Errorf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.problems)
			}
			for _, g := range gates {
				m, ok := r.EndToEnd[g.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v (present %v)", g.name, m, ok)
				}
			}
			if len(r.EndToEnd) != len(gates) {
				t.Errorf("end-to-end metrics %v, want exactly the gated ones", keys(r.EndToEnd))
			}
			if len(r.PerLayer) == 0 || len(r.Layers) == 0 {
				t.Fatalf("traced run reported no per-layer metrics")
			}
			for _, set := range []metrics{r.Info, r.PerLayer, r.Layers} {
				for name, m := range set {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
						t.Errorf("metric %s = %+v", name, m)
					}
				}
			}
			if r.Host.NProc < 1 || r.Host.GoVersion == "" || r.Articles < 1 || r.N < 1 {
				t.Errorf("row lacks host or world facts: %+v", r)
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(r.contractLine(false)), &line); err != nil ||
				line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(gates) {
				t.Errorf("contract line %s: %v", r.contractLine(false), err)
			}

			data, err := os.ReadFile(r.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace file holds no spans")
			}
			ids := map[uint64]bool{}
			for _, s := range tf.Spans {
				ids[s.ID] = true
			}
			for _, s := range tf.Spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Fatalf("span %d (%s) names parent %d, which the trace does not hold", s.ID, s.Name, s.Parent)
				}
				if !ids[s.Op] || s.End < s.Start {
					t.Fatalf("span %+v: unknown operation or negative duration", s)
				}
			}
		})
	}
}

// TestVerificationHasTeeth serves real answers, checks they verify, then
// corrupts one digit of one answer and requires verification to fail.
func TestVerificationHasTeeth(t *testing.T) {
	useSmallWorlds(t)
	w, err := buildWorld(worldBench, 0, layerSeconds{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewSharded(w.sdb, serve.Config{}))
	defer ts.Close()
	cat := hotCatalogue(w)
	res := runLoad(ts.URL, cat, newZipf(len(cat), hotZipfS), 1, 200*time.Millisecond, nil)
	if res.failed != 0 || len(res.bodies) < 2 {
		t.Fatalf("load: %d failed, %d distinct answers: %v", res.failed, len(res.bodies), res.firstErr)
	}
	if errs := verifyBodies(w.mono, cat, res.bodies, nil); len(errs) != 0 {
		t.Fatalf("honest answers rejected: %v", errs)
	}
	corrupted := false
	for idx, body := range res.bodies {
		if i := bytes.IndexAny(body, "123456789"); i >= 0 {
			bad := append([]byte(nil), body...)
			bad[i] = '0' + (bad[i]-'0')%9 + 1
			res.bodies[idx] = bad
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no answer holds a digit to corrupt")
	}
	if errs := verifyBodies(w.mono, cat, res.bodies, nil); len(errs) != 1 {
		t.Fatalf("one corrupted answer produced %d verification errors: %v", len(errs), errs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 []float64) string {
		var rows []*row
		for _, v := range p50 {
			rows = append(rows, &row{Workload: "scan.cold", EndToEnd: metrics{"op_p50_ms": {v, "ms"}}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rows); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100})
	cases := []struct {
		name      string
		p50       []float64
		verdict   string
		regressed bool
	}{
		{"same.json", []float64{103, 104, 102, 103, 105, 101, 103, 104, 102, 103}, "ok", false},
		{"slow.json", []float64{140, 141, 139, 140, 142, 138, 140, 141, 139, 140}, "regressed", true},
		{"wide.json", []float64{80, 140, 90, 130, 100, 120, 110, 85, 135, 95}, "unresolved", false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed, err := compareSets(&out, base, write(c.name, c.p50))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: regressed=%v, report:\n%s", c.name, regressed, out.String())
		}
	}
}
