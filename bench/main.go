// Command bench is the one benchmark of gdeltmine: four named workloads
// that each load a different set of layers, end-to-end metrics with
// regression bounds, and a per-layer budget timed from outside the
// program. README.md in this directory has the metric and prediction
// tables; BENCHMARK.json at the repository root is the machine-readable
// contract.
//
//	bench -workload scan.cold -seed 0 -seconds 10 -trace 0   one run, end-to-end metrics
//	bench -workload all -seed 0 -trace 1                     all four, with the traced pass
//	bench -compare a.json b.json                             compare two run sets
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// hostFacts travel on every result row: a number without the host it was
// taken on is not reproducible.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	// Best effort: the driver's checkout is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// row is the record of one run of one workload.
type row struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Host     hostFacts `json:"host"`
	World    string    `json:"world"`
	Articles int       `json:"articles"`
	WindowS  float64   `json:"window_s"`
	Clients  int       `json:"clients"`
	// N is the sample count behind op_p50_ms / op_p90_ms.
	N         int     `json:"n"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	ErrorRate float64 `json:"error_rate"`
	// EndToEnd holds the gated metrics under their BENCHMARK.json names.
	EndToEnd metrics `json:"end_to_end"`
	// Info holds everything else an untraced window measures: the same
	// figures under the workload's own names (panel_pass_p50_ms,
	// query_p50_ms, tick_p50_ms, ...), p99/max, the supported high
	// percentile, and metrics that are reported but not gated.
	Info metrics `json:"info"`
	// PerLayer and Layers come from the traced pass and the layer probes
	// (-trace 1): PerLayer under the BENCHMARK.json names, Layers the
	// workload's own per-layer detail.
	PerLayer  metrics `json:"per_layer,omitempty"`
	Layers    metrics `json:"layers,omitempty"`
	TraceFile string  `json:"trace_file,omitempty"`

	problems []error
}

func (r *row) fail(n int, err error) {
	r.Failed += n
	if err != nil && len(r.problems) < 5 {
		r.problems = append(r.problems, err)
	}
}

// options are the settings of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// The issue sizes a run as 3 s warm-up, 30 s window and at most 8 s of
// traced pass; the driver's time cap fixes the window, and the other two
// keep their proportion to it.
func (o options) warmup() time.Duration { return o.window() / 10 }
func (o options) traced() time.Duration { return o.window() * 8 / 30 }

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(o options) (*row, error)
}

var workloads = []workload{
	{"scan.cold", runScanCold},
	{"route.hot", runRouteHot},
	{"serve.churn", runServeChurn},
	{"live.ingest", runLiveIngest},
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: scan.cold, route.hot, serve.churn, live.ingest or all")
		seed    = flag.Int64("seed", 0, "XOR-ed into the world preset's seed; also seeds every request-stream draw")
		seconds = flag.Float64("seconds", 10, "length of the untraced measuring window")
		trace   = flag.Int("trace", 0, "1 adds the traced pass and layer probes after the window and reports per-layer metrics")
		outDir  = flag.String("out", "out", "directory for result rows, trace files and scratch data")
		record  = flag.String("record", "", "append this run's result rows to the JSON array in this file (a run set)")
		compare = flag.Bool("compare", false, "compare two run sets: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare a.json b.json"))
		}
		regressed, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	ran := false
	for _, w := range workloads {
		if *name != "all" && *name != w.name {
			continue
		}
		ran = true
		r, err := w.run(opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		r.finish()
		r.print()
		if err := writeJSON(filepath.Join(*outDir, w.name+".json"), r); err != nil {
			fatal(err)
		}
		if *record != "" {
			if err := appendRow(*record, r); err != nil {
				fatal(err)
			}
		}
		// The driver reads the last line of a single-workload run.
		fmt.Println(r.contractLine(opts.trace))
		runtime.GC()
	}
	if !ran {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func (r *row) finish() {
	r.Host = host()
	if r.Attempted > 0 {
		r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	}
}

func (r *row) print() {
	fmt.Printf("== %s  seed=%d  world=%s (%d articles)  window=%.1fs  clients=%d  n=%d\n",
		r.Workload, r.Seed, r.World, r.Articles, r.WindowS, r.Clients, r.N)
	fmt.Printf("   host: nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Host.NProc, r.Host.GoMaxProcs, r.Host.GoVersion, r.Host.Commit)
	section := func(title string, m metrics) {
		if len(m) == 0 {
			return
		}
		fmt.Printf(" %s\n", title)
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("   %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	section("end-to-end (gated)", r.EndToEnd)
	section("end-to-end (informational)", r.Info)
	section("per-layer (BENCHMARK.json)", r.PerLayer)
	section("per-layer (detail)", r.Layers)
	fmt.Printf(" error_rate %.6f (%d failed of %d attempted)\n", r.ErrorRate, r.Failed, r.Attempted)
	for _, p := range r.problems {
		fmt.Printf("   problem: %v\n", p)
	}
	if r.TraceFile != "" {
		fmt.Printf(" trace: %s\n", r.TraceFile)
	}
}

// contractLine renders the one-line JSON result the driver parses: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (r *row) contractLine(traced bool) string {
	m := r.EndToEnd
	if traced {
		m = r.PerLayer
	}
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, m}
	data, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(data)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// appendRow adds r to the JSON array in path, creating it if needed.
func appendRow(path string, r *row) error {
	var rows []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rows); err != nil {
			return fmt.Errorf("%s: not a run set: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return writeJSON(path, append(rows, data))
}

// opMetrics fills the gated latency/throughput metrics and their
// informational companions from one window's samples. alias is the
// workload's own name for its operation (panel_pass, query, tick).
func (r *row) opMetrics(alias string, t timing, throughput float64, throughputAlias string) {
	r.N = t.N
	r.EndToEnd.set("op_p50_ms", t.P50, "ms")
	r.EndToEnd.set("throughput_per_s", throughput, "1/s")
	r.Info.set("op_p90_ms", t.P90, "ms")
	r.Info.set(alias+"_p50_ms", t.P50, "ms")
	r.Info.set(alias+"_p90_ms", t.P90, "ms")
	r.Info.set(fmt.Sprintf("%s_hi_ms.p%g", alias, t.HiPct), t.Hi, "ms")
	r.Info.set(alias+"_p99_ms", t.P99, "ms")
	r.Info.set(alias+"_max_ms", t.Max, "ms")
	r.Info.set(throughputAlias, throughput, "1/s")
}

func (r *row) setupMetrics(s setupResult) {
	r.EndToEnd.set("setup_s", s.seconds, "s")
	r.EndToEnd.set("heap_after_setup_mb", s.heapMB, "MB")
}

func newRow(name string, o options, world string, articles, clients int) *row {
	return &row{Workload: name, Seed: o.seed, World: world, Articles: articles,
		WindowS: o.seconds, Clients: clients, EndToEnd: metrics{}, Info: metrics{}}
}
