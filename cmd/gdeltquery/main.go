// Command gdeltquery runs ad-hoc analysis queries against a converted
// binary GDELT database, loading it fully into memory first (the paper's
// read-only query workflow).
//
// The query surface is registry-driven: every kind registered in
// internal/registry — the same inventory gdeltserve exposes under
// /api/v1/ — is available as a subcommand, with parameters passed as
// repeated -param name=value pairs:
//
//	gdeltquery list
//	gdeltquery -db ./gdelt.gdmb stats
//	gdeltquery -db ./gdelt.gdmb top-publishers -param k=10
//	gdeltquery -db ./gdelt.gdmb wildfires -param window=8 -param min=5
//	gdeltquery -db ./gdelt.gdmb count -param "where=sourcecountry=UK and delay>96"
//	gdeltquery -db ./gdelt.gdmb country -json
//
// `gdeltquery list` prints the full inventory with each kind's parameter
// schema. Every kind also accepts the common engine parameters workers,
// from and to (e.g. -param from=20160101000000).
//
// The graph and cluster subcommands are not part of the servable registry;
// they size their publisher panel from -param k=N (default 10).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gdeltmine"
	"gdeltmine/internal/obs"
	"gdeltmine/internal/queries"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/report"
)

// paramList collects repeated -param name=value flags.
type paramList struct {
	vals  map[string][]string
	names []string
}

func (p *paramList) String() string { return "" }

func (p *paramList) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if p.vals == nil {
		p.vals = make(map[string][]string)
	}
	if _, seen := p.vals[name]; !seen {
		p.names = append(p.names, name)
	}
	p.vals[name] = append(p.vals[name], value)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gdeltquery: ")
	var (
		dbPath  = flag.String("db", "", "binary database path (required)")
		workers = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS; same as -param workers=N)")
		stats   = flag.Bool("stats", false, "print the engine-internal metrics snapshot as JSON after the query")
		jsonOut = flag.Bool("json", false, "print the raw query result as JSON (the /api/v1 response body)")
		params  paramList
	)
	flag.Var(&params, "param", "query parameter as name=value; repeatable (see `gdeltquery list`)")
	flag.Parse()

	// Positional form: gdeltquery [flags] <kind> [-param n=v ...]. The
	// global flag set stops at the kind; a sub flag set picks up the rest.
	kind := "stats"
	if rest := flag.Args(); len(rest) > 0 {
		kind = rest[0]
		sub := flag.NewFlagSet(kind, flag.ExitOnError)
		sub.Var(&params, "param", "query parameter as name=value; repeatable")
		subJSON := sub.Bool("json", false, "print the raw query result as JSON")
		subStats := sub.Bool("stats", false, "print the metrics snapshot after the query")
		if err := sub.Parse(rest[1:]); err != nil {
			log.Fatal(err)
		}
		*jsonOut = *jsonOut || *subJSON
		*stats = *stats || *subStats
	}
	if kind == "list" {
		printKindList()
		return
	}
	if *dbPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	ds, err := gdeltmine.OpenBinary(*dbPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s articles in %v\n\n", report.Int(int64(ds.Articles())), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	switch kind {
	case "graph":
		runGraph(ds.WithWorkers(*workers).WithQueryKind(kind), panelSize(&params))
	case "cluster":
		runCluster(ds.WithWorkers(*workers).WithQueryKind(kind), panelSize(&params))
	default:
		runRegistry(ds, kind, &params, *workers, *jsonOut)
	}
	fmt.Printf("\nquery time: %v (workers=%d)\n", time.Since(start).Round(time.Millisecond), workersOrDefault(*workers))
	if *stats {
		data, err := obs.Default.Snapshot().MarshalJSONIndent()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", data)
	}
}

// runRegistry resolves kind against the registry, executes it, and renders
// the result (human tables by default, raw JSON with -json).
func runRegistry(ds *gdeltmine.Dataset, kind string, params *paramList, workers int, jsonOut bool) {
	d, ok := registry.Lookup(kind)
	if !ok {
		log.Fatalf("unknown query %q (run `gdeltquery list` for the inventory)", kind)
	}
	if err := d.CheckKnown(params.names); err != nil {
		log.Fatal(err)
	}
	// The -workers flag backfills the parameter when -param workers=N
	// was not given.
	get := func(name string) []string {
		if vs, ok := params.vals[name]; ok {
			return vs
		}
		if name == registry.ParamWorkers && workers > 0 {
			return []string{strconv.Itoa(workers)}
		}
		return nil
	}
	e := ds.Engine().WithKind(d.Kind)
	e, err := registry.DeriveEngine(e, get)
	if err != nil {
		log.Fatal(err)
	}
	p, err := d.ParseParams(get)
	if err != nil {
		log.Fatal(err)
	}
	v, err := d.Run(e, p)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(v); err != nil {
			log.Fatal(err)
		}
		return
	}
	render(ds, d.Kind, v)
}

// render prints a registry result as the human-readable tables and figures
// the CLI always produced; kinds without a bespoke renderer fall back to
// indented JSON.
func render(ds *gdeltmine.Dataset, kind string, v any) {
	switch res := v.(type) {
	case queries.DatasetStats:
		fmt.Print(report.TableI(res))
		fmt.Println()
		fmt.Print(report.TableII(ds.Report()))
	case []queries.TopEvent:
		fmt.Print(report.TableIII(res))
	case []registry.PublisherRow:
		rows := make([][]string, len(res))
		for i, r := range res {
			rows[i] = []string{strconv.Itoa(r.Rank), r.Source, report.Int(r.Articles)}
		}
		fmt.Print(report.Table("Most productive news websites", []string{"Rank", "Source", "Articles"}, rows))
	case registry.CountryResult:
		fmt.Print(report.Matrix("Co-reporting among countries (Jaccard)", res.Publishing, res.Publishing,
			func(i, j int) string {
				if i == j {
					return ""
				}
				return report.F(res.CoReporting[i][j], 3)
			}))
		fmt.Println()
		fmt.Print(report.Matrix("Cross-reporting (articles)", res.Reported, res.Publishing,
			func(i, j int) string { return report.Int(res.Cross[i][j]) }))
		fmt.Println()
		fmt.Print(report.Matrix("Cross-reporting (percent of publishing country)", res.Reported, res.Publishing,
			func(i, j int) string { return report.F(res.Percent[i][j], 1) }))
	case registry.FollowResult:
		fmt.Print(report.Matrix("Follow-reporting fractions", res.Names, res.Names,
			func(i, j int) string { return report.F(res.F[i][j], 3) }))
	case registry.CoReportResult:
		fmt.Print(report.Matrix("Co-reporting (Jaccard) among top publishers", res.Names, res.Names,
			func(i, j int) string {
				if i == j {
					return ""
				}
				return report.F(res.Jaccard[i][j], 3)
			}))
	case []queries.SourceDelayStats:
		fmt.Print(report.TableVIII(res))
	case queries.QuarterlyDelay:
		fmt.Print(report.Figure10(res))
	case queries.QuarterlySeries:
		fmt.Print(report.FigureSeries(seriesTitle(kind), res))
	case registry.CountResult:
		fmt.Printf("articles matching %q: %s\n", res.Where, report.Int(res.Articles))
	case []queries.ThemeCount:
		rows := make([][]string, len(res))
		for i, tc := range res {
			rows[i] = []string{strconv.Itoa(i + 1), tc.Theme, report.Int(tc.Articles)}
		}
		fmt.Print(report.Table("Dominant GKG themes", []string{"Rank", "Theme", "Articles"}, rows))
	case []queries.ThemeTrend:
		for _, tr := range res {
			fmt.Print(report.FigureSeries("Theme "+tr.Theme, queries.QuarterlySeries{Labels: tr.Labels, Values: tr.Values}))
		}
	case []queries.Wildfire:
		rows := make([][]string, len(res))
		for i, w := range res {
			rows[i] = []string{fmt.Sprintf("%d", w.EventID), fmt.Sprintf("%d", w.EarlySources),
				fmt.Sprintf("%d", w.EarlyArticles), fmt.Sprintf("%d", w.TotalArticles), report.F(w.Velocity, 2)}
		}
		fmt.Print(report.Table("Fast-spreading events",
			[]string{"Event", "EarlySources", "EarlyArticles", "Total", "Velocity"}, rows))
	default:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(v); err != nil {
			log.Fatal(err)
		}
	}
}

func seriesTitle(kind string) string {
	switch kind {
	case "series-articles":
		return "Articles per quarter"
	case "series-events":
		return "Events per quarter"
	case "series-active-sources":
		return "Active sources per quarter"
	case "series-slow-articles":
		return "Slow articles per quarter"
	case "filtered-series":
		return "Articles per quarter (filtered)"
	}
	return kind
}

// printKindList renders the registry inventory: every kind, its help line,
// and its parameter schema — the CLI face of `/api/v1/`.
func printKindList() {
	fmt.Println("Registered query kinds (run as `gdeltquery -db DB <kind> [-param name=value]...`):")
	fmt.Println()
	for _, d := range registry.All() {
		gkg := ""
		if d.NeedsGKG {
			gkg = "  [needs GKG data]"
		}
		fmt.Printf("  %-24s %s%s\n", d.Kind, d.Help, gkg)
		for _, ps := range d.Params {
			req := fmt.Sprintf("default %s", strconv.Quote(ps.Default))
			if ps.Required {
				req = "required"
			}
			fmt.Printf("      -param %s=<%s>  %s (%s)\n", ps.Name, ps.Type, ps.Help, req)
		}
	}
	fmt.Println()
	fmt.Println("Common parameters accepted by every kind:")
	fmt.Println("      -param workers=<int>  pin the engine's parallel worker count")
	fmt.Println("      -param from=<YYYYMMDDHHMMSS>  restrict to captures at or after this time")
	fmt.Println("      -param to=<YYYYMMDDHHMMSS>    restrict to captures before this time")
	fmt.Println()
	fmt.Println("Extra subcommands: list, graph, cluster (publisher panel size via -param k=N)")
}

func runGraph(ds *gdeltmine.Dataset, k int) {
	ids, _ := ds.TopPublishers(k)
	g, err := ds.SourceGraph(ids, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	pr := g.PageRank(gdeltmine.PageRankOptions{})
	comps := g.Components()
	fmt.Printf("co-reporting graph over top %d publishers: %d edges, %d components (largest %d)\n",
		g.N, g.Edges(), len(comps), len(comps[0]))
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pr[order[a]] > pr[order[b]] })
	fmt.Println("most central sources (PageRank):")
	for i := 0; i < 10 && i < len(order); i++ {
		v := order[i]
		fmt.Printf("  %2d. %-34s %.4f (degree %d)\n", i+1, ds.SourceName(ids[v]), pr[v], g.Degree(v))
	}
}

func runCluster(ds *gdeltmine.Dataset, k int) {
	ids, _ := ds.TopPublishers(k)
	res, err := ds.ClusterSources(ids, gdeltmine.MCLOptions{Inflation: 1.6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MCL over the co-reporting matrix of the top %d publishers (%d iterations, converged=%v):\n",
		len(ids), res.Iterations, res.Converged)
	for c, cl := range res.Clusters {
		names := make([]string, len(cl))
		for i, pos := range cl {
			names[i] = ds.SourceName(ids[pos])
		}
		fmt.Printf("  cluster %d (%d members): %s\n", c+1, len(cl), strings.Join(names, ", "))
	}
}

// panelSize reads the graph/cluster publisher panel size from -param k=N.
func panelSize(params *paramList) int {
	vs := params.vals["k"]
	if len(vs) == 0 {
		return 10
	}
	k, err := strconv.Atoi(vs[len(vs)-1])
	if err != nil || k < 1 {
		log.Fatalf("invalid k %q", vs[len(vs)-1])
	}
	return k
}

func workersOrDefault(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}
