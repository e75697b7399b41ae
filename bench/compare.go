package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// A run set is a JSON array of result rows: several runs (different
// seeds) of every workload on one commit. compareSets answers, for every
// workload x end-to-end metric, whether set b is worse than set a by more
// than the metric's bound. The bounds and directions are BENCHMARK.json's;
// they are repeated here so the comparison needs nothing but the two files.

type gate struct {
	name   string
	higher bool // higher is better
	bound  float64
}

var gates = []gate{
	{"setup_s", false, 0.25},
	{"heap_after_setup_mb", false, 0.15},
	{"op_p50_ms", false, 0.25},
	{"throughput_per_s", true, 0.25},
}

func loadSet(path string) (map[string][]*row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []*row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string][]*row{}
	for _, r := range rows {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, nil
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) (med, rel float64) {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0, 0
	}
	return q2, (q3 - q1) / q2
}

// compareSets prints the comparison and reports whether any pairing
// regressed. A pairing whose run-to-run spread in either set is wider
// than its bound is unresolved: the sets cannot tell a regression of that
// size from noise, so it is reported as neither ok nor regressed.
func compareSets(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-20s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a.median", "b.median", "diff", "a.iqr", "b.iqr", "bound", "verdict")
	for _, name := range names {
		failedA, failedB := 0, 0
		for _, r := range a[name] {
			failedA += r.Failed
		}
		for _, r := range b[name] {
			failedB += r.Failed
		}
		for _, g := range gates {
			va, vb := values(a[name], g.name), values(b[name], g.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, sa := spread(va)
			mb, sb := spread(vb)
			worse := 0.0 // how much worse b is, as a share of a
			if ma != 0 {
				worse = (mb - ma) / ma
				if g.higher {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			case sa > g.bound || sb > g.bound:
				verdict = "unresolved"
			case worse > g.bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-20s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				name, g.name, ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, 100*g.bound, verdict)
		}
		verdict := "ok"
		if failedB > failedA {
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(w, "%-12s %-20s %12d %12d %43s\n", name, "failed", failedA, failedB, verdict)
	}
	return regressed, nil
}

func values(rows []*row, name string) []float64 {
	var out []float64
	for _, r := range rows {
		if m, ok := r.EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
