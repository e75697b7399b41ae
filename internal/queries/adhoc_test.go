package queries

import (
	"fmt"
	"testing"

	"gdeltmine/internal/qlang"
)

// TestAdhocKernelNames pins explain's kernel over path × grouped × agg ×
// residual: a count with nothing to filter names its typed count fast
// path — postings lengths for a group=source count over a window, the
// quarter row offsets for a group=quarter one — and
// every other plan names the fused fold that executes it: RefineFold over
// a pushdown row list, SelectFold over a window.
func TestAdhocKernelNames(t *testing.T) {
	// Keyed path/group.
	countOnly := map[string]string{
		"pushdown/":              "RowCount",
		"pushdown/source":        "GroupCountRows",
		"pushdown/quarter":       "GroupCountRows",
		"pushdown/sourcecountry": "GroupCountRows",
		"range/":                 "WindowSize",
		"range/source":           "PostingsCount",
		"range/quarter":          "QuarterOffsets",
		"range/sourcecountry":    "GroupCountCol",
		"scan/":                  "WindowSize",
		"scan/source":            "PostingsCount",
		"scan/quarter":           "QuarterOffsets",
		"scan/sourcecountry":     "GroupCountCol",
	}
	for _, path := range []string{"pushdown", "range", "scan"} {
		for _, group := range []string{"", "source", "quarter", "sourcecountry"} {
			for _, agg := range []string{"count", "sum:doclen", "mean:tone"} {
				for _, residual := range []bool{false, true} {
					a, err := qlang.ParseAgg(agg)
					if err != nil {
						t.Fatal(err)
					}
					r := adhocResolution{path: path}
					if residual {
						r.residual = []qlang.Clause{{Field: "tone", Op: qlang.OpLt}}
					}
					want := "SelectFold"
					switch {
					case a.Kind == qlang.AggCount && !residual:
						want = countOnly[path+"/"+group]
					case path == "pushdown":
						want = "RefineFold"
					}
					name := fmt.Sprintf("%s/group=%q/%s/residual=%v", path, group, agg, residual)
					if got := r.kernel(AdhocSpec{Group: group, Agg: a}); got != want {
						t.Errorf("%s: kernel %q, want %q", name, got, want)
					}
				}
			}
		}
	}
}
