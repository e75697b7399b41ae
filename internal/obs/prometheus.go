package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE header per metric
// family, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var err error
	lastFamily := ""
	r.each(func(m any) {
		if err != nil {
			return
		}
		d := descOf(m)
		if d.name != lastFamily {
			lastFamily = d.name
			if d.help != "" {
				if _, err = fmt.Fprintf(w, "# HELP %s %s\n", d.name, d.help); err != nil {
					return
				}
			}
			if _, err = fmt.Fprintf(w, "# TYPE %s %s\n", d.name, d.kind); err != nil {
				return
			}
		}
		switch v := m.(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", d.name, promLabels(d.labels, "", ""), v.Value())
		case *FloatCounter:
			_, err = fmt.Fprintf(w, "%s%s %s\n", d.name, promLabels(d.labels, "", ""), formatFloat(v.Value()))
		case *Gauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", d.name, promLabels(d.labels, "", ""), formatFloat(v.Value()))
		case *Histogram:
			counts := v.BucketCounts()
			var cum int64
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(v.bounds) {
					le = formatFloat(v.bounds[i])
				}
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", d.name, promLabels(d.labels, "le", le), cum); err != nil {
					return
				}
			}
			if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", d.name, promLabels(d.labels, "", ""), formatFloat(v.Sum())); err != nil {
				return
			}
			_, err = fmt.Fprintf(w, "%s_count%s %d\n", d.name, promLabels(d.labels, "", ""), v.Count())
		}
	})
	return err
}

// promLabels renders a label set, optionally with one extra label appended
// (the histogram "le" bound).
func promLabels(ls []Label, extraKey, extraVal string) string {
	if len(ls) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(ls) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
