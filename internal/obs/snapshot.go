package obs

import "encoding/json"

// MetricSnapshot is the point-in-time value of one metric.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Kind   Kind              `json:"kind"`
	Help   string            `json:"help,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value,omitempty"`
	// Count, Sum and Buckets carry histogram readings; Buckets[i] is the
	// cumulative count of samples <= Bounds[i], the last entry being +Inf.
	Count   int64     `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Snapshot is a weakly consistent reading of a whole registry: each value
// is read atomically, in name order.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.each(func(m any) {
		switch v := m.(type) {
		case *Counter:
			s.Metrics = append(s.Metrics, MetricSnapshot{
				Name: v.d.name, Kind: KindCounter, Help: v.d.help,
				Labels: labelMap(v.d.labels), Value: float64(v.Value()),
			})
		case *FloatCounter:
			s.Metrics = append(s.Metrics, MetricSnapshot{
				Name: v.d.name, Kind: KindCounter, Help: v.d.help,
				Labels: labelMap(v.d.labels), Value: v.Value(),
			})
		case *Gauge:
			s.Metrics = append(s.Metrics, MetricSnapshot{
				Name: v.d.name, Kind: KindGauge, Help: v.d.help,
				Labels: labelMap(v.d.labels), Value: v.Value(),
			})
		case *Histogram:
			counts := v.BucketCounts()
			cum := make([]int64, len(counts))
			var running int64
			for i, c := range counts {
				running += c
				cum[i] = running
			}
			s.Metrics = append(s.Metrics, MetricSnapshot{
				Name: v.d.name, Kind: KindHistogram, Help: v.d.help,
				Labels: labelMap(v.d.labels),
				Count:  v.Count(), Sum: v.Sum(),
				Bounds: v.Bounds(), Buckets: cum,
			})
		}
	})
	return s
}

// MarshalJSONIndent renders the snapshot as indented JSON, the format the
// CLI -stats flags print.
func (s Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Find returns the first metric with the given name whose labels all match,
// or nil. Intended for tests and the bench gate, not hot paths.
func (s Snapshot) Find(name string, labels ...Label) *MetricSnapshot {
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if m.Labels[l.Key] != l.Value {
				ok = false
				break
			}
		}
		if ok {
			return m
		}
	}
	return nil
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	out := make(map[string]string, len(ls))
	for _, l := range ls {
		out[l.Key] = l.Value
	}
	return out
}
