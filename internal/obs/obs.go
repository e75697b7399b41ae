// Package obs is the observability layer of the system: lock-free
// counters, gauges and fixed-bucket latency histograms behind a named
// registry, with snapshot semantics for readers. It is the measurement
// substrate the paper's evaluation implies — Figure 12's strong-scaling
// claim and the "one TB for a simple test query" argument are quantitative,
// so the engine, the parallel runtime, the HTTP server and the stream
// monitor all record into this package, and /metrics (Prometheus text) or
// the -stats flag (JSON) read it back out.
//
// Concurrency model: metric hot paths (Counter.Add, Gauge.Set,
// Histogram.Observe) are single atomic operations with no locks, safe for
// any number of concurrent writers. Registration takes a registry mutex but
// is expected at init or first use; lookups after that hit a read lock
// only. Snapshots read each value atomically — a snapshot taken while
// writers run is weakly consistent (values may be from slightly different
// instants) but every individual value is torn-free, and a histogram's
// bucket counts never exceed its total count by more than the writes in
// flight at the instant of the read.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the metric types in snapshots.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// desc is the immutable identity of one registered metric.
type desc struct {
	name   string
	help   string
	kind   Kind
	labels []Label
}

// id returns the registry key: name plus sorted labels.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// Counter is a monotonically increasing value.
type Counter struct {
	d desc
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta; negative deltas are ignored to keep the counter monotone.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways.
type Gauge struct {
	d    desc
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds named metrics. The zero value is not usable; use
// NewRegistry or the package Default.
type Registry struct {
	mu      sync.RWMutex
	ordered []any // *Counter | *Gauge | *Histogram, registration order
	index   map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]any)}
}

// Default is the process-wide registry every subsystem records into.
var Default = NewRegistry()

// lookup returns the metric under id, or registers the one built by mk.
// It panics when the existing metric under id has a different kind —
// that is a programming error, not a runtime condition.
func (r *Registry) lookup(id string, kind Kind, mk func() any) any {
	r.mu.RLock()
	m, ok := r.index[id]
	r.mu.RUnlock()
	if ok {
		checkKind(id, kind, m)
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[id]; ok {
		checkKind(id, kind, m)
		return m
	}
	m = mk()
	r.index[id] = m
	r.ordered = append(r.ordered, m)
	return m
}

func checkKind(id string, want Kind, m any) {
	var got Kind
	switch m.(type) {
	case *Counter:
		got = KindCounter
	case *Gauge:
		got = KindGauge
	case *Histogram:
		got = KindHistogram
	}
	if got != want {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", id, got, want))
	}
}

// Counter returns the counter with the given name and labels, registering
// it on first use. Repeated calls with the same identity return the same
// counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	id := metricID(name, labels)
	return r.lookup(id, KindCounter, func() any {
		return &Counter{d: desc{name: name, help: help, kind: KindCounter, labels: labels}}
	}).(*Counter)
}

// Gauge returns the gauge with the given name and labels, registering it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	id := metricID(name, labels)
	return r.lookup(id, KindGauge, func() any {
		return &Gauge{d: desc{name: name, help: help, kind: KindGauge, labels: labels}}
	}).(*Gauge)
}

// Histogram returns the histogram with the given name, bucket upper bounds
// and labels, registering it on first use. An existing histogram keeps its
// original buckets; bounds must be sorted ascending.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	id := metricID(name, labels)
	return r.lookup(id, KindHistogram, func() any {
		return newHistogram(desc{name: name, help: help, kind: KindHistogram, labels: labels}, bounds)
	}).(*Histogram)
}

// each walks the registered metrics in a stable order: registration order
// grouped by name so Prometheus families render contiguously.
func (r *Registry) each(fn func(m any)) {
	r.mu.RLock()
	ms := make([]any, len(r.ordered))
	copy(ms, r.ordered)
	r.mu.RUnlock()
	// Stable-sort by name, preserving registration order within a name, so
	// one metric family is always contiguous regardless of interleaved
	// registration.
	sort.SliceStable(ms, func(a, b int) bool { return descOf(ms[a]).name < descOf(ms[b]).name })
	for _, m := range ms {
		fn(m)
	}
}

func descOf(m any) desc {
	switch v := m.(type) {
	case *Counter:
		return v.d
	case *Gauge:
		return v.d
	case *Histogram:
		return v.d
	}
	return desc{}
}
