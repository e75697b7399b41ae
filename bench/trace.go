package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdeltmine/internal/registry"
	"gdeltmine/internal/shard"
)

// The tracer records spans from the benchmark's own files, around calls
// into each layer's public functions; nothing inside the program is
// instrumented. It exists only during the traced pass, which runs after
// the untraced window, so no end-to-end number ever includes it.

// spanRec is one finished span. Spans of one operation share Op (the id
// of the root span); Parent is 0 for a root.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef names a live span so children can attach to it.
type spanRef struct{ op, id uint64 }

// maxSpans bounds the in-memory trace; a traced pass that would exceed it
// stops recording (and reports how many spans it dropped) rather than
// growing without limit on a fast workload.
const maxSpans = 400000

type tracer struct {
	t0      time.Time
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []spanRec
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type liveSpan struct {
	t   *tracer
	rec spanRec
}

// start opens a span under parent; a zero parent starts a new operation.
func (t *tracer) start(parent spanRef, name string) *liveSpan {
	id := t.next.Add(1)
	op := parent.op
	if op == 0 {
		op = id
	}
	return &liveSpan{t: t, rec: spanRec{ID: id, Parent: parent.id, Op: op, Name: name,
		Start: int64(time.Since(t.t0))}}
}

func (s *liveSpan) ref() spanRef { return spanRef{op: s.rec.Op, id: s.rec.ID} }

func (s *liveSpan) end() {
	s.rec.End = int64(time.Since(s.t.t0))
	s.t.mu.Lock()
	if len(s.t.spans) < maxSpans {
		s.t.spans = append(s.t.spans, s.rec)
	} else {
		s.t.dropped++
	}
	s.t.mu.Unlock()
}

// Span propagation: through context inside the process, and through one
// request header across an HTTP hop.
type spanKey struct{}

const spanHeader = "X-Bench-Span"

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

func (r spanRef) header() string {
	return strconv.FormatUint(r.op, 10) + "/" + strconv.FormatUint(r.id, 10)
}

func parseSpanHeader(h string) spanRef {
	a, b, ok := strings.Cut(h, "/")
	if !ok {
		return spanRef{}
	}
	op, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{op: op, id: id}
}

// handler wraps a layer's http.Handler in a span whose parent arrives in
// the span header, and hands the span on through the request context so
// calls the handler makes (the RunSharded wrapper, the router's upstream
// transport) can attach to it.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := t.start(parseSpanHeader(r.Header.Get(spanHeader)), name)
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp.ref())))
		sp.end()
	})
}

// transport is the router's upstream RoundTripper during the traced pass:
// the router derives each upstream request's context from the inbound
// request, so the parent span is found there, and the span header carries
// it on to the replica. The span ends when response headers arrive (the
// body of a query result follows in the same segment on loopback).
type transport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt transport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := tt.t.start(spanFrom(req.Context()), spanUpstream)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, sp.ref().header())
	resp, err := tt.next.RoundTrip(out)
	sp.end()
	return resp, err
}

// wrapRegistry puts a span around every descriptor's RunSharded — the
// call from the registry/serve side into the shard fan-out and engine
// kernels — for the duration of the traced pass. The parent is the span in
// the view's context (the request context serve attaches). Call it, and
// the returned restore, only while no query is in flight.
func (t *tracer) wrapRegistry() (restore func()) {
	type saved struct {
		d    *registry.Descriptor
		orig func(*shard.View, registry.Params) (any, error)
	}
	var all []saved
	for _, d := range registry.All() {
		orig := d.RunSharded
		all = append(all, saved{d, orig})
		d.RunSharded = func(v *shard.View, p registry.Params) (any, error) {
			sp := t.start(spanFrom(v.Context()), spanShardRun)
			defer sp.end()
			return orig(v, p)
		}
	}
	return func() {
		for _, s := range all {
			s.d.RunSharded = s.orig
		}
	}
}

// layerBudget is the traced pass boiled down: for every kind of root
// operation, how many ran, their total wall time, and each span name's
// self time inside them. A span's self time is its duration minus the
// part of that interval its child spans cover (children that overlap in
// time are counted once).
type layerBudget struct {
	Ops  map[string]*opBudget `json:"ops"`
	Span int                  `json:"spans"`
	Drop int                  `json:"dropped"`
}

type opBudget struct {
	N       int              `json:"n"`
	TotalNS int64            `json:"total_ns"`
	SelfNS  map[string]int64 `json:"self_ns"`
}

func (t *tracer) budget() layerBudget {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()

	byID := make(map[uint64]*spanRec, len(spans))
	children := make(map[uint64][]*spanRec)
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := layerBudget{Ops: map[string]*opBudget{}, Span: len(spans), Drop: dropped}
	for i := range spans {
		s := &spans[i]
		root := byID[s.Op]
		if root == nil {
			continue // its operation was cut off by the span cap
		}
		ob := out.Ops[root.Name]
		if ob == nil {
			ob = &opBudget{SelfNS: map[string]int64{}}
			out.Ops[root.Name] = ob
		}
		if s.Parent == 0 {
			ob.N++
			ob.TotalNS += s.End - s.Start
		}
		ob.SelfNS[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of s's interval its children cover.
func covered(s *spanRec, kids []*spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi <= lo {
			continue
		}
		if curHi < 0 || lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	return total + (curHi - curLo)
}

// traceFile is what the traced pass writes to out/<workload>.trace.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Host     hostFacts   `json:"host"`
	Budget   layerBudget `json:"budget"`
	Spans    []spanRec   `json:"spans"`
}

func (t *tracer) write(path string, workload string, seed int64, b layerBudget) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Host: host(), Budget: b, Spans: spans})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
