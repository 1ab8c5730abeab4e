package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neutrality/internal/core"
	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/nslice"
)

// spanHeader carries "<request id>/<parent span id>" from a client to
// the server middleware, so the server span joins the request's trace.
const spanHeader = "X-Perfbench-Span"

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span under a pre-allocated id (0 allocates).
func (t *tracer) add(name string, id, parent, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.next.Add(1)
	}
	if req == 0 {
		req = id
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in ms of every span with the name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures what recording one span costs (two clock reads and
// an append), the basis of trace.overhead_frac.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		a := time.Now()
		t.add("calibrate", 0, 0, 0, a, time.Now())
	}
	return time.Since(start) / n
}

func setSpanHeader(h http.Header, req, parent uint64) {
	h.Set(spanHeader, strconv.FormatUint(req, 10)+"/"+strconv.FormatUint(parent, 10))
}

func parseSpanHeader(v string) (req, parent uint64) {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return 0, 0
	}
	req, _ = strconv.ParseUint(a, 10, 64)
	parent, _ = strconv.ParseUint(b, 10, 64)
	return req, parent
}

// timed wraps a handler of the system under test. Traced, it records
// one span per request named by route. With Factor > 1 it then spins,
// before the response is flushed, until the request has taken Factor
// times as long. After, when set, runs once the handler returned.
type timed struct {
	Next   http.Handler
	Tr     *tracer
	Route  func(*http.Request) string
	Factor int
	After  func(*http.Request)
}

func (h *timed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.Next.ServeHTTP(w, r)
	stretch(start, h.Factor)
	if h.Tr != nil {
		req, parent := parseSpanHeader(r.Header.Get(spanHeader))
		h.Tr.add(h.Route(r), 0, parent, req, start, time.Now())
	}
	if h.After != nil {
		h.After(r)
	}
}

// leafRoute and rootRoute name the server spans.
func leafRoute(r *http.Request) string {
	if r.Method == http.MethodPost {
		return "serve.http.ingest"
	}
	return "serve.http.read"
}

func rootRoute(r *http.Request) string {
	if r.Method == http.MethodPost {
		return "serve.root.deliver"
	}
	return "serve.http.read"
}

// shipTransport is the RoundTripper on Shipper.Client: it counts report
// POSTs and failures and records a span per POST. With Factor > 1 it
// holds each POST back, before sending, for Factor-1 times the length
// of the previous round trip, so the report reaches the root that much
// later.
type shipTransport struct {
	Base   http.RoundTripper
	Tr     *tracer
	Factor int
	last   atomic.Int64 // the previous round trip, in ns
	posts  atomic.Int64
	failed atomic.Int64
}

func (t *shipTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	if t.Factor > 1 {
		// Sleep, not spin: the hold must not take CPU from the root.
		time.Sleep(time.Duration(int64(t.Factor-1) * t.last.Load()))
	}
	id := t.Tr.id()
	if t.Tr != nil {
		req = req.Clone(req.Context())
		setSpanHeader(req.Header, id, id)
	}
	sent := time.Now()
	resp, err := t.Base.RoundTrip(req)
	t.last.Store(int64(time.Since(sent)))
	t.posts.Add(1)
	if err != nil || resp.StatusCode/100 != 2 {
		t.failed.Add(1)
	}
	t.Tr.add("serve.ship.post", id, 0, id, start, time.Now())
	return resp, err
}

// timingObserver wraps Algorithm 2's observer for a shadow inference:
// it times Observer.Y (per-slice normalization) and every y-lookup.
// With Factor > 1 each call is stretched to Factor times its length,
// slowing the measure layer from outside the program.
type timingObserver struct {
	Inner     core.Observer
	Factor    int
	normalize time.Duration
	perf      time.Duration
	calls     int
}

// stretch busy-waits until the work begun at start has taken factor
// times as long as it had so far (no-op for factor <= 1).
func stretch(start time.Time, factor int) {
	if factor <= 1 {
		return
	}
	for end := start.Add(time.Duration(factor) * time.Since(start)); time.Now().Before(end); {
	}
}

func (o *timingObserver) Y(s *nslice.Slice) func(graph.Pathset) float64 {
	start := time.Now()
	y := o.Inner.Y(s)
	stretch(start, o.Factor)
	o.normalize += time.Since(start)
	return func(ps graph.Pathset) float64 {
		t := time.Now()
		v := y(ps)
		stretch(t, o.Factor)
		o.perf += time.Since(t)
		o.calls++
		return v
	}
}

// inferSplit is one shadow inference's time, split by layer.
type inferSplit struct {
	Total, Normalize, Perf time.Duration
	Calls                  int
}

func (s inferSplit) coreSelf() time.Duration { return s.Total - s.Normalize - s.Perf }

// shadowInfer runs core.Infer over a table through the timing observer,
// with the options the service and the batch path use by default.
func shadowInfer(n *graph.Network, meas *measure.Measurements, factor int, tr *tracer, parent, req uint64) (*core.Result, inferSplit) {
	obs := &timingObserver{Inner: core.MeasurementObserver{Meas: meas, Opts: measure.DefaultOptions()}, Factor: factor}
	start := time.Now()
	res := core.Infer(n, obs, core.DefaultConfig())
	end := time.Now()
	tr.add("core.infer", 0, parent, req, start, end)
	return res, inferSplit{Total: end.Sub(start), Normalize: obs.normalize, Perf: obs.perf, Calls: obs.calls}
}

// splitSum accumulates shadow inferences.
type splitSum struct {
	n     int
	total inferSplit
}

func (s *splitSum) add(x inferSplit) { s.merge(splitSum{n: 1, total: x}) }

func (s *splitSum) merge(o splitSum) {
	s.n += o.n
	s.total.Total += o.total.Total
	s.total.Normalize += o.total.Normalize
	s.total.Perf += o.total.Perf
	s.total.Calls += o.total.Calls
}

// fractions returns the measure and core shares of inference time.
func (s *splitSum) fractions() (measureFrac, coreFrac float64) {
	if s.total.Total <= 0 {
		return 0, 0
	}
	m := float64(s.total.Normalize+s.total.Perf) / float64(s.total.Total)
	return m, 1 - m
}

// perInfer fills the measure/core metrics as means per shadow inference.
func (s *splitSum) perInfer(m map[string]float64) {
	if s.n == 0 {
		return
	}
	n := float64(s.n)
	m["measure.normalize_ms"] = ms(s.total.Normalize) / n
	m["measure.perf_ms"] = ms(s.total.Perf) / n
	m["measure.perf_calls"] = float64(s.total.Calls) / n
	m["core.infer_self_ms"] = ms(s.total.coreSelf()) / n
}

// ledgerRow is one layer's self time over a traced run.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// ledger is the per-layer breakdown of a traced run's end-to-end time:
// the layers' self times should add up to it, and what they leave is
// unaccounted.
type ledger struct {
	EndToEndMs    float64     `json:"end_to_end_ms"`
	Basis         string      `json:"basis"`
	Rows          []ledgerRow `json:"rows"`
	Unaccounted   float64     `json:"unaccounted_frac"`
	TraceOverhead float64     `json:"trace_overhead_frac"`
}

func newLedger(basis string, e2eMs float64, rows []ledgerRow, spans int, perSpan time.Duration) *ledger {
	l := &ledger{EndToEndMs: e2eMs, Basis: basis, Rows: rows}
	covered := 0.0
	for i := range l.Rows {
		if l.Rows[i].SelfMs < 0 {
			l.Rows[i].SelfMs = 0
		}
		covered += l.Rows[i].SelfMs
		if e2eMs > 0 {
			l.Rows[i].Share = l.Rows[i].SelfMs / e2eMs
		}
	}
	if e2eMs > 0 {
		l.Unaccounted = 1 - covered/e2eMs
		l.TraceOverhead = float64(spans) * ms(perSpan) / e2eMs
	}
	return l
}

func (l *ledger) print(w *bufio.Writer, workload string) {
	fmt.Fprintf(w, "ledger %s: end-to-end %.1f ms (%s)\n", workload, l.EndToEndMs, l.Basis)
	for _, r := range l.Rows {
		fmt.Fprintf(w, "  %-14s self %12.1f ms  share %6.2f%%\n", r.Layer, r.SelfMs, 100*r.Share)
	}
	fmt.Fprintf(w, "  %-14s      %12s     share %6.2f%%\n", "unaccounted", "", 100*l.Unaccounted)
	fmt.Fprintf(w, "  trace overhead %.4f of end-to-end\n", l.TraceOverhead)
}
