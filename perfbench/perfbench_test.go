package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"neutrality/internal/sweep"
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalog in step: same names, units, directions and bounds.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for i, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %d %q has no runner", i, w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	match := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || (g.Bound != nil) != bounded || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %+v", kind, i, g, m)
			}
		}
	}
	match("end_to_end", b.EndToEnd, endToEnd, true)
	match("per_layer", b.PerLayer, perLayer, false)
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), the method spreads are judged by.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Fatalf("quartiles = %v, %v; want 1.5, 4.5", q1, q3)
	}
}

// TestCloserLatencies checks the closing-request attribution when the
// other connection's batches land during a close's inference.
func TestCloserLatencies(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	mk := func(due, done int, records int64) op {
		o := op{due: at(due), done: at(done), ok: true}
		o.res.Records = records
		return o
	}
	conns := [][]op{
		// Connection 0 carries records 256, 768 and closes epoch 1 at
		// 1024, acking after connection 1 applied 1280.
		{mk(0, 1, 256), mk(2, 3, 768), mk(4, 30, 1280)},
		// Connection 1 carries 512, then 1280 while epoch 1 infers,
		// then closes epoch 2 at 2048 (1536, 1792 and 2048 in one go
		// would take three requests; here it closes after 1792+256).
		{mk(0, 2, 512), mk(6, 8, 1280), mk(9, 10, 1536), mk(11, 12, 1792), mk(13, 40, 2048)},
	}
	got := closerLatencies(conns)
	want := []float64{26, 27}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("closer latencies %v, want %v", got, want)
	}
}

func runFor(t *testing.T, cfg config) *result {
	t.Helper()
	cfg.Dir = t.TempDir()
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s: correctness gate failed: %v", cfg.Workload, res.Failures)
	}
	return res
}

// ratio returns change/base for a metric, failing on a zero base.
func ratio(t *testing.T, base, change *result, name string) float64 {
	t.Helper()
	b := value(base, name)
	if b == 0 {
		t.Fatalf("%s: %s is 0 at the baseline", base.Workload, name)
	}
	return value(change, name) / b
}

// scales asserts the metric grew by about the factor injected.
func scales(t *testing.T, base, change *result, name string, factor int) {
	t.Helper()
	f := float64(factor)
	// Loose: the two sides are single short runs on a shared host.
	if r := ratio(t, base, change, name); r < 0.6*f || r > 1.6*f {
		t.Errorf("%s: %s went from %.4g to %.4g (x%.2f), want about x%d",
			base.Workload, name, value(base, name), value(change, name), r, factor)
	}
}

// latencyBound is the bound the unbounded latencies in a record are
// held to here: the largest bound an end-to-end metric has.
const latencyBound = 0.25

// leavesBound asserts the metric worsened by more than its bound (an
// end-to-end metric's own, latencyBound for a latency in the record).
func leavesBound(t *testing.T, base, change *result, name string) {
	t.Helper()
	m, ok := lookupMetric(name)
	if !ok {
		m = metricDef{Name: name, Better: "lower", Bound: latencyBound}
	}
	r := ratio(t, base, change, name)
	worse := r - 1
	if m.Better == "higher" {
		worse = 1 - r
	}
	if worse <= m.Bound {
		t.Errorf("%s: %s moved x%.2f, inside its bound %.2f", base.Workload, name, r, m.Bound)
	}
}

// staysInside asserts that a workload bypassing the injected stage
// kept its timed end-to-end metrics inside their bounds. The two sides
// alternate three runs each and their medians are compared, so a burst
// of host noise in one run does not decide it. setup_s (microseconds
// on sweep) and peak_rss_mb (the test binary's high-water mark across
// tests) are not comparable between runs in one test process.
func staysInside(t *testing.T, base, injected config) {
	t.Helper()
	var b, c []*result
	for i := 0; i < 3; i++ {
		b = append(b, runFor(t, base))
		c = append(c, runFor(t, injected))
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" || m.Name == "peak_rss_mb" {
			continue
		}
		var bv, cv []float64
		for i := range b {
			bv = append(bv, b[i].Metrics[m.Name])
			cv = append(cv, c[i].Metrics[m.Name])
		}
		r := median(cv) / median(bv)
		worse := r - 1
		if m.Better == "higher" {
			worse = 1 - r
		}
		if worse > m.Bound {
			t.Errorf("%s bypasses the injected stage but %s moved x%.2f, beyond its bound %.2f", base.Workload, m.Name, r, m.Bound)
		}
	}
}

// TestInjectedSlowdown slows one stage at a time from outside the
// program and checks that the benchmark attributes it: the matching
// per-layer metric grows by the injected factor, the end-to-end metric
// the catalog says it moves leaves its bound on that workload, and a
// workload that bypasses the stage stays inside its bounds. HTTP and
// measure are doubled. Report shipping is about a fifth of fanin's
// verdict latency, so doubling it moves verdict_p50_ms by about its
// share, inside the bound; it is stretched fivefold instead.
func TestInjectedSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	fanin := config{Workload: "fanin", Seed: 3, Seconds: 4, Trace: true}
	history := config{Workload: "history", Seed: 3, Seconds: 2, Trace: true, HistoryDepth: 24}
	sweepCfg := config{Workload: "sweep", Seed: 3, Seconds: 1, SweepPart: sweep.Partition{K: 1, N: 10}}
	faninBase, historyBase := runFor(t, fanin), runFor(t, history)

	t.Run("http", func(t *testing.T) {
		c := fanin
		c.Inject.HTTP = 2
		res := runFor(t, c)
		scales(t, faninBase, res, "serve.http.ingest_p50_ms", 2)
		leavesBound(t, faninBase, res, "cpu_us_per_record")
		leavesBound(t, faninBase, res, "ack_p50_ms")
		s := sweepCfg
		s.Inject.HTTP = 2
		staysInside(t, sweepCfg, s)
	})
	t.Run("ship", func(t *testing.T) {
		c := fanin
		c.Inject.Ship = 5
		res := runFor(t, c)
		scales(t, faninBase, res, "serve.ship.post_ms", 5)
		leavesBound(t, faninBase, res, "verdict_p50_ms")
		h := history
		h.Inject.Ship = 5
		staysInside(t, history, h)
	})
	// The Observer wrapper sits in the benchmark's shadow inference, not
	// in the service's own epoch close, which has no hook reachable from
	// outside the program; so the measure injection moves the per-layer
	// measure metrics and no end-to-end metric.
	t.Run("measure", func(t *testing.T) {
		c := history
		c.Inject.Observer = 2
		res := runFor(t, c)
		scales(t, historyBase, res, "measure.normalize_ms", 2)
		scales(t, historyBase, res, "measure.perf_ms", 2)
		s := sweepCfg
		s.Inject.Observer = 2
		staysInside(t, sweepCfg, s)
	})
}

// TestCompareVerdicts checks compare mode's rule on made-up result sets.
func TestCompareVerdicts(t *testing.T) {
	set := func(cpu func(i int) float64) map[string][]*result {
		var rs []*result
		for i := 0; i < 10; i++ {
			rs = append(rs, &result{Workload: "fanin", Seed: int64(i), Metrics: map[string]float64{
				"setup_s": 1, "records_per_s": 100, "cpu_us_per_record": cpu(i), "peak_rss_mb": 30,
			}, Extra: map[string]float64{"ack_p50_ms": 0.5}})
		}
		return map[string][]*result{"fanin": rs}
	}
	parent := set(func(i int) float64 { return 10 + float64(i%3)*0.1 })
	for _, tc := range []struct {
		name string
		cpu  func(int) float64
		want string
	}{
		{"faster", func(i int) float64 { return 8 + float64(i%3)*0.1 }, "better"},
		{"slower", func(i int) float64 { return 13 + float64(i%3)*0.1 }, "worse"},
		{"unchanged", func(i int) float64 { return 10 + float64((i+1)%3)*0.1 }, "same"},
	} {
		for _, row := range compare(parent, set(tc.cpu)) {
			switch row.metric {
			case "cpu_us_per_record":
				if row.verdict != tc.want {
					t.Errorf("%s: cpu_us_per_record verdict %q, want %q", tc.name, row.verdict, tc.want)
				}
			case "ack_p50_ms":
				if row.verdict != "no claim" {
					t.Errorf("%s: unchanged ack_p50_ms verdict %q, want no claim", tc.name, row.verdict)
				}
			}
		}
	}
}

func lookupMetric(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
