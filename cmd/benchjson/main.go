// Command benchjson converts `go test -bench` output on stdin into a
// JSON object on stdout mapping each benchmark name to its reported
// metrics, for tracking the performance trajectory across PRs:
//
//	go test -run='^$' -bench=. -benchtime=1x -benchmem ./... | benchjson > BENCH.json
//
// Each benchmark maps to an object keyed by sanitized metric unit
// ("ns/op" → "ns_op", "allocs/op" → "allocs_op", plus any custom
// b.ReportMetric units such as "agreement_pct" or "events_per_sec"). The
// GOMAXPROCS suffix of the benchmark name (e.g. "-8") is stripped so
// results from machines with different core counts line up.
//
// With -baseline FILE, the parsed results are additionally compared
// against a recorded BENCH json: for every benchmark present in both,
// the run fails (exit 1, after still emitting the JSON) if allocs_op or
// B_op regresses more than the allowed slack above the recorded value,
// or a throughput metric (events_per_sec, sweep_cells_per_sec,
// verify_mb_per_sec, …) drops more than the allowed slack below it.
// CI uses this to pin the allocation budget, the event-engine
// throughput of the emulation benches, the sweep engine's cell
// throughput, and the artifact-integrity scrub's scan rate.
//
// Independently of any baseline, ratio gates bound one benchmark's
// metric by a multiple of another's from the same run (see ratioGates),
// e.g. that an epoch close deep into a service's history costs at most
// twice one at its start.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// regressionSlack is the tolerated fractional drift of a gated metric
// from its baseline before the check fails. Allocation counts are nearly
// deterministic and the slack absorbs goroutine-scheduling variance in
// the parallel sweep paths; for the throughput gate it also absorbs
// machine-speed jitter on shared CI runners.
const regressionSlack = 0.10

// gatedMetric describes one baseline-compared metric.
type gatedMetric struct {
	unit string
	// higherIsWorse: the gate fails when current > base*(1+slack);
	// otherwise it fails when current < base*(1-slack).
	higherIsWorse bool
}

// gatedMetrics are the metrics compared against the baseline, in report
// order: allocation count, bytes allocated, event-engine throughput,
// sweep-engine cell throughput, distributed-merge throughput,
// end-to-end fleet throughput, integrity-scrub throughput, and
// streaming-ingest record throughput.
var gatedMetrics = []gatedMetric{
	{unit: "allocs_op", higherIsWorse: true},
	{unit: "B_op", higherIsWorse: true},
	{unit: "events_per_sec", higherIsWorse: false},
	{unit: "sweep_cells_per_sec", higherIsWorse: false},
	{unit: "sweep_merge_cells_per_sec", higherIsWorse: false},
	{unit: "fleet_cells_per_sec", higherIsWorse: false},
	{unit: "verify_mb_per_sec", higherIsWorse: false},
	{unit: "ingest_records_per_sec", higherIsWorse: false},
}

// ratioGate bounds the unit metric of benchmark num by max times the
// same metric of benchmark den, both from the current run — a shape a
// per-benchmark baseline cannot express, such as "cost does not grow
// with depth". A gate whose benchmarks did not both run is skipped.
type ratioGate struct {
	num, den, unit string
	max            float64
}

// ratioGates: an epoch close after 1000 epochs of history must cost at
// most twice one after a single epoch — close cost is bounded by the
// rows an epoch changes, not by the service's lifetime.
var ratioGates = []ratioGate{
	{num: "EpochClose/depth=1000", den: "EpochClose/depth=1", unit: "ns_op", max: 2},
}

// checkRatios reports every ratio gate the current results violate.
func checkRatios(cur map[string]map[string]float64) []string {
	var out []string
	for _, g := range ratioGates {
		n, okN := cur[g.num][g.unit]
		d, okD := cur[g.den][g.unit]
		if !okN || !okD || d <= 0 {
			continue
		}
		if n > g.max*d {
			out = append(out, fmt.Sprintf("%s: %s %.0f is %.2f× %s's %.0f (max %.2g×)", g.num, g.unit, n, n/d, g.den, d, g.max))
		}
	}
	return out
}

func main() {
	baseline := flag.String("baseline", "", "recorded BENCH json; fail if allocs_op regresses above it")
	flag.Parse()

	benches := map[string]map[string]float64{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		name, metrics, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		benches[name] = metrics
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benches); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	regressions := checkRatios(benches)
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var base map[string]map[string]float64
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		regressions = append(regressions, checkRegressions(benches, base)...)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "benchjson: %s\n", r)
		}
		os.Exit(1)
	}
}

// checkRegressions compares every gated metric of every baseline
// benchmark against the current results, reporting entries that drift
// past the slack in the failing direction. A baseline metric that is
// absent from the current run (renamed, or its bench crashed upstream)
// is itself a failure — otherwise the gate would silently stop
// enforcing anything.
func checkRegressions(cur, base map[string]map[string]float64) []string {
	var out []string
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, gm := range gatedMetrics {
			b, ok := base[name][gm.unit]
			if !ok {
				continue
			}
			c, ok := cur[name][gm.unit]
			if !ok {
				out = append(out, fmt.Sprintf("%s: baseline has %s %.0f but the metric is missing from the current run", name, gm.unit, b))
				continue
			}
			if gm.higherIsWorse {
				if limit := b * (1 + regressionSlack); c > limit {
					out = append(out, fmt.Sprintf("%s: %s %.0f exceeds baseline %.0f (+%d%% slack)",
						name, gm.unit, c, b, int(regressionSlack*100)))
				}
			} else if limit := b * (1 - regressionSlack); c < limit {
				out = append(out, fmt.Sprintf("%s: %s %.0f drops below baseline %.0f (-%d%% slack)",
					name, gm.unit, c, b, int(regressionSlack*100)))
			}
		}
	}
	return out
}

// parseBenchLine parses one `go test -bench` result line:
//
//	BenchmarkFig10-8   1   123456 ns/op   789 B/op   12 allocs/op   0 fn_pct
//
// The second field is the iteration count; the rest are value/unit
// pairs.
func parseBenchLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false
	}
	metrics := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		unit := strings.NewReplacer("/", "_", "%", "pct").Replace(fields[i+1])
		metrics[unit] = v
	}
	if len(metrics) == 0 {
		return "", nil, false
	}
	return name, metrics, true
}
