package main

import (
	"strings"
	"testing"
)

func TestCheckRegressions(t *testing.T) {
	base := map[string]map[string]float64{
		"Fig8Set4":       {"allocs_op": 1000000, "B_op": 6e6, "events_per_sec": 9e6, "ns_op": 5e8},
		"Table1Defaults": {"allocs_op": 50},
		"NsOnly":         {"ns_op": 100},
	}
	ok := map[string]map[string]float64{
		"Fig8Set4": { // every gate within slack
			"allocs_op":      1000000 * 1.05,
			"B_op":           6e6 * 1.09,
			"events_per_sec": 9e6 * 0.92,
		},
		"Table1Defaults": {"allocs_op": 40},                        // improved
		"NsOnly":         {"ns_op": 500},                           // no gated metric in baseline: ignored
		"NewBench":       {"allocs_op": 1e12, "events_per_sec": 1}, // not in baseline: ignored
	}
	if got := checkRegressions(ok, base); len(got) != 0 {
		t.Fatalf("false regression: %v", got)
	}

	bad := map[string]map[string]float64{
		"Fig8Set4":       {"allocs_op": 1000000 * 1.5, "B_op": 6e6, "events_per_sec": 9e6},
		"Table1Defaults": {"allocs_op": 50},
	}
	if got := checkRegressions(bad, base); len(got) != 1 || !strings.Contains(got[0], "allocs_op") {
		t.Fatalf("alloc regression not flagged exactly once: %v", got)
	}
}

func TestCheckRegressionsBytesGate(t *testing.T) {
	base := map[string]map[string]float64{"Fig8Set4": {"B_op": 6e6}}
	bad := map[string]map[string]float64{"Fig8Set4": {"B_op": 6e6 * 1.2}}
	if got := checkRegressions(bad, base); len(got) != 1 || !strings.Contains(got[0], "B_op") {
		t.Fatalf("B_op regression not flagged: %v", got)
	}
	ok := map[string]map[string]float64{"Fig8Set4": {"B_op": 6e6 * 0.2}}
	if got := checkRegressions(ok, base); len(got) != 0 {
		t.Fatalf("improved B_op flagged: %v", got)
	}
}

func TestCheckRegressionsThroughputGate(t *testing.T) {
	base := map[string]map[string]float64{"Fig8Set4": {"events_per_sec": 9e6}}
	// Throughput gates in the opposite direction: lower is worse.
	bad := map[string]map[string]float64{"Fig8Set4": {"events_per_sec": 9e6 * 0.8}}
	if got := checkRegressions(bad, base); len(got) != 1 || !strings.Contains(got[0], "events_per_sec") {
		t.Fatalf("throughput regression not flagged: %v", got)
	}
	ok := map[string]map[string]float64{"Fig8Set4": {"events_per_sec": 9e6 * 2}}
	if got := checkRegressions(ok, base); len(got) != 0 {
		t.Fatalf("improved throughput flagged: %v", got)
	}
	// A faster-but-within-slack run passes.
	edge := map[string]map[string]float64{"Fig8Set4": {"events_per_sec": 9e6 * 0.91}}
	if got := checkRegressions(edge, base); len(got) != 0 {
		t.Fatalf("within-slack throughput flagged: %v", got)
	}
}

func TestCheckRegressionsMissing(t *testing.T) {
	base := map[string]map[string]float64{
		"Fig8Set4": {"allocs_op": 1000000, "events_per_sec": 9e6},
	}
	// A gated benchmark vanishing from the current run must fail, or the
	// gate fails open when a bench is renamed or crashes upstream.
	got := checkRegressions(map[string]map[string]float64{"Other": {"allocs_op": 1}}, base)
	if len(got) != 2 || !strings.Contains(got[0], "Fig8Set4") {
		t.Fatalf("missing gated bench not flagged per metric: %v", got)
	}
	// A single gated metric vanishing (benchmark still present) fails too.
	got = checkRegressions(map[string]map[string]float64{"Fig8Set4": {"allocs_op": 1000000}}, base)
	if len(got) != 1 || !strings.Contains(got[0], "events_per_sec") {
		t.Fatalf("missing gated metric not flagged: %v", got)
	}
}

func TestParseBenchLine(t *testing.T) {
	name, m, ok := parseBenchLine("BenchmarkFig8Set1-8  \t 1\t2491082917 ns/op\t  100.0 agreement_pct\t829746968 B/op\t 8440269 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if name != "Fig8Set1" {
		t.Fatalf("name = %q", name)
	}
	want := map[string]float64{
		"ns_op":         2491082917,
		"agreement_pct": 100,
		"B_op":          829746968,
		"allocs_op":     8440269,
	}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("%s = %v, want %v (all: %v)", k, m[k], v, m)
		}
	}
}

func TestParseBenchLineKeepsUnsuffixedName(t *testing.T) {
	name, _, ok := parseBenchLine("BenchmarkTable1Defaults 1 92833 ns/op")
	if !ok || name != "Table1Defaults" {
		t.Fatalf("name = %q ok=%v", name, ok)
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tneutrality\t91.676s",
		"Fig 8(a) neutral, c2 mean flow size sweep",
		"BenchmarkBroken-8 notanint 5 ns/op",
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Fatalf("accepted %q", line)
		}
	}
}

func TestCheckRegressionsSweepThroughputGate(t *testing.T) {
	base := map[string]map[string]float64{"SweepGrid": {"sweep_cells_per_sec": 250}}

	bad := map[string]map[string]float64{"SweepGrid": {"sweep_cells_per_sec": 250 * 0.8}}
	if got := checkRegressions(bad, base); len(got) != 1 || !strings.Contains(got[0], "sweep_cells_per_sec") {
		t.Fatalf("sweep throughput drop not caught: %v", got)
	}

	ok := map[string]map[string]float64{"SweepGrid": {"sweep_cells_per_sec": 250 * 1.5}}
	if got := checkRegressions(ok, base); len(got) != 0 {
		t.Fatalf("faster sweep flagged: %v", got)
	}

	within := map[string]map[string]float64{"SweepGrid": {"sweep_cells_per_sec": 250 * 0.91}}
	if got := checkRegressions(within, base); len(got) != 0 {
		t.Fatalf("within-slack drift flagged: %v", got)
	}

	missing := map[string]map[string]float64{"SweepGrid": {"ns_op": 1}}
	if got := checkRegressions(missing, base); len(got) != 1 || !strings.Contains(got[0], "missing") {
		t.Fatalf("missing sweep metric not caught: %v", got)
	}
}

func TestCheckRegressionsMergeThroughputGate(t *testing.T) {
	base := map[string]map[string]float64{"SweepMerge": {"sweep_merge_cells_per_sec": 10000}}

	bad := map[string]map[string]float64{"SweepMerge": {"sweep_merge_cells_per_sec": 10000 * 0.8}}
	if got := checkRegressions(bad, base); len(got) != 1 || !strings.Contains(got[0], "sweep_merge_cells_per_sec") {
		t.Fatalf("merge throughput drop not caught: %v", got)
	}

	ok := map[string]map[string]float64{"SweepMerge": {"sweep_merge_cells_per_sec": 10000 * 2}}
	if got := checkRegressions(ok, base); len(got) != 0 {
		t.Fatalf("faster merge flagged: %v", got)
	}

	missing := map[string]map[string]float64{"SweepMerge": {"ns_op": 1}}
	if got := checkRegressions(missing, base); len(got) != 1 || !strings.Contains(got[0], "missing") {
		t.Fatalf("missing merge metric not caught: %v", got)
	}
}

func TestCheckRatios(t *testing.T) {
	ok := map[string]map[string]float64{
		"EpochClose/depth=1":    {"ns_op": 3e6},
		"EpochClose/depth=1000": {"ns_op": 5.9e6},
	}
	if got := checkRatios(ok); len(got) != 0 {
		t.Fatalf("close within 2x flagged: %v", got)
	}
	bad := map[string]map[string]float64{
		"EpochClose/depth=1":    {"ns_op": 3e6},
		"EpochClose/depth=1000": {"ns_op": 6.1e6},
	}
	if got := checkRatios(bad); len(got) != 1 || !strings.Contains(got[0], "EpochClose/depth=1000") {
		t.Fatalf("close growth past 2x not flagged exactly once: %v", got)
	}
	// A run without both benchmarks leaves the gate to the baseline check.
	if got := checkRatios(map[string]map[string]float64{"EpochClose/depth=1000": {"ns_op": 1e9}}); len(got) != 0 {
		t.Fatalf("gate fired without its denominator: %v", got)
	}
}
