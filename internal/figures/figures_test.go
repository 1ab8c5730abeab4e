package figures

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// tiny is a unit-test scale: enough intervals to exercise the full
// emulation+inference path, far too few for paper-quality verdicts.
var tiny = Scale{Factor: 0.1, DurationSec: 30}

func TestTable1Content(t *testing.T) {
	s := Table1()
	for _, want := range []string{"Bottleneck capacity", "*100", "Loss threshold", "*1, 5, 10", "CUBIC"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable3Content(t *testing.T) {
	s := Table3()
	for _, want := range []string{"Dark gray", "Light gray", "White", "10Gb", "1 x 1Mb"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, s)
		}
	}
}

func TestAblationPairObservations(t *testing.T) {
	r := AblationPairObservations()
	if !r.Pass {
		t.Fatalf("pair-observation ablation should pass:\n%s", r)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows: %v", r.Rows)
	}
}

func TestAblationClustering(t *testing.T) {
	r, err := AblationClustering(Exec{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("clustering ablation should pass:\n%s", r)
	}
}

func TestBaselineComparison(t *testing.T) {
	r, err := BaselineComparison(5)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("baseline comparison should pass:\n%s", r)
	}
}

// TestFig8SetSmall runs the cheapest Figure 8 set (set 3: two experiments)
// at a tiny scale to exercise the full harness path in tests.
func TestFig8SetSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation harness test")
	}
	rs, err := Fig8(Exec{}, Quick, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Agreement != 2 {
		t.Fatalf("neutral CCA sweep disagreed with paper:\n%s", r)
	}
	if !strings.Contains(r.String(), "agreement with paper: 2/2") {
		t.Fatalf("render wrong:\n%s", r)
	}
}

// TestFig10Render checks the boxplot rendering on a reduced topology-B run
// and pins its rendered bytes — Fig 10(a) is the one artifact built on
// the collector's per-link ground truth — to a recorded digest.
//
// If an intentional behaviour change ever invalidates the digest,
// regenerate it with:
//
//	go test ./internal/figures -run TestFig10Render -update-golden
func TestFig10Render(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation harness test")
	}
	r, err := Fig10(Exec{}, Scale{Factor: 0.3, DurationSec: 120}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"Fig 10(a)", "Fig 10(b)", "* l5", "granularity"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig 10 output missing %q", want)
		}
	}
	if r.Sequences < 10 {
		t.Fatalf("only %d sequences", r.Sequences)
	}
	checkDigest(t, "fig10_scale03_120s_seed1.sha256", s)
}

// TestFig8DeterministicAcrossWorkers: the rendered set output is
// byte-identical between one worker and a wide pool — the engine's core
// guarantee (ISSUE 1 acceptance criterion).
func TestFig8DeterministicAcrossWorkers(t *testing.T) {
	for _, set := range []int{1, 6} {
		refs, err := Fig8(Exec{Workers: 1}, tiny, 1, set)
		if err != nil {
			t.Fatal(err)
		}
		ref := refs[0]
		for _, workers := range []int{2, 4, 0} {
			rs, err := Fig8(Exec{Workers: workers}, tiny, 1, set)
			if err != nil {
				t.Fatal(err)
			}
			r := rs[0]
			if r.String() != ref.String() {
				t.Fatalf("set %d workers=%d diverged from workers=1:\n%s\nvs\n%s",
					set, workers, r, ref)
			}
		}
	}
}

// TestFig8AllMatchesPerSet: the flattened 34-unit batch reproduces the
// nine per-set results byte for byte.
func TestFig8AllMatchesPerSet(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation harness test")
	}
	all, err := Fig8(Exec{Workers: 4}, tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 9 {
		t.Fatalf("got %d sets", len(all))
	}
	for i, r := range all {
		if r.Set != i+1 {
			t.Fatalf("set order: got %d at position %d", r.Set, i)
		}
		refs, err := Fig8(Exec{}, tiny, 1, r.Set)
		if err != nil {
			t.Fatal(err)
		}
		ref := refs[0]
		if r.String() != ref.String() {
			t.Fatalf("set %d: batch output diverged from per-set run:\n%s\nvs\n%s", r.Set, r, ref)
		}
	}
}

// TestSweepCancellation: a cancelled context aborts sweeps before any
// unit runs, and the single-run artifacts before their emulation
// finishes.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := Exec{Ctx: ctx}
	if _, err := Fig8(x, tiny, 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig8 err = %v", err)
	}
	if _, err := IntervalSweep(x, tiny, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("IntervalSweep err = %v", err)
	}
	if _, err := LossThresholdSweep(x, tiny, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("LossThresholdSweep err = %v", err)
	}
	if _, err := Fig10(x, tiny, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig10 err = %v", err)
	}
	if _, err := Fig11(x, tiny, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig11 err = %v", err)
	}
	if _, err := AblationDelayMetric(x, tiny, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("AblationDelayMetric err = %v", err)
	}
}

// TestIntervalSweepDeterministicAcrossWorkers: sweep output is stable
// across pool widths.
func TestIntervalSweepDeterministicAcrossWorkers(t *testing.T) {
	ref, err := IntervalSweep(Exec{Workers: 1}, tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := IntervalSweep(Exec{Workers: 3}, tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != ref.String() {
		t.Fatalf("interval sweep diverged:\n%s\nvs\n%s", r, ref)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "(no trace)" {
		t.Fatalf("nil trace: %q", got)
	}
}
