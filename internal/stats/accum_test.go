package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestWelford(t *testing.T) {
	vals := []float64{0.3, 0.1, 0.9, 0.4, 0.4, 0.05, 0.7}
	var w Welford
	for _, v := range vals {
		w.Add(v)
	}
	mean := Mean(vals)
	if math.Abs(w.Mean-mean) > 1e-12 {
		t.Fatalf("mean %v, want %v", w.Mean, mean)
	}
	varSum := 0.0
	for _, v := range vals {
		varSum += (v - mean) * (v - mean)
	}
	if want := varSum / float64(len(vals)); math.Abs(w.Var()-want) > 1e-12 {
		t.Fatalf("var %v, want %v", w.Var(), want)
	}
	var w1 Welford
	w1.Add(5)
	if w1.Var() != 0 || w1.Mean != 5 {
		t.Fatalf("single sample: mean=%v var=%v", w1.Mean, w1.Var())
	}
}

func TestSketchQuantiles(t *testing.T) {
	// 10k values with a known shape; the fixed-bin sketch must land
	// within a bin width of the exact quantile.
	n := 10000
	vals := make([]float64, n)
	for i := range vals {
		x := float64(i) / float64(n)
		vals[i] = x * x // quadratic ramp in [0,1)
	}
	sk := NewUnitSketch()
	// Insertion order must not matter beyond bin counts: add in a
	// scrambled deterministic order.
	for i := range vals {
		sk.Add(vals[(i*7919)%n])
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got := sk.Quantile(q)
		want := Quantile(sorted, q)
		if math.Abs(got-want) > 2.0/sketchBins {
			t.Fatalf("q%.0f: got %v want %v", q*100, got, want)
		}
	}
	if sk.Quantile(0) != sorted[0] || sk.Quantile(1) != sorted[n-1] {
		t.Fatal("extreme quantiles are not exact min/max")
	}
}

func TestSquashSketch(t *testing.T) {
	sk := NewSquashSketch()
	// Unbounded metric: values above 1 must still be ranked correctly.
	vals := []float64{0.1, 0.5, 1, 2, 4, 8, 16, 32, 64, 128}
	for _, v := range vals {
		sk.Add(v)
	}
	if got := sk.Quantile(1); got != 128 {
		t.Fatalf("max %v", got)
	}
	// The exact median is between 2 and 4; the fixed-bin estimate may
	// overshoot by up to one squashed bin width.
	med := sk.Quantile(0.5)
	if med < 1.9 || med > 4.5 {
		t.Fatalf("median %v out of [1.9,4.5]", med)
	}
	empty := NewSquashSketch()
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty sketch quantile not 0")
	}
}

// TestWelfordMergeMatchesSequential: the Chan-style moment merge
// agrees with the sequential fold to tight numerical tolerance across
// randomized splits.
func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()*10 + 5
		}
		var seq Welford
		for _, v := range vals {
			seq.Add(v)
		}
		cut := rng.Intn(n + 1)
		var a, b Welford
		for _, v := range vals[:cut] {
			a.Add(v)
		}
		for _, v := range vals[cut:] {
			b.Add(v)
		}
		a.Merge(b)
		if a.N != seq.N {
			t.Fatalf("trial %d: N %d vs %d", trial, a.N, seq.N)
		}
		if math.Abs(a.Mean-seq.Mean) > 1e-9*(1+math.Abs(seq.Mean)) {
			t.Fatalf("trial %d: mean %v vs %v", trial, a.Mean, seq.Mean)
		}
		if math.Abs(a.Var()-seq.Var()) > 1e-9*(1+seq.Var()) {
			t.Fatalf("trial %d: var %v vs %v", trial, a.Var(), seq.Var())
		}
	}
}

// TestSketchMergeExact: sketch merging is an exact semigroup sum —
// merged quantiles are bit-identical to the single-stream sketch.
func TestSketchMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(400)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.ExpFloat64()
		}
		whole := NewSquashSketch()
		for _, v := range vals {
			whole.Add(v)
		}
		cut := rng.Intn(n + 1)
		a, b := NewSquashSketch(), NewSquashSketch()
		for _, v := range vals[:cut] {
			a.Add(v)
		}
		for _, v := range vals[cut:] {
			b.Add(v)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
			if a.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("trial %d q=%v: %v vs %v", trial, q, a.Quantile(q), whole.Quantile(q))
			}
		}
	}
	if err := NewSquashSketch().Merge(NewUnitSketch()); err == nil {
		t.Fatal("cross-transform sketch merge accepted")
	}
}

// TestWireCheckRejects: every structural check of WelfordWire.Check and
// SketchWire.Check rejects its malformed document — the serve snapshot
// and the root's epoch reports admit accumulators from disk and from
// the network through exactly these checks — and a populated pair
// round-trips bit for bit.
func TestWireCheckRejects(t *testing.T) {
	var w Welford
	sk := NewUnitSketch()
	for _, x := range []float64{0.1, 0.25, 0.25, 0.9} {
		w.Add(x)
		sk.Add(x)
	}
	ww, sw := w.Wire(), sk.Wire()
	if got, err := ww.Check("w"); err != nil || got != w {
		t.Fatalf("welford round trip: %+v, %v (want %+v)", got, err, w)
	}
	if got, err := sw.Check("s", false); err != nil || *got != *sk {
		t.Fatalf("sketch round trip: %+v, %v", got, err)
	}

	nan := math.NaN()
	for _, tc := range []struct {
		name string
		w    WelfordWire
		want string
	}{
		{"negative count", WelfordWire{N: -1}, "negative count"},
		{"empty with mean", WelfordWire{Mean: 0.5}, "non-zero moments"},
		{"empty with m2", WelfordWire{M2: 0.5}, "non-zero moments"},
		{"nan mean", WelfordWire{N: 1, Mean: nan}, "out of domain"},
		{"infinite mean", WelfordWire{N: 1, Mean: math.Inf(1)}, "out of domain"},
		{"nan m2", WelfordWire{N: 2, M2: nan}, "out of domain"},
		{"infinite m2", WelfordWire{N: 2, M2: math.Inf(1)}, "out of domain"},
		{"negative m2", WelfordWire{N: 2, M2: -1}, "out of domain"},
	} {
		if _, err := tc.w.Check("w"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("welford %s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}

	withBins := func(n int, bins ...int) SketchWire {
		return SketchWire{Bins: bins, N: n, Min: 0.1, Max: 0.9}
	}
	for _, tc := range []struct {
		name   string
		w      SketchWire
		squash bool
		want   string
	}{
		{"wrong transform", sw, true, "wrong sketch transform"},
		{"negative count", SketchWire{N: -1}, false, "negative count"},
		{"odd bin list", withBins(1, 3), false, "odd sparse bin list"},
		{"bin below range", withBins(1, -1, 1), false, "outside [0,256)"},
		{"bin above range", withBins(1, sketchBins, 1), false, "outside [0,256)"},
		{"zero bin count", withBins(0, 3, 0), false, "invalid or duplicated"},
		{"negative bin count", withBins(1, 3, 2, 4, -1), false, "invalid or duplicated"},
		{"duplicated bin", withBins(2, 3, 1, 3, 1), false, "invalid or duplicated"},
		{"bins disagree with header", withBins(5, 3, 1), false, "header says 5"},
		{"nan min", SketchWire{Bins: []int{3, 1}, N: 1, Min: nan, Max: 0.9}, false, "out of order"},
		{"nan max", SketchWire{Bins: []int{3, 1}, N: 1, Min: 0.1, Max: nan}, false, "out of order"},
		{"min above max", SketchWire{Bins: []int{3, 1}, N: 1, Min: 0.9, Max: 0.1}, false, "out of order"},
		{"empty with extremes", SketchWire{Max: 0.5}, false, "non-zero extremes"},
	} {
		if _, err := tc.w.Check("s", tc.squash); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("sketch %s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
