package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(1)
	f1 := r.Fork(1)
	f2 := r.Fork(2)
	same := 0
	for i := 0; i < 50; i++ {
		if f1.Float64() == f2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("forked streams look identical (%d/50 equal draws)", same)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(7)
	const mean, n = 10.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(mean)
	}
	got := sum / n
	if math.Abs(got-mean) > 0.2 {
		t.Fatalf("exponential mean = %v, want ~%v", got, mean)
	}
	if r.Exponential(0) != 0 || r.Exponential(-1) != 0 {
		t.Error("non-positive mean should return 0")
	}
}

func TestParetoMeanAndTail(t *testing.T) {
	r := NewRand(9)
	const mean, n = 10.0, 500000
	sum, over := 0.0, 0
	xm := mean * (ParetoShape - 1) / ParetoShape
	for i := 0; i < n; i++ {
		v := r.Pareto(mean, ParetoShape)
		if v < xm-1e-12 {
			t.Fatalf("Pareto draw %v below scale %v", v, xm)
		}
		sum += v
		if v > 10*mean {
			over++
		}
	}
	got := sum / n
	// Heavy tail: the empirical mean converges slowly; allow 15 %.
	if math.Abs(got-mean)/mean > 0.15 {
		t.Fatalf("Pareto mean = %v, want ~%v", got, mean)
	}
	// P(X > 10·mean) = (xm/10mean)^α ≈ 0.55 % for α=1.5.
	frac := float64(over) / n
	if frac < 0.002 || frac > 0.012 {
		t.Fatalf("tail fraction %v out of range", frac)
	}
}

func TestParetoInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for shape <= 1")
		}
	}()
	NewRand(1).Pareto(10, 1.0)
}

func TestHypergeometricBounds(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 2000; i++ {
		total := 1 + r.Intn(50)
		k := r.Intn(total + 1)
		n := r.Intn(total + 1)
		got := Hypergeometric(DrawKey(3, i, 0), total, k, n)
		lo := k + n - total
		if lo < 0 {
			lo = 0
		}
		hi := k
		if n < hi {
			hi = n
		}
		if got < lo || got > hi {
			t.Fatalf("HG(%d,%d,%d) = %d outside [%d,%d]", total, k, n, got, lo, hi)
		}
	}
}

func TestHypergeometricMean(t *testing.T) {
	const total, k, n, trials = 100, 30, 50, 50000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += Hypergeometric(DrawKey(5, i, 0), total, k, n)
	}
	got := float64(sum) / trials
	want := float64(n) * float64(k) / float64(total) // 15
	if math.Abs(got-want) > 0.1 {
		t.Fatalf("HG mean = %v, want ~%v", got, want)
	}
}

func TestHypergeometricEdges(t *testing.T) {
	key := DrawKey(1, 0, 0)
	if Hypergeometric(key, 10, 0, 5) != 0 {
		t.Error("k=0 should give 0")
	}
	if Hypergeometric(key, 10, 10, 5) != 5 {
		t.Error("all successes should give n")
	}
	if Hypergeometric(key, 10, 4, 10) != 4 {
		t.Error("sampling everything should give k")
	}
	if Hypergeometric(key, 10, 4, 0) != 0 {
		t.Error("n=0 should give 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Median-2.5) > 1e-12 || math.Abs(s.Mean-2.5) > 1e-12 {
		t.Fatalf("median/mean wrong: %+v", s)
	}
	if math.Abs(s.Q1-1.75) > 1e-12 || math.Abs(s.Q3-3.25) > 1e-12 {
		t.Fatalf("quartiles wrong: %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
	if empty.String() != "n=0" {
		t.Fatalf("empty string %q", empty.String())
	}
}

func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := append([]float64(nil), raw...)
		for i := range v {
			if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
				v[i] = 0
			}
		}
		s := Summarize(v)
		// Monotone: min <= q1 <= med <= q3 <= max.
		return s.Min <= s.Q1+1e-9 && s.Q1 <= s.Median+1e-9 &&
			s.Median <= s.Q3+1e-9 && s.Q3 <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{5}) != 0 {
		t.Error("empty/singleton edge cases wrong")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.138089935) > 1e-6 {
		t.Errorf("stddev = %v", got)
	}
}
