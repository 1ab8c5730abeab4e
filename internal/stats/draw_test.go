package stats

import (
	"math"
	"testing"
)

// TestMix64MatchesSplitMix64: mix64 over SplitMix64's counters yields
// the reference generator's first outputs from state 0.
func TestMix64MatchesSplitMix64(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := mix64(golden * uint64(i+1)); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestDrawKnownAnswers pins keys and full draws to values computed by
// an independent arbitrary-precision implementation of the same
// definition. The draw is integer-only, so these hold on every
// architecture; a change here changes every Algorithm 2 output.
func TestDrawKnownAnswers(t *testing.T) {
	if got := DrawKey(1, 0, 0); got != 0x5e41ab087439611e {
		t.Fatalf("DrawKey(1,0,0) = %#x", got)
	}
	if got := DrawKey(-1, 5, 3); got != 0x4060a2b86e2c01ee {
		t.Fatalf("DrawKey(-1,5,3) = %#x", got)
	}
	cases := []struct {
		seed        int64
		path        int
		total, k, n int
		want        []int
	}{
		{1, 0, 1000, 30, 200, []int{4, 9, 4, 8, 5, 8, 3, 5, 5, 8, 6, 8}},
		{-7, 3, 450, 9, 100, []int{2, 3, 0, 2, 4, 1, 6, 3, 5, 2, 2, 2}},
		{2, 1, 120, 70, 40, []int{23, 27, 21, 23, 19, 18, 25, 18, 23, 27, 21, 23}},
	}
	for _, c := range cases {
		for interval, w := range c.want {
			if got := Hypergeometric(DrawKey(c.seed, interval, c.path), c.total, c.k, c.n); got != w {
				t.Fatalf("seed %d interval %d path %d: HG(%d,%d,%d) = %d, want %d",
					c.seed, interval, c.path, c.total, c.k, c.n, got, w)
			}
		}
	}
}

// TestBelowRejects pins below's rejection path, which the draws of
// Algorithm 2 reach with probability under n/2^64: at n = 3·2^62 a
// quarter of all inputs are rejected (inputs 2, 4 and 8 here) and
// re-hashed.
func TestBelowRejects(t *testing.T) {
	want := []uint64{0xa9987e2b1c565a43, 0x9a16feae6f18411c, 0x051345d26006f3fb, 0x2b032b53c77eb497,
		0x146b270fbd3e5774, 0x3ed8b749575efa2f, 0x2161f40e9773e628, 0x10970d38461e3367}
	for i, w := range want {
		if got := below(mix64(golden*uint64(i+1)), 3<<62); got != w {
			t.Fatalf("input %d: below = %#x, want %#x", i+1, got, w)
		}
	}
}

// hypergeometricPMF is the exact pmf P(X = x) for x successes among n
// items drawn without replacement from total items with k successes.
func hypergeometricPMF(total, k, n, x int) float64 {
	lchoose := func(a, b int) float64 {
		la, _ := math.Lgamma(float64(a + 1))
		lb, _ := math.Lgamma(float64(b + 1))
		lab, _ := math.Lgamma(float64(a - b + 1))
		return la - lb - lab
	}
	if x < 0 || x > k || n-x > total-k || n-x < 0 {
		return 0
	}
	return math.Exp(lchoose(k, x) + lchoose(total-k, n-x) - lchoose(total, n))
}

// TestHypergeometricChiSquare: the full counter-based draw, over keys of
// consecutive intervals and paths, fits the exact hypergeometric pmf.
// Bins with an expected count under 5 are pooled into their neighbour;
// the statistic is compared with the chi-square quantile at
// significance 0.001 (Wilson–Hilferty approximation).
func TestHypergeometricChiSquare(t *testing.T) {
	const draws = 20000
	for ci, c := range []struct{ total, k, n int }{
		{50, 10, 20},
		{60, 30, 30},
		{400, 8, 100},
		{1000, 30, 200},
		{5000, 40, 300},
		{120, 70, 40},
		{3000, 900, 25},
	} {
		counts := make([]float64, c.n+1)
		for i := 0; i < draws; i++ {
			counts[Hypergeometric(DrawKey(int64(ci), i/4, i%4), c.total, c.k, c.n)]++
		}
		var obs, exp []float64
		o, e := 0.0, 0.0
		for x := 0; x <= c.n; x++ {
			o += counts[x]
			e += draws * hypergeometricPMF(c.total, c.k, c.n, x)
			if e >= 5 {
				obs, exp = append(obs, o), append(exp, e)
				o, e = 0, 0
			}
		}
		if len(exp) == 0 {
			t.Fatalf("%+v: no bin reaches an expected count of 5", c)
		}
		obs[len(obs)-1] += o
		exp[len(exp)-1] += e
		chi := 0.0
		for i := range obs {
			d := obs[i] - exp[i]
			chi += d * d / exp[i]
		}
		df := float64(len(obs) - 1)
		const z = 3.090232306167813 // upper 0.001 normal quantile
		crit := df * math.Pow(1-2/(9*df)+z*math.Sqrt(2/(9*df)), 3)
		if chi > crit {
			t.Errorf("%+v: chi-square %.1f over %v bins exceeds %.1f", c, chi, len(obs), crit)
		}
	}
}

// TestAtLeastMatchesFullDraw: the early-exit decision equals the full
// draw's count compared with c, for the same key, on every parameter
// shape — so early exit is an optimisation of the same estimator.
func TestAtLeastMatchesFullDraw(t *testing.T) {
	r := NewRand(17)
	for i := 0; i < 100000; i++ {
		total := 1 + r.Intn(300)
		k := r.Intn(total + 1)
		if r.Intn(2) == 0 {
			k = r.Intn(min(total, 8) + 1) // losses near Algorithm 2's thresholds
		}
		n := r.Intn(total + 1)
		c := r.Intn(n+3) - 1
		key := DrawKey(r.Int63(), i, r.Intn(4))
		full := Hypergeometric(key, total, k, n)
		if got, want := AtLeast(key, total, k, n, c), full >= c; got != want {
			t.Fatalf("AtLeast(HG(%d,%d,%d), %d) = %v, full draw %d", total, k, n, c, got, full)
		}
	}
}
