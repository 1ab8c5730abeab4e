// Package stats provides the statistical utilities shared across the
// repository: seeded deterministic RNG, the Pareto and exponential
// distributions that drive the paper's traffic model (Section 6.1),
// the counter-based hypergeometric draws behind Algorithm 2's packet
// discounting (draw.go: each draw a pure, integer-only function of its
// key, with an early-exit form that settles a threshold decision), and
// five-number summaries for the boxplot-style figures.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Rand is a deterministic random source. All stochastic components of this
// repository draw from an explicit *Rand so that a fixed seed reproduces a
// run exactly.
type Rand struct {
	*rand.Rand
}

// NewRand returns a seeded random source.
func NewRand(seed int64) *Rand {
	return &Rand{rand.New(rand.NewSource(seed))}
}

// Fork derives an independent stream labeled by id, so that subsystems can
// consume randomness without perturbing each other's sequences.
func (r *Rand) Fork(id int64) *Rand {
	const golden = int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64
	return NewRand(r.Int63() ^ (id * golden))
}

// Exponential draws from Exp with the given mean.
func (r *Rand) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.ExpFloat64() * mean
}

// ParetoShape is the shape parameter α used for flow sizes. Crovella &
// Bestavros (the paper's reference [9]) report web transfer sizes with
// heavy tails around α ≈ 1.1–1.5; we use 1.5 so the mean exists and the
// distribution remains strongly heavy-tailed.
const ParetoShape = 1.5

// Pareto draws from a Pareto distribution with the given mean and shape α>1.
// The scale x_m is chosen so that E[X] = α·x_m/(α−1) equals mean.
func (r *Rand) Pareto(mean, alpha float64) float64 {
	if mean <= 0 {
		return 0
	}
	if alpha <= 1 {
		panic(fmt.Sprintf("stats: Pareto shape %v has no mean", alpha))
	}
	xm := mean * (alpha - 1) / alpha
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Summary is a five-number summary plus mean — the data behind one boxplot.
type Summary struct {
	N                   int
	Min, Q1, Median, Q3 float64
	Max, Mean           float64
}

// Summarize computes the five-number summary of values. It returns a zero
// Summary when values is empty.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return Summary{
		N:      len(v),
		Min:    v[0],
		Q1:     Quantile(v, 0.25),
		Median: Quantile(v, 0.5),
		Q3:     Quantile(v, 0.75),
		Max:    v[len(v)-1],
		Mean:   sum / float64(len(v)),
	}
}

// String renders the summary in the compact form used by the experiment
// harness output.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// Quantile returns the q-quantile (0<=q<=1) of sorted values using linear
// interpolation between order statistics (type-7, the R/NumPy default).
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// StdDev returns the sample standard deviation (0 for n<2).
func StdDev(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	m := Mean(values)
	s := 0.0
	for _, v := range values {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}
