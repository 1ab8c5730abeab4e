package stats

import (
	"fmt"
	"math"
)

// Streaming accumulators shared by the sweep aggregates and the
// streaming service's loss folds. Both fold deterministically (the
// same ordered stream gives bit-identical state) and merge; see
// internal/sweep's package comment for the merge laws. Their wire
// forms carry them across a disk or a network: encoding/json's
// shortest round-tripping float64 makes decode(encode(x)) bit-exact,
// and Check validates every structural invariant before the bytes are
// trusted.

// Welford is the numerically stable streaming mean/variance
// accumulator.
type Welford struct {
	N    int
	Mean float64
	m2   float64
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.N++
	d := x - w.Mean
	w.Mean += d / float64(w.N)
	w.m2 += d * (x - w.Mean)
}

// Merge folds another accumulator in (Chan et al.'s parallel
// update). Merging with an empty side is exact; otherwise the result
// matches the sequential fold of both observation streams to
// floating-point rounding.
func (w *Welford) Merge(o Welford) {
	if o.N == 0 {
		return
	}
	if w.N == 0 {
		*w = o
		return
	}
	na, nb := float64(w.N), float64(o.N)
	n := na + nb
	delta := o.Mean - w.Mean
	w.Mean += delta * nb / n
	w.m2 += o.m2 + delta*delta*na*nb/n
	w.N += o.N
}

// Var returns the population variance (0 for fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.N < 2 {
		return 0
	}
	return w.m2 / float64(w.N)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Var()) }

// WelfordWire is the wire form of a Welford accumulator.
type WelfordWire struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// Wire renders the accumulator as its wire form.
func (w *Welford) Wire() WelfordWire { return WelfordWire{N: w.N, Mean: w.Mean, M2: w.m2} }

// Check rebuilds an accumulator from its wire form, validating every
// structural invariant; name prefixes the error.
func (w WelfordWire) Check(name string) (Welford, error) {
	if w.N < 0 {
		return Welford{}, fmt.Errorf("%s: negative count %d", name, w.N)
	}
	if w.N == 0 && (w.Mean != 0 || w.M2 != 0) {
		return Welford{}, fmt.Errorf("%s: empty accumulator with non-zero moments", name)
	}
	if math.IsNaN(w.Mean) || math.IsInf(w.Mean, 0) || math.IsNaN(w.M2) || math.IsInf(w.M2, 0) || w.M2 < 0 {
		return Welford{}, fmt.Errorf("%s: moments out of domain (mean=%v m2=%v)", name, w.Mean, w.M2)
	}
	return Welford{N: w.N, Mean: w.Mean, m2: w.M2}, nil
}

// sketchBins is the fixed resolution of a quantile sketch: quantile
// estimates are exact to one part in sketchBins of the squashed value
// range, which is far below the run-to-run noise of any sweep metric.
const sketchBins = 256

// Sketch is a bounded-memory streaming quantile estimator: a
// fixed-bin histogram over [0,1) of the squashed observation
// x/(1+x) for unbounded metrics, or of x itself for metrics already
// in [0,1]. Exact min/max are tracked so the extreme quantiles stay
// sharp. Unlike P², the fold is a pure bin increment, so sketches
// built from the same ordered stream are bit-identical and two
// sketches merge bin-wise.
type Sketch struct {
	bins     [sketchBins]int
	n        int
	min, max float64
	// squash marks the x/(1+x) transform for unbounded metrics.
	squash bool
}

// NewUnitSketch sketches a metric already bounded in [0,1].
func NewUnitSketch() *Sketch { return &Sketch{} }

// NewSquashSketch sketches an unbounded non-negative metric through
// the x/(1+x) transform.
func NewSquashSketch() *Sketch { return &Sketch{squash: true} }

// Add folds one observation in.
func (s *Sketch) Add(x float64) {
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	y := x
	if s.squash {
		y = x / (1 + x)
	}
	b := int(y * sketchBins)
	if b < 0 {
		b = 0
	}
	if b >= sketchBins {
		b = sketchBins - 1
	}
	s.bins[b]++
}

// Merge folds another sketch in bin-wise. Both sketches must use the
// same transform. Bin counts and min/max are exact semigroup sums, so
// sketch merging is associative and commutative outright: merged
// quantiles are bit-identical whatever the merge order.
func (s *Sketch) Merge(o *Sketch) error {
	if s.squash != o.squash {
		return fmt.Errorf("stats: merging sketches with different transforms")
	}
	if o.n == 0 {
		return nil
	}
	if s.n == 0 {
		*s = *o // value copy: bins is an array
		return nil
	}
	for b := range s.bins {
		s.bins[b] += o.bins[b]
	}
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	return nil
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the bin
// holding the q·n-th observation and interpolating linearly inside
// it, clamped to the exact observed [min, max]. Quantile(0) and
// Quantile(1) are the exact min and max.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := q * float64(s.n)
	cum := 0.0
	for b := 0; b < sketchBins; b++ {
		c := float64(s.bins[b])
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			// Interpolate within the bin's value range.
			frac := (rank - cum) / c
			y := (float64(b) + frac) / sketchBins
			x := y
			if s.squash {
				x = y / (1 - y)
			}
			if x < s.min {
				x = s.min
			}
			if x > s.max {
				x = s.max
			}
			return x
		}
		cum += c
	}
	return s.max
}

// SketchWire is the wire form of a Sketch.
type SketchWire struct {
	Bins   []int   `json:"bins,omitempty"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Squash bool    `json:"squash"`
}

// Wire renders the sketch as its wire form.
func (s *Sketch) Wire() SketchWire {
	w := SketchWire{N: s.n, Min: s.min, Max: s.max, Squash: s.squash}
	// Bins are emitted sparsely as (index, count) pairs flattened into
	// one list — most cells of a 256-bin sketch are empty.
	for b, c := range s.bins {
		if c != 0 {
			w.Bins = append(w.Bins, b, c)
		}
	}
	return w
}

// Check rebuilds a sketch from its wire form, validating bin structure
// and extremes; squash pins the expected transform and name prefixes
// the error.
func (w SketchWire) Check(name string, squash bool) (*Sketch, error) {
	if w.Squash != squash {
		return nil, fmt.Errorf("%s: wrong sketch transform", name)
	}
	if w.N < 0 {
		return nil, fmt.Errorf("%s: negative count %d", name, w.N)
	}
	if len(w.Bins)%2 != 0 {
		return nil, fmt.Errorf("%s: odd sparse bin list length %d", name, len(w.Bins))
	}
	s := &Sketch{n: w.N, min: w.Min, max: w.Max, squash: w.Squash}
	sum := 0
	for i := 0; i < len(w.Bins); i += 2 {
		b, c := w.Bins[i], w.Bins[i+1]
		if b < 0 || b >= sketchBins {
			return nil, fmt.Errorf("%s: bin index %d outside [0,%d)", name, b, sketchBins)
		}
		if c <= 0 || s.bins[b] != 0 {
			return nil, fmt.Errorf("%s: bin %d count %d invalid or duplicated", name, b, c)
		}
		s.bins[b] = c
		sum += c
	}
	if sum != w.N {
		return nil, fmt.Errorf("%s: bins hold %d observations, header says %d", name, sum, w.N)
	}
	if math.IsNaN(w.Min) || math.IsNaN(w.Max) || (w.N > 0 && w.Min > w.Max) {
		return nil, fmt.Errorf("%s: min/max out of order (%v, %v)", name, w.Min, w.Max)
	}
	if w.N == 0 && (w.Min != 0 || w.Max != 0) {
		return nil, fmt.Errorf("%s: empty sketch with non-zero extremes", name)
	}
	return s, nil
}
