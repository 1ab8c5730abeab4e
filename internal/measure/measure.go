// Package measure implements the paper's measurement processing (Section
// 6.2 and Algorithm 2 in the appendix).
//
// Raw input is, per measurement interval t and path p, the number of
// packets sent M[t][p] and the number of those lost L[t][p]. To compare
// similarly sized traffic aggregates (and so avoid mistaking TCP dynamics
// for differentiation), Algorithm 2 normalizes each interval: every path is
// discounted to the minimum per-path packet count m by keeping m randomly
// chosen packets — the surviving loss count is a hypergeometric draw. A
// path is congestion-free in an interval when its (discounted) loss
// fraction is below the loss threshold; a pathset is congestion-free when
// all member paths are. The performance number of a pathset is
// y = −log P(congestion-free).
//
// The discount is order-free: the losses kept for path p in interval t
// are drawn from a counter-based hash of (slice seed, t, p, draw index)
// (stats.DrawKey), mapped to each draw's range by integer arithmetic
// alone, so every row stands on its own and reads the same on every
// architecture. The draw stops as soon as the congestion-free decision
// is settled (stats.AtLeast). With c the smallest loss count at or over
// the threshold, fewer than c losses is congestion-free with no draw;
// otherwise the draw ends at the c-th kept loss (congested) or once
// fewer than c can still be kept (congestion-free). It reads the same
// draws as the full hypergeometric draw, so the early exit leaves the
// decision's distribution unchanged. No generator state is kept
// between rows, so a processor holds no checkpoints: its memory is the
// bitsets, one bit per interval and path.
//
// A Processor is incremental: Update re-derives only the intervals from
// the first changed one on, so a caller whose table grows and changes
// near its end (the streaming service) pays O(rows changed) per update
// instead of O(T), and Perf scans only the bitset words from the first
// re-derived one. The result is byte-identical to a fresh NewProcessor
// because no row's draws depend on another's.
package measure

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"neutrality/internal/graph"
	"neutrality/internal/stats"
)

// Measurements holds raw per-interval per-path packet counts.
type Measurements struct {
	// Sent[t][p] is the number of packets path p sent in interval t;
	// Lost[t][p] is how many of those were lost. len(Sent) == len(Lost)
	// == Intervals(); len(Sent[t]) == number of paths.
	Sent, Lost [][]int
}

// NewMeasurements allocates a zeroed measurement table.
func NewMeasurements(intervals, paths int) *Measurements {
	m := &Measurements{
		Sent: make([][]int, intervals),
		Lost: make([][]int, intervals),
	}
	for t := range m.Sent {
		m.Sent[t] = make([]int, paths)
		m.Lost[t] = make([]int, paths)
	}
	return m
}

// Intervals returns the number of measurement intervals T.
func (m *Measurements) Intervals() int { return len(m.Sent) }

// NumPaths returns the number of paths covered.
func (m *Measurements) NumPaths() int {
	if len(m.Sent) == 0 {
		return 0
	}
	return len(m.Sent[0])
}

// Add accumulates counts for interval t and path p.
func (m *Measurements) Add(t int, p graph.PathID, sent, lost int) {
	m.Sent[t][p] += sent
	m.Lost[t][p] += lost
}

// EnsureIntervals grows the table to cover at least n intervals of
// `paths` paths each, so streamed records can land at any interval
// index without the caller pre-sizing the table. Existing rows are
// untouched; growing is idempotent.
func (m *Measurements) EnsureIntervals(n, paths int) {
	for len(m.Sent) < n {
		m.Sent = append(m.Sent, make([]int, paths))
		m.Lost = append(m.Lost, make([]int, paths))
	}
}

// Validate checks internal consistency. Failures are tagged with
// errkind.Validation: a table that fails here is malformed input, not
// an environmental error.
func (m *Measurements) Validate() error {
	if len(m.Sent) != len(m.Lost) {
		return errValidation("measure: %d sent intervals vs %d lost intervals", len(m.Sent), len(m.Lost))
	}
	for t := range m.Sent {
		if len(m.Sent[t]) != len(m.Lost[t]) {
			return errValidation("measure: interval %d: %d sent paths vs %d lost paths", t, len(m.Sent[t]), len(m.Lost[t]))
		}
		for p := range m.Sent[t] {
			if m.Lost[t][p] > m.Sent[t][p] {
				return errValidation("measure: interval %d path %d: lost %d > sent %d", t, p, m.Lost[t][p], m.Sent[t][p])
			}
			if m.Sent[t][p] < 0 || m.Lost[t][p] < 0 {
				return errValidation("measure: interval %d path %d: negative count", t, p)
			}
		}
	}
	return nil
}

// Options configures Algorithm 2.
type Options struct {
	// LossThreshold is the loss fraction below which a path counts as
	// congestion-free in an interval (paper default 0.01).
	LossThreshold float64
	// Normalize enables the paper's per-interval discounting to equal
	// aggregate sizes. Disabling it is the ablation knob.
	Normalize bool
	// Seed drives the hypergeometric discount sampling.
	Seed int64
	// Smoothing is the additive (Laplace-style) count used when converting
	// a congestion-free fraction to −log P, so that a pathset observed
	// congestion-free in all T intervals yields a finite y. P̂ =
	// (count + Smoothing) / (T + Smoothing). Zero disables smoothing
	// (y may be +Inf when P̂ = 0).
	Smoothing float64
}

// DrawScheme names the discount draw Algorithm 2 uses. Every verdict
// depends on it, so stores that persist verdicts or resume inference
// (the serve journal, sweep directories) record it in their identity
// and refuse state written under another scheme — the sequential
// math/rand-stream sampler before it wrote none.
const DrawScheme = "counter-splitmix64-v2"

// DefaultOptions mirror the paper: 1 % loss threshold, normalization on.
func DefaultOptions() Options {
	return Options{LossThreshold: 0.01, Normalize: true, Seed: 1, Smoothing: 0.5}
}

// PathsetPerf is the processed performance of one pathset.
type PathsetPerf struct {
	Pathset graph.Pathset
	// Prob is P(θ): the fraction of usable intervals in which every member
	// path was congestion-free.
	Prob float64
	// Y is the performance number −log P̂ (smoothed).
	Y float64
	// CongestionProb is 1 − Prob, the quantity Figure 8 plots.
	CongestionProb float64
	// Intervals is the number of usable intervals (those where every
	// member path sent at least one packet).
	Intervals int
}

// Processor computes pathset performance numbers from raw measurements for
// a fixed set of paths (typically Paths(τ) of one slice). It normalizes
// once across those paths and then serves any pathset over them.
//
// A Processor is also incremental: Update re-derives only the rows from
// a given interval on and yields bytes identical to a fresh
// NewProcessor over the updated table. The per-path indicators are
// bitsets over intervals, so Perf is an AND and a popcount per 64
// intervals; it keeps each pathset's count over the words below the
// first re-derived one, so a Perf after an Update scans only the words
// from there on.
type Processor struct {
	paths []graph.PathID
	opts  Options

	// rows is the number of intervals derived. cf[i] is the
	// congestion-free bitset of paths[i] over intervals; usable has bit t
	// clear when some path sent nothing in interval t; nUsable counts
	// usable's set bits.
	rows    int
	cf      [][]uint64
	usable  []uint64
	nUsable int

	// goods caches Perf's count per pathset, keyed by its member
	// indices into paths.
	goods map[string]*goodCount
}

// goodCount is one pathset's count of good intervals (usable, every
// member congestion-free) over the bitset words [0, upto).
type goodCount struct {
	idx        []int
	upto, good int
}

// NewProcessor runs the per-path half of Algorithm 2 (normalization +
// congestion-free indicators) over the given paths.
//
// Deviation from the paper's pseudocode: intervals in which some path of
// the group sent zero packets are skipped rather than marked congested —
// Algorithm 2's literal `m = 0` case would classify an idle interval as
// congestion for every path, poisoning P(θ) with application silence
// rather than network behaviour.
func NewProcessor(meas *Measurements, paths []graph.PathID, opts Options) *Processor {
	p := &Processor{
		paths: append([]graph.PathID(nil), paths...),
		opts:  opts,
		cf:    make([][]uint64, len(paths)),
		goods: make(map[string]*goodCount),
	}
	p.Update(meas, 0)
	return p
}

// Update brings the processor up to date with meas, given that rows
// before from are unchanged since the last derivation (the table may
// have grown). It re-derives rows [from, meas.Intervals()), and
// afterwards the processor is byte-identical to NewProcessor(meas,
// ...). from is clamped to the rows derived so far, so Update(meas, 0)
// and any from on a processor that has seen fewer rows re-derive
// conservatively; rows the table no longer has are dropped.
func (p *Processor) Update(meas *Measurements, from int) {
	T := meas.Intervals()
	from = max(0, min(from, p.rows, T))
	// Retract the counts over the words about to change.
	w0 := from / 64
	p.nUsable -= p.count(nil, w0, len(p.usable))
	for _, g := range p.goods {
		if g.upto > w0 {
			g.good -= p.count(g.idx, w0, g.upto)
			g.upto = w0
		}
	}
	words := (T + 63) / 64
	p.usable = resizeWords(p.usable, words)
	for i := range p.cf {
		p.cf[i] = resizeWords(p.cf[i], words)
	}
	for t := from; t < T; t++ {
		p.deriveRow(meas, t)
	}
	p.rows = T
	if T%64 != 0 {
		// Drop bits of rows a shrunken table no longer has.
		mask := uint64(1)<<(T%64) - 1
		p.usable[words-1] &= mask
		for i := range p.cf {
			p.cf[i][words-1] &= mask
		}
	}
	p.nUsable += p.count(nil, w0, words)
}

// count returns the good intervals of the pathset with member indices
// idx over bitset words [lo, hi): those usable and congestion-free on
// every member. A nil idx counts usable intervals.
func (p *Processor) count(idx []int, lo, hi int) int {
	n := 0
	for w := lo; w < hi; w++ {
		x := p.usable[w]
		for _, i := range idx {
			x &= p.cf[i][w]
		}
		n += bits.OnesCount64(x)
	}
	return n
}

// deriveRow runs Algorithm 2 on interval t: discount every path to the
// group's minimum packet count m and set its congestion-free bit.
func (p *Processor) deriveRow(meas *Measurements, t int) {
	w, bit := t/64, uint64(1)<<(t%64)
	m := math.MaxInt
	for _, pid := range p.paths {
		if s := meas.Sent[t][pid]; s < m {
			m = s
		}
	}
	if m <= 0 || m == math.MaxInt {
		p.usable[w] &^= bit
		for i := range p.cf {
			p.cf[i][w] &^= bit
		}
		return
	}
	p.usable[w] |= bit
	c := congestedAt(p.opts.LossThreshold, m)
	for i, pid := range p.paths {
		sent, lost := meas.Sent[t][pid], meas.Lost[t][pid]
		var free bool
		if p.opts.Normalize && sent > m {
			// Keep m of the path's sent packets; it is congested when
			// at least c of them are lost.
			free = !stats.AtLeast(stats.DrawKey(p.opts.Seed, t, int(pid)), sent, lost, m, c)
		} else {
			free = float64(lost)/float64(sent) < p.opts.LossThreshold
		}
		if free {
			p.cf[i][w] |= bit
		} else {
			p.cf[i][w] &^= bit
		}
	}
}

// congestedAt is the smallest loss count c with float64(c)/float64(m) >=
// threshold, or m+1 when no count up to m reaches it: of m kept packets,
// c or more lost is exactly the loss fraction that is not below the
// threshold, division rounding included.
func congestedAt(threshold float64, m int) int {
	x := threshold * float64(m)
	c := 0
	switch {
	case !(x > 0): // also NaN: no fraction is below it
	case x > float64(m):
		c = m + 1
	default:
		c = int(math.Ceil(x))
	}
	for c > 0 && float64(c-1)/float64(m) >= threshold {
		c--
	}
	for c <= m && float64(c)/float64(m) < threshold {
		c++
	}
	return c
}

// resizeWords returns b with exactly n words, zero-extending it.
func resizeWords(b []uint64, n int) []uint64 {
	if n <= len(b) {
		return b[:n]
	}
	return append(b, make([]uint64, n-len(b))...)
}

// UsableIntervals returns how many intervals carry information.
func (p *Processor) UsableIntervals() int { return p.nUsable }

// Perf computes the performance of one pathset over the processor's paths.
// It panics if the pathset contains a path outside the processor's group.
func (p *Processor) Perf(ps graph.Pathset) PathsetPerf {
	var kb [64]byte
	var ib [8]int
	key, idx := kb[:0], ib[:0]
	for _, pid := range ps {
		found := -1
		for i, q := range p.paths {
			if q == pid {
				found = i
				break
			}
		}
		if found < 0 {
			panic(fmt.Sprintf("measure: pathset path %d not covered by processor", pid))
		}
		key = binary.AppendUvarint(key, uint64(found))
		idx = append(idx, found)
	}
	g := p.goods[string(key)]
	if g == nil {
		g = &goodCount{idx: append([]int(nil), idx...)}
		p.goods[string(key)] = g
	}
	// An interval counts as good when it is usable and every member
	// path is congestion-free in it.
	g.good += p.count(g.idx, g.upto, len(p.usable))
	g.upto = len(p.usable)
	good, total := g.good, p.nUsable
	pp := PathsetPerf{Pathset: ps, Intervals: total}
	if total == 0 {
		pp.Prob, pp.CongestionProb, pp.Y = 1, 0, 0
		return pp
	}
	pp.Prob = float64(good) / float64(total)
	pp.CongestionProb = 1 - pp.Prob
	sm := p.opts.Smoothing
	ph := (float64(good) + sm) / (float64(total) + sm)
	if ph <= 0 {
		pp.Y = math.Inf(1)
	} else {
		pp.Y = -math.Log(ph)
	}
	return pp
}

// YFunc adapts the processor to the y-lookup signature the slice systems
// consume.
func (p *Processor) YFunc() func(graph.Pathset) float64 {
	return func(ps graph.Pathset) float64 { return p.Perf(ps).Y }
}

// PathCongestionProb returns, for each path of the network, the fraction of
// its own non-idle intervals in which it was congested (no cross-path
// normalization). This is what Figure 8 plots per path.
func PathCongestionProb(meas *Measurements, lossThreshold float64) []float64 {
	out := make([]float64, meas.NumPaths())
	for pid := range out {
		congested, total := 0, 0
		for t := 0; t < meas.Intervals(); t++ {
			sent := meas.Sent[t][pid]
			if sent == 0 {
				continue
			}
			total++
			if float64(meas.Lost[t][pid])/float64(sent) >= lossThreshold {
				congested++
			}
		}
		if total > 0 {
			out[pid] = float64(congested) / float64(total)
		}
	}
	return out
}
