// Package core implements the paper's primary contribution: Algorithm 1
// (Section 5), which takes the network graph and external observations and
// outputs the set of identifiable non-neutral link sequences, plus the
// post-pass that removes redundant sequences and the quality metrics
// (false-negative rate, false-positive rate, granularity) used in the
// evaluation.
//
// Two decision modes are provided:
//
//   - Exact: System 4 solvability is decided by a rank (Rouché–Capelli)
//     test. Appropriate for noise-free observations (theory tests,
//     synthetic exact observations).
//   - Clustered: the paper's practical rule (Section 6.2) — each slice's
//     unsolvability is the spread of its per-path-pair estimates of x_τ,
//     the spreads are clustered into two groups, and the high cluster is
//     declared non-neutral. Appropriate for measured observations.
//
// Measured observations come from Algorithm 2 per slice: in batch via
// MeasurementObserver, or via IncrementalObserver when the same table
// is re-inferred as it grows. The incremental form re-normalizes only
// the rows changed since its last inference — close cost O(rows
// changed) instead of O(history) — with byte-identical results: every
// row's discount draws are a function of that row alone.
package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"neutrality/internal/cluster"
	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/nslice"
)

// Observer supplies pathset performance numbers to the inference. The
// lookup may depend on the slice under test, because Algorithm 2
// normalizes the raw measurements across the paths of each slice
// separately (Section 6.2).
type Observer interface {
	// Y returns the pathset-performance lookup to use for slice s.
	Y(s *nslice.Slice) func(graph.Pathset) float64
}

// YFunc adapts a slice-independent lookup (e.g. exact synthetic
// observations) to the Observer interface.
type YFunc func(graph.Pathset) float64

// Y implements Observer.
func (f YFunc) Y(*nslice.Slice) func(graph.Pathset) float64 { return f }

// MeasurementObserver runs Algorithm 2 over raw packet counts per slice
// (over that slice's involved paths), as the paper prescribes. Each Y
// call normalizes the whole table from scratch; IncrementalObserver is
// the form that keeps its normalizations across a growing table.
type MeasurementObserver struct {
	Meas *measure.Measurements
	Opts measure.Options
}

// Y implements Observer.
func (m MeasurementObserver) Y(s *nslice.Slice) func(graph.Pathset) float64 {
	return measure.NewProcessor(m.Meas, s.Paths, sliceOptions(m.Opts, nslice.Key(s.Seq))).YFunc()
}

// sliceOptions derives slice key's Algorithm 2 options: a per-slice
// seed, so runs are deterministic but slices draw independent discount
// samples.
func sliceOptions(opts measure.Options, key string) measure.Options {
	h := fnv.New64a()
	h.Write([]byte(key))
	opts.Seed ^= int64(h.Sum64())
	return opts
}

// IncrementalObserver is MeasurementObserver for a table that changes
// between inferences: it keeps one measure.Processor per slice and, at
// each inference, re-derives only the rows changed since that slice's
// last one (see measure.Processor.Update). Its lookups are
// byte-identical to MeasurementObserver's over the same table, so
// streaming and batch inference agree exactly.
//
// Call Update with the table before each Infer. An IncrementalObserver
// is not safe for concurrent use; callers run their inferences one at
// a time, in table order.
type IncrementalObserver struct {
	Opts measure.Options

	meas  *measure.Measurements
	procs map[string]*sliceProc
}

// sliceProc is one slice's cached processor and the lowest row changed
// since it was last brought up to date.
type sliceProc struct {
	p     *measure.Processor
	dirty int
}

// Update points the observer at the table the next inference reads:
// the previous table with rows from `from` on changed (and possibly
// more rows). A from at or past the previous table's end marks only new
// rows; a fresh observer derives everything regardless.
func (o *IncrementalObserver) Update(meas *measure.Measurements, from int) {
	o.meas = meas
	for _, sp := range o.procs {
		sp.dirty = min(sp.dirty, from)
	}
}

// Y implements Observer.
func (o *IncrementalObserver) Y(s *nslice.Slice) func(graph.Pathset) float64 {
	key := nslice.Key(s.Seq)
	sp := o.procs[key]
	if sp == nil {
		if o.procs == nil {
			o.procs = make(map[string]*sliceProc)
		}
		sp = &sliceProc{p: measure.NewProcessor(o.meas, s.Paths, sliceOptions(o.Opts, key))}
		o.procs[key] = sp
	} else {
		sp.p.Update(o.meas, sp.dirty)
	}
	sp.dirty = math.MaxInt
	return sp.p.YFunc()
}

// Mode selects the System 4 solvability decision procedure.
type Mode int

const (
	// Clustered uses per-pair estimate spread + 2-means (paper §6.2).
	Clustered Mode = iota
	// Exact uses a rank-based consistency test (for noise-free inputs).
	Exact
)

func (m Mode) String() string {
	switch m {
	case Clustered:
		return "clustered"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes Infer.
type Config struct {
	Mode Mode
	// MinGap is the clustering collapse guard (Clustered mode);
	// <= 0 uses cluster.DefaultMinGap.
	MinGap float64
	// Tol is the rank tolerance (Exact mode); <= 0 uses the matrix default.
	Tol float64
	// KeepRedundant skips the redundancy-removal post-pass.
	KeepRedundant bool
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config { return Config{Mode: Clustered} }

// Verdict is the per-slice outcome of Algorithm 1.
type Verdict struct {
	Slice         *nslice.Slice
	Estimates     []nslice.PairEstimate
	Unsolvability float64
	// NonNeutral is the classification before redundancy removal.
	NonNeutral bool
	// Redundant marks sequences removed by the post-pass.
	Redundant bool
}

// SeqNames renders the slice's link sequence.
func (v *Verdict) SeqNames() string { return v.Slice.SeqNames() }

// ClassEstimates groups the verdict's pair estimates by performance class:
// a pair entirely in class c estimates x̂_τ(c); a mixed pair estimates the
// top-priority class's x̂_τ(n*) (Lemma 3's proof), so it is attributed to
// topClass. This grouping generates the paper's Figure 10(b) boxplots.
func (v *Verdict) ClassEstimates(topClass graph.ClassID) map[graph.ClassID][]float64 {
	out := map[graph.ClassID][]float64{}
	for _, e := range v.Estimates {
		c := topClass
		if e.SameClass {
			c = e.Class
		}
		out[c] = append(out[c], e.X)
	}
	return out
}

// Result is the full output of Infer.
type Result struct {
	Net *graph.Network
	// Candidates are the slices admitted by Algorithm 1 (>= 2 path
	// pairs), with their verdicts, sorted by the slice's link-sequence
	// key (nslice.Key over the ID-sorted sequence — the order
	// nslice.Enumerate yields). The documented key makes the order a
	// property of the network alone: it never depends on map iteration
	// or on how many workers ran the surrounding sweep.
	Candidates []*Verdict
	// TooFewPairs lists the slices discarded by line 10 of Algorithm 1
	// (fewer than 5 pathsets, i.e. fewer than 2 path pairs), in the
	// same key order as Candidates.
	TooFewPairs []*nslice.Slice
	// Cluster is the unsolvability split used (Clustered mode).
	Cluster cluster.Result
	// Config echoes the configuration.
	Config Config
}

// NonNeutralSeqs returns Σn̄ after redundancy removal (or before, if the
// config kept redundant sequences): the verdicts classified non-neutral.
func (r *Result) NonNeutralSeqs() []*Verdict {
	var out []*Verdict
	for _, v := range r.Candidates {
		if v.NonNeutral && !v.Redundant {
			out = append(out, v)
		}
	}
	return out
}

// NetworkNonNeutral reports whether any candidate was classified
// non-neutral — the network-level detection verdict.
func (r *Result) NetworkNonNeutral() bool {
	for _, v := range r.Candidates {
		if v.NonNeutral {
			return true
		}
	}
	return false
}

// Infer runs Algorithm 1 over the network with the given observer.
func Infer(n *graph.Network, obs Observer, cfg Config) *Result {
	res := &Result{Net: n, Config: cfg}
	type sliceY struct {
		v *Verdict
		y func(graph.Pathset) float64
	}
	var ys []sliceY
	for _, s := range nslice.Enumerate(n) {
		if !s.Identifiable() {
			res.TooFewPairs = append(res.TooFewPairs, s)
			continue
		}
		v := &Verdict{Slice: s}
		y := obs.Y(s)
		v.Estimates = s.PairEstimates(y)
		v.Unsolvability = nslice.Unsolvability(v.Estimates)
		res.Candidates = append(res.Candidates, v)
		ys = append(ys, sliceY{v, y})
	}

	switch cfg.Mode {
	case Exact:
		for _, sy := range ys {
			sy.v.NonNeutral = !sy.v.Slice.ConsistentExact(sy.y, cfg.Tol)
		}
	case Clustered:
		minGap := cfg.MinGap
		if minGap <= 0 {
			minGap = cluster.DefaultMinGap
		}
		scores := make([]float64, len(res.Candidates))
		for i, v := range res.Candidates {
			scores[i] = v.Unsolvability
		}
		res.Cluster = cluster.TwoMeans(scores, minGap)
		for _, v := range res.Candidates {
			if res.Cluster.Split {
				v.NonNeutral = !res.Cluster.Low(v.Unsolvability)
			} else {
				// Too few systems to cluster (topology A has a single
				// slice), or every system is on the same side: fall back
				// to the absolute unsolvability gap. This also catches
				// the "every slice is violated" corner, where the spread
				// across slices is small but the absolute level is high.
				v.NonNeutral = v.Unsolvability > minGap
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown mode %v", cfg.Mode))
	}

	if !cfg.KeepRedundant {
		markRedundant(res)
	}
	return res
}

// markRedundant implements the Section 5 post-pass: a sequence τ in Σn̄ is
// redundant iff some collection of other classified sequences — each a
// subset of τ, at least one of them classified non-neutral — has union
// exactly τ. Redundancy is evaluated against the pre-removal
// classification, then all marked sequences are removed together.
func markRedundant(res *Result) {
	type seqInfo struct {
		links      graph.LinkSet
		nonNeutral bool
	}
	infos := make([]seqInfo, len(res.Candidates))
	for i, v := range res.Candidates {
		infos[i] = seqInfo{links: graph.NewLinkSet(v.Slice.Seq...), nonNeutral: v.NonNeutral}
	}
	for i, v := range res.Candidates {
		if !v.NonNeutral {
			continue
		}
		target := infos[i].links
		// Candidate building blocks: other sequences fully inside τ.
		var masks []uint64
		var nonNeutralMask []bool
		bitOf := map[graph.LinkID]uint{}
		for _, l := range target.Sorted() {
			bitOf[l] = uint(len(bitOf))
		}
		if len(bitOf) > 63 {
			continue // pathological; leave non-redundant
		}
		full := uint64(1)<<uint(len(bitOf)) - 1
		for j, w := range res.Candidates {
			if j == i {
				continue
			}
			inside := true
			var m uint64
			for _, l := range w.Slice.Seq {
				b, ok := bitOf[l]
				if !ok {
					inside = false
					break
				}
				m |= 1 << b
			}
			if inside {
				masks = append(masks, m)
				nonNeutralMask = append(nonNeutralMask, infos[j].nonNeutral)
			}
		}
		if coverable(masks, nonNeutralMask, full) {
			v.Redundant = true
		}
	}
}

// coverable reports whether some subset of masks unions to full with at
// least one mask from the nonNeutral side. BFS over reachable (mask,
// usedNonNeutral) states.
func coverable(masks []uint64, nonNeutral []bool, full uint64) bool {
	if full == 0 {
		return false
	}
	type state struct {
		mask uint64
		nn   bool
	}
	seen := map[state]bool{{0, false}: true}
	frontier := []state{{0, false}}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for i, m := range masks {
			next := state{cur.mask | m, cur.nn || nonNeutral[i]}
			if seen[next] {
				continue
			}
			if next.mask == full && next.nn {
				return true
			}
			seen[next] = true
			frontier = append(frontier, next)
		}
	}
	return false
}

// Metrics quantifies a Result against ground truth, per Section 5.
type Metrics struct {
	// FalseNegativeRate is the fraction of truly non-neutral links that
	// participate in no sequence of Σn̄.
	FalseNegativeRate float64
	// FalsePositiveRate is the fraction of truly neutral links that
	// participate in an all-neutral sequence incorrectly present in Σn̄.
	FalsePositiveRate float64
	// Granularity is the average length of the sequences in Σn̄ (ideal 1);
	// zero when Σn̄ is empty.
	Granularity float64
	// Detected is the number of truly non-neutral links covered by Σn̄.
	Detected int
}

// Evaluate computes the paper's three quality metrics for the result, given
// the ground-truth set of non-neutral links.
func Evaluate(res *Result, nonNeutralLinks []graph.LinkID) Metrics {
	truth := graph.NewLinkSet(nonNeutralLinks...)
	finals := res.NonNeutralSeqs()

	covered := graph.NewLinkSet()
	badNeutral := graph.NewLinkSet() // neutral links inside all-neutral flagged sequences
	totalLen := 0
	for _, v := range finals {
		allNeutral := true
		for _, l := range v.Slice.Seq {
			covered.Add(l)
			if truth.Contains(l) {
				allNeutral = false
			}
		}
		if allNeutral {
			for _, l := range v.Slice.Seq {
				badNeutral.Add(l)
			}
		}
		totalLen += len(v.Slice.Seq)
	}

	var m Metrics
	if len(finals) > 0 {
		m.Granularity = float64(totalLen) / float64(len(finals))
	}
	numNonNeutral := truth.Len()
	if numNonNeutral > 0 {
		missed := 0
		for _, l := range truth.Sorted() {
			if covered.Contains(l) {
				m.Detected++
			} else {
				missed++
			}
		}
		m.FalseNegativeRate = float64(missed) / float64(numNonNeutral)
	}
	numNeutral := res.Net.NumLinks() - numNonNeutral
	if numNeutral > 0 {
		m.FalsePositiveRate = float64(badNeutral.Len()) / float64(numNeutral)
	}
	return m
}

// Report renders a human-readable summary of the inference result.
func Report(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "inference over %s (mode=%s)\n", res.Net.String(), res.Config.Mode)
	fmt.Fprintf(&sb, "  candidates=%d tooFewPairs=%d", len(res.Candidates), len(res.TooFewPairs))
	if res.Config.Mode == Clustered {
		fmt.Fprintf(&sb, " cluster(split=%v low=%.4g high=%.4g thr=%.4g)",
			res.Cluster.Split, res.Cluster.LowCentroid, res.Cluster.HighCentroid, res.Cluster.Threshold)
	}
	sb.WriteString("\n")
	sorted := append([]*Verdict(nil), res.Candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Unsolvability > sorted[j].Unsolvability })
	for _, v := range sorted {
		tag := "neutral    "
		if v.NonNeutral {
			tag = "NON-NEUTRAL"
			if v.Redundant {
				tag = "redundant  "
			}
		}
		fmt.Fprintf(&sb, "  %s %-24s unsolvability=%.5f pairs=%d\n", tag, v.SeqNames(), v.Unsolvability, len(v.Estimates))
	}
	return sb.String()
}
