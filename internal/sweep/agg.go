package sweep

import (
	"fmt"
	"strings"

	"neutrality/internal/grid"
	"neutrality/internal/stats"
)

// Online aggregation: every record is folded into bounded-memory
// streaming statistics as it is emitted, so a 100k-cell sweep produces
// its summary in one pass without retaining records. The statistics
// are internal/stats' Welford accumulators and fixed-bin quantile
// sketches. Memory is O(axes × values), independent of cell count.
//
// Determinism: records are folded in cell order (the executor emits
// them that way, and Replay reads them back that way), and both
// structures are sequential folds, so the summary is byte-identical
// for every worker and shard count.
//
// Mergeability: every structure also merges — Welford moments
// Chan-style, sketches bin-wise, marginals slice-wise — so partitions
// of a distributed sweep can each aggregate their own cell range and
// Agg.Merge combines them; a fleet merges the aggregates it replayed
// from its staged partition copies. The merge laws: counts, bins,
// events, and min/max are semigroup sums, associative and commutative
// exactly; the Welford mean/m2 merge is exact when either side is
// empty and otherwise matches the sequential fold to floating-point
// rounding, which is orders of magnitude below Summary's printed
// precision. The empty Agg is the identity.

// metricAgg aggregates one slice of cells (the whole sweep, or the
// cells sharing one axis value): verdict counts plus streaming moments
// and sketches of the quality metrics.
type metricAgg struct {
	cells      int
	nonNeutral int
	fn, fp     stats.Welford
	gran       stats.Welford
	unsolv     stats.Welford
	unsolvSk   *stats.Sketch
	events     uint64
}

func newMetricAgg() *metricAgg {
	return &metricAgg{unsolvSk: stats.NewSquashSketch()}
}

func (a *metricAgg) add(r Record) {
	a.cells++
	if r.Verdict {
		a.nonNeutral++
	}
	a.fn.Add(r.FN)
	a.fp.Add(r.FP)
	a.gran.Add(r.Granularity)
	a.unsolv.Add(r.Unsolvability)
	a.unsolvSk.Add(r.Unsolvability)
	a.events += r.Events
}

// merge folds another metric aggregate in.
func (a *metricAgg) merge(o *metricAgg) error {
	a.cells += o.cells
	a.nonNeutral += o.nonNeutral
	a.fn.Merge(o.fn)
	a.fp.Merge(o.fp)
	a.gran.Merge(o.gran)
	a.unsolv.Merge(o.unsolv)
	a.events += o.events
	return a.unsolvSk.Merge(o.unsolvSk)
}

// Agg folds sweep records into the global and per-axis-slice
// aggregates. It consumes records strictly in cell order.
type Agg struct {
	g      *grid.Grid
	global *metricAgg
	// slices[a][v] aggregates the cells whose axis a takes value v —
	// the marginal view along each axis.
	slices [][]*metricAgg
}

// NewAgg prepares the aggregation for one grid.
func NewAgg(g *grid.Grid) *Agg {
	a := &Agg{g: g, global: newMetricAgg()}
	for _, ax := range g.Axes {
		row := make([]*metricAgg, len(ax.Values))
		for i := range row {
			row[i] = newMetricAgg()
		}
		a.slices = append(a.slices, row)
	}
	return a
}

// Add folds one record in.
func (a *Agg) Add(r Record) {
	a.global.add(r)
	c := a.g.Cell(r.Cell)
	for ax := range a.g.Axes {
		a.slices[ax][c.ValueIndex(ax)].add(r)
	}
}

// Merge folds another aggregate over the same grid in, slice by
// slice, so partitions of a distributed sweep can each aggregate
// their own cell range and combine afterwards. See the package
// comment for the merge laws: everything except the Welford moments
// merges exactly; the moments agree with the sequential fold to
// floating-point rounding, below Summary's printed precision.
func (a *Agg) Merge(o *Agg) error {
	if a.g.Fingerprint() != o.g.Fingerprint() {
		return fmt.Errorf("sweep: merging aggregates of different grids (%s vs %s)", a.g.Name, o.g.Name)
	}
	if err := a.global.merge(o.global); err != nil {
		return err
	}
	for ax := range a.slices {
		for v := range a.slices[ax] {
			if err := a.slices[ax][v].merge(o.slices[ax][v]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary renders the Table-2-style report: the global verdict and
// quality numbers, then one marginal table per multi-value axis with a
// row per axis value. The output is a pure function of the folded
// record stream.
func (a *Agg) Summary() string {
	var sb strings.Builder
	g := a.global
	fmt.Fprintf(&sb, "sweep %s: %d cells aggregated\n", a.g.Name, g.cells)
	if g.cells == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "  non-neutral verdicts: %d/%d (%.1f%%)\n",
		g.nonNeutral, g.cells, 100*float64(g.nonNeutral)/float64(g.cells))
	fmt.Fprintf(&sb, "  FN mean=%.3f sd=%.3f   FP mean=%.3f sd=%.3f   granularity mean=%.2f\n",
		g.fn.Mean, g.fn.StdDev(), g.fp.Mean, g.fp.StdDev(), g.gran.Mean)
	fmt.Fprintf(&sb, "  unsolvability mean=%.4f p50=%.4f p90=%.4f max=%.4f\n",
		g.unsolv.Mean, g.unsolvSk.Quantile(0.5), g.unsolvSk.Quantile(0.9), g.unsolvSk.Quantile(1))
	fmt.Fprintf(&sb, "  emulation events: %d\n", g.events)
	for ax, axis := range a.g.Axes {
		if len(axis.Values) < 2 {
			continue // single-value axes pin knobs; no marginal to show
		}
		fmt.Fprintf(&sb, "  by %s:\n", axis.Name)
		fmt.Fprintf(&sb, "    %-12s %7s %9s %7s %7s %9s %9s\n",
			axis.Name, "cells", "nonneut", "FN", "FP", "unsolv", "u.p90")
		for v, val := range axis.Values {
			m := a.slices[ax][v]
			if m.cells == 0 {
				fmt.Fprintf(&sb, "    %-12s %7d\n", val.Label(), 0)
				continue
			}
			fmt.Fprintf(&sb, "    %-12s %7d %8.1f%% %7.3f %7.3f %9.4f %9.4f\n",
				val.Label(), m.cells,
				100*float64(m.nonNeutral)/float64(m.cells),
				m.fn.Mean, m.fp.Mean, m.unsolv.Mean, m.unsolvSk.Quantile(0.9))
		}
	}
	return sb.String()
}

// Cells returns the number of records folded so far.
func (a *Agg) Cells() int { return a.global.cells }
