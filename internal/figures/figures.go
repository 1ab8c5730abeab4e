// Package figures regenerates every table and figure of the paper's
// evaluation (Section 6): the Figure 8 per-path congestion series for the
// nine Table 2 experiment sets, the Figure 10 ground-truth and inferred
// boxplots for topology B, the Figure 11 queue-occupancy traces, the
// Table 1/3 parameter grids, and the robustness sweeps of Section 6.5.
// Both bench_test.go and cmd/experiments are thin wrappers around this
// package.
package figures

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"neutrality/internal/core"
	"neutrality/internal/emu"
	"neutrality/internal/graph"
	"neutrality/internal/grid"
	"neutrality/internal/lab"
	"neutrality/internal/measure"
	"neutrality/internal/runner"
	"neutrality/internal/stats"
	"neutrality/internal/sweep"
	"neutrality/internal/topo"
)

// Scale configures how large the runs are. Full reproduces the paper's
// operating point; Quick shrinks capacity and duration together (identical
// load shape, fewer packets) for benches and smoke runs.
type Scale struct {
	// Factor multiplies capacities and flow sizes (1.0 = paper scale).
	Factor float64
	// DurationSec is the emulated run length.
	DurationSec float64
}

// Quick is the bench-friendly operating point for topology A: 10 Mbps,
// 180 s (enough intervals for stable pathset correlations at the reduced
// packet rate).
var Quick = Scale{Factor: 0.1, DurationSec: 180}

// QuickB is the bench operating point for topology B, which needs more
// aggregate traffic than the dumbbell for stable pathset correlations:
// 30 Mbps, 180 s.
var QuickB = Scale{Factor: 0.3, DurationSec: 180}

// Full is the paper's operating point: 100 Mbps, 600 s.
var Full = Scale{Factor: 1.0, DurationSec: 600}

// Fig8Row is one experiment of a Figure 8 graph: the per-path congestion
// probabilities and the algorithm's verdict.
type Fig8Row struct {
	Label          string
	CongestionProb [4]float64 // p1, p2 (class c1), p3, p4 (class c2)
	Unsolvability  float64
	Verdict        bool // true = non-neutral
	PaperLabel     bool // the paper's ground-truth label
	// Events is the number of discrete events the experiment's emulation
	// processed (Sim.Processed) — the throughput denominator for the
	// events_per_sec bench metric. Not part of the rendered figure.
	Events uint64
}

// Fig8Result is one experiment set (one graph of Figure 8).
type Fig8Result struct {
	Set   int
	Title string
	Rows  []Fig8Row
	// Agreement counts rows where our verdict matches the paper's label.
	Agreement int
	// Events sums the emulation events processed across the set's rows.
	Events uint64
}

var fig8Titles = map[int]string{
	1: "Fig 8(a) neutral, c2 mean flow size sweep",
	2: "Fig 8(b) neutral, c2 RTT sweep",
	3: "Fig 8(c) neutral, c2 congestion-control sweep",
	4: "Fig 8(d) policing, flow size sweep",
	5: "Fig 8(e) policing, RTT sweep",
	6: "Fig 8(f) policing, rate sweep",
	7: "Fig 8(g) shaping, flow size sweep",
	8: "Fig 8(h) shaping, RTT sweep",
	9: "Fig 8(i) shaping, rate sweep",
}

// Fig8 runs the given Table 2 experiment sets (all nine when none are
// named) and produces one Figure 8 graph per set, in the order named.
// Every experiment of every set is one cell of its set's grid and one
// unit of a single batch (34 for all nine), so the pool stays full
// across set boundaries. Each unit's seed is seed plus its index within
// its set, so a set's result is identical for every worker count and
// whichever other sets run beside it.
func Fig8(x Exec, sc Scale, seed int64, sets ...int) ([]*Fig8Result, error) {
	if len(sets) == 0 {
		sets = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	}
	type unit struct {
		set, cell int
		g         *grid.Grid
	}
	var units []unit
	sizes := make([]int, len(sets))
	for s, set := range sets {
		g, err := lab.TableTwoGrid(set, grid.Base{ScaleFactor: sc.Factor, DurationSec: sc.DurationSec})
		if err != nil {
			return nil, err
		}
		sizes[s] = g.Cells()
		for i := 0; i < g.Cells(); i++ {
			units = append(units, unit{set: set, cell: i, g: g})
		}
	}
	rows, err := runner.Map(x.context(), x.Workers, len(units), func(uctx context.Context, u int) (Fig8Row, error) {
		return fig8Unit(uctx, units[u].set, units[u].g, units[u].cell, seed)
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Fig8Result, len(sets))
	for i, set := range sets {
		out[i] = assembleFig8(set, rows[:sizes[i]:sizes[i]])
		rows = rows[sizes[i]:]
	}
	return out, nil
}

// fig8Unit runs cell i of a Table 2 set's grid on the sweep engine's
// cell executor under seed+i and adds what a sweep record lacks: the
// per-path congestion probabilities and the paper's label. ctx only
// interrupts it mid-emulation.
func fig8Unit(ctx context.Context, set int, g *grid.Grid, i int, seed int64) (Fig8Row, error) {
	rec, run, err := sweep.RunCell(ctx, g, i, seed+int64(i))
	if err != nil {
		return Fig8Row{}, err
	}
	row := Fig8Row{
		Label:         rec.Axes[len(rec.Axes)-1],
		Unsolvability: rec.Unsolvability,
		Verdict:       rec.Verdict,
		PaperLabel:    lab.TableTwoNonNeutral(set, g.Cell(i)),
		Events:        rec.Events,
	}
	copy(row.CongestionProb[:], measure.PathCongestionProb(run.Meas, 0.01))
	return row, nil
}

// assembleFig8 builds a set result from its ordered rows.
func assembleFig8(set int, rows []Fig8Row) *Fig8Result {
	out := &Fig8Result{Set: set, Title: fig8Titles[set], Rows: rows}
	for _, row := range rows {
		if row.Verdict == row.PaperLabel {
			out.Agreement++
		}
		out.Events += row.Events
	}
	return out
}

// String renders the set in the paper's rows-per-experiment layout.
func (r *Fig8Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.Title)
	fmt.Fprintf(&sb, "  %-12s %8s %8s %8s %8s   %12s  %-12s %s\n",
		"experiment", "p1(c1)", "p2(c1)", "p3(c2)", "p4(c2)", "unsolvability", "verdict", "paper")
	for _, row := range r.Rows {
		verdict, paper := "neutral", "neutral"
		if row.Verdict {
			verdict = "NON-NEUTRAL"
		}
		if row.PaperLabel {
			paper = "NON-NEUTRAL"
		}
		mark := ""
		if row.Verdict != row.PaperLabel {
			mark = "   <-- divergence (see DESIGN.md)"
		}
		fmt.Fprintf(&sb, "  %-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%   %12.4f  %-12s %s%s\n",
			row.Label,
			row.CongestionProb[0]*100, row.CongestionProb[1]*100,
			row.CongestionProb[2]*100, row.CongestionProb[3]*100,
			row.Unsolvability, verdict, paper, mark)
	}
	fmt.Fprintf(&sb, "  agreement with paper: %d/%d\n", r.Agreement, len(r.Rows))
	return sb.String()
}

// Boxplot is one boxplot of Figure 10: a five-number summary per class.
type Boxplot struct {
	Name     string
	PerClass map[graph.ClassID]stats.Summary
	// Policer marks entries containing a differentiating link (the
	// paper's asterisks).
	Policer bool
}

// Fig10Result carries both halves of Figure 10 plus the Section 6.4
// quality metrics.
type Fig10Result struct {
	// Actual is Figure 10(a): per-link ground truth.
	Actual []Boxplot
	// Inferred is Figure 10(b): per-identifiable-sequence estimates.
	Inferred []Boxplot
	// Metrics are the FP/FN/granularity numbers of Section 6.4.
	Metrics core.Metrics
	// Sequences counts the admissible sequences (the paper had 28).
	Sequences int
	// Flagged counts sequences classified non-neutral before redundancy
	// removal (the paper had 16 identifiable non-neutral).
	Flagged int
}

// Fig10 runs the topology B experiment and produces both figure halves.
// The two halves — ground-truth summarization and the full inference
// pass — are independent units over the same emulation run and execute
// in parallel.
func Fig10(x Exec, sc Scale, seed int64) (*Fig10Result, error) {
	p := lab.DefaultParamsB().Scale(sc.Factor, sc.DurationSec)
	p.Seed = seed
	e, b := p.Experiment("fig10")
	e.GroundTruth = true
	run, err := lab.RunCtx(x.context(), e)
	if err != nil {
		return nil, err
	}
	truth, err := run.GroundTruth(0.01)
	if err != nil {
		return nil, err
	}
	policers := graph.NewLinkSet(b.Policers...)
	out := &Fig10Result{}
	halves := []func(){
		func() { out.Actual = fig10Actual(truth, b, policers) },
		func() { fig10Inferred(out, run, b, policers) },
	}
	if _, err := runner.Map(x.context(), x.Workers, len(halves), func(_ context.Context, i int) (struct{}, error) {
		halves[i]()
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// fig10Actual computes Figure 10(a): ground truth per link, boxplot
// over the paths of each class.
func fig10Actual(truth []emu.LinkClassTruth, b *topo.TopologyB, policers graph.LinkSet) []Boxplot {
	var actual []Boxplot
	for _, lt := range truth {
		byClass := map[graph.ClassID][]float64{}
		for _, pp := range lt.PerPath {
			if pp.Prob != pp.Prob { // NaN: no traffic
				continue
			}
			byClass[b.Net.ClassOf(pp.Path)] = append(byClass[b.Net.ClassOf(pp.Path)], pp.Prob)
		}
		if len(byClass) == 0 {
			continue
		}
		bp := Boxplot{
			Name:     b.Net.Link(lt.Link).Name,
			PerClass: map[graph.ClassID]stats.Summary{},
			Policer:  policers.Contains(lt.Link),
		}
		for c, vals := range byClass {
			bp.PerClass[c] = stats.Summarize(vals)
		}
		actual = append(actual, bp)
	}
	return actual
}

// fig10Inferred computes Figure 10(b) — inferred per-sequence
// estimates, split by the class of the contributing path pairs — plus
// the Section 6.4 quality metrics. Estimates are in −log P space;
// convert to congestion probability 1−exp(−x) for comparability with
// 10(a). It writes only the inference-owned fields of out (Inferred,
// Metrics, Sequences, Flagged), which is what makes it safe to run
// concurrently with fig10Actual.
func fig10Inferred(out *Fig10Result, run *lab.Result, b *topo.TopologyB, policers graph.LinkSet) {
	res := core.Infer(b.InferenceNet, core.MeasurementObserver{Meas: run.Meas, Opts: measure.DefaultOptions()}, core.DefaultConfig())
	out.Metrics = core.Evaluate(res, b.Policers)
	out.Sequences = len(res.Candidates)
	for _, v := range res.Candidates {
		if v.NonNeutral {
			out.Flagged++
		}
		bp := Boxplot{
			Name:     v.SeqNames(),
			PerClass: map[graph.ClassID]stats.Summary{},
		}
		for _, l := range v.Slice.Seq {
			if policers.Contains(l) {
				bp.Policer = true
			}
		}
		for c, ests := range v.ClassEstimates(topo.C1) {
			probs := make([]float64, len(ests))
			for i, x := range ests {
				if x < 0 {
					x = 0
				}
				probs[i] = 1 - math.Exp(-x)
			}
			bp.PerClass[c] = stats.Summarize(probs)
		}
		out.Inferred = append(out.Inferred, bp)
	}
	sort.Slice(out.Inferred, func(i, j int) bool { return out.Inferred[i].Name < out.Inferred[j].Name })
}

// String renders both halves of Figure 10.
func (r *Fig10Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 10(a) actual per-link congestion probability (boxplots over paths)\n")
	writeBoxplots(&sb, r.Actual)
	sb.WriteString("Fig 10(b) inferred per-sequence congestion probability (boxplots over path pairs)\n")
	writeBoxplots(&sb, r.Inferred)
	fmt.Fprintf(&sb, "sequences=%d flagged=%d  FN=%.0f%% FP=%.0f%% granularity=%.2f\n",
		r.Sequences, r.Flagged,
		r.Metrics.FalseNegativeRate*100, r.Metrics.FalsePositiveRate*100, r.Metrics.Granularity)
	return sb.String()
}

func writeBoxplots(sb *strings.Builder, bps []Boxplot) {
	for _, bp := range bps {
		mark := " "
		if bp.Policer {
			mark = "*"
		}
		fmt.Fprintf(sb, "  %s %-26s", mark, bp.Name)
		for _, c := range []graph.ClassID{topo.C1, topo.C2} {
			s, ok := bp.PerClass[c]
			if !ok {
				fmt.Fprintf(sb, "  c%d: (no data)                         ", int(c)+1)
				continue
			}
			fmt.Fprintf(sb, "  c%d:[%5.3f %5.3f %5.3f %5.3f %5.3f]", int(c)+1, s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
		sb.WriteString("\n")
	}
}

// Fig11Result carries the queue-occupancy traces of a neutral and a
// policing link (the paper's l13 vs l14 comparison).
type Fig11Result struct {
	NeutralName, PolicerName string
	Neutral, Policer         *emu.QueueTrace
	NeutralSummary           stats.Summary
	PolicerSummary           stats.Summary
}

// Fig11 runs topology B with queue tracing on a busy neutral link (l15,
// the ingress that carries all background traffic) and the policing
// ingress l20, reproducing the paper's point: queue occupancy alone does
// not reveal which of two congested links differentiates. The run is a
// single unit; x contributes cancellation, which aborts the emulation
// mid-run.
func Fig11(x Exec, sc Scale, seed int64) (*Fig11Result, error) {
	p := lab.DefaultParamsB().Scale(sc.Factor, sc.DurationSec)
	p.Seed = seed
	e, b := p.Experiment("fig11")
	neutralLink, _ := b.Net.LinkByName("l15")
	policerLink, _ := b.Net.LinkByName("l20")
	e.TraceLinks = []graph.LinkID{neutralLink.ID, policerLink.ID}
	e.TraceInterval = sc.DurationSec / 600 // 600 samples like the paper's plots
	run, err := lab.RunCtx(x.context(), e)
	if err != nil {
		return nil, err
	}
	out := &Fig11Result{
		NeutralName: "l15 (neutral)",
		PolicerName: "l20 (policing)",
		Neutral:     run.Collector.Trace(neutralLink.ID),
		Policer:     run.Collector.Trace(policerLink.ID),
	}
	out.NeutralSummary = summarizeTrace(out.Neutral)
	out.PolicerSummary = summarizeTrace(out.Policer)
	return out, nil
}

func summarizeTrace(tr *emu.QueueTrace) stats.Summary {
	if tr == nil {
		return stats.Summary{}
	}
	vals := make([]float64, len(tr.Bytes))
	for i, v := range tr.Bytes {
		vals[i] = float64(v)
	}
	return stats.Summarize(vals)
}

// String renders the two traces as coarse sparkline rows plus summaries.
func (r *Fig11Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 11 queue occupancy over time (bytes)\n")
	fmt.Fprintf(&sb, "  %-16s %s\n", r.NeutralName, sparkline(r.Neutral, 72))
	fmt.Fprintf(&sb, "  %-16s %s\n", r.PolicerName, sparkline(r.Policer, 72))
	fmt.Fprintf(&sb, "  %-16s %s\n", r.NeutralName, r.NeutralSummary)
	fmt.Fprintf(&sb, "  %-16s %s\n", r.PolicerName, r.PolicerSummary)
	return sb.String()
}

func sparkline(tr *emu.QueueTrace, width int) string {
	if tr == nil || len(tr.Bytes) == 0 {
		return "(no trace)"
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	max := 1
	for _, v := range tr.Bytes {
		if v > max {
			max = v
		}
	}
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		lo := i * len(tr.Bytes) / width
		hi := (i + 1) * len(tr.Bytes) / width
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0
		for _, v := range tr.Bytes[lo:min(hi, len(tr.Bytes))] {
			sum += v
		}
		avg := sum / (hi - lo)
		idx := avg * (len(levels) - 1) / max
		out[i] = levels[idx]
	}
	return string(out)
}
