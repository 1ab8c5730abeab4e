package figures

import (
	"fmt"
	"strconv"
	"strings"

	"neutrality/internal/grid"
	"neutrality/internal/lab"
	"neutrality/internal/sweep"
)

// Table1 renders the parameter grid of the paper's Table 1 with the
// defaults this reproduction uses (defaults marked like the paper's bold).
// It formats with strconv rather than fmt: fmt's per-P printer pool
// makes the allocation count depend on which CPU the caller runs on,
// and BenchmarkTable1Defaults gates this function's B/op.
func Table1() string {
	d := lab.DefaultParamsA()
	var sb strings.Builder
	sb.WriteString("Table 1: experiment parameters (defaults marked *)\n")
	row := func(name, values string) {
		sb.WriteString("  ")
		sb.WriteString(name)
		sb.WriteString(strings.Repeat(" ", max(0, 34-len(name))+1))
		sb.WriteString(values)
		sb.WriteByte('\n')
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	row("Bottleneck capacity (Mbps)", "*"+g(d.CapacityBps/1e6))
	row("RTT (ms)", "*50, 80, 120, 200")
	row("Policing/shaping rate (%)", "20, *30, 40, 50")
	row("Congestion-control algorithm", "*CUBIC, NewReno")
	row("Parallel TCP flows per path", "1, *"+strconv.Itoa(d.FlowsPerPath)+", 15, 20, 70")
	row("Mean TCP flow size (Mb)", "1, *"+g(d.MeanFlowMb[0])+", 40, 10000")
	row("Mean inter-flow gap (s)", "*"+g(d.GapMeanSec))
	row("Loss threshold (%)", "*1, 5, 10")
	row("Measurement interval (ms)", "*"+g(d.IntervalSec*1000)+", 200, 500")
	return sb.String()
}

// Table3 renders the topology-B traffic characteristics.
func Table3() string {
	d := lab.DefaultParamsB()
	var sb strings.Builder
	sb.WriteString("Table 3: traffic characteristics for topology B\n")
	fmt.Fprintf(&sb, "  %-18s %s\n", "End-host group", "Number and size of parallel TCP flows per path")
	fmt.Fprintf(&sb, "  %-18s %s\n", "Dark gray", sizesRow(d.DarkSizesMb))
	fmt.Fprintf(&sb, "  %-18s %s\n", "Light gray", sizesRow(d.LightSizesMb))
	fmt.Fprintf(&sb, "  %-18s %s\n", "White", sizesRow(d.WhiteSizesMb))
	return sb.String()
}

func sizesRow(sizes []float64) string {
	parts := make([]string, len(sizes))
	for i, mb := range sizes {
		if mb >= 1000 {
			parts[i] = fmt.Sprintf("1 x %gGb", mb/1000)
		} else {
			parts[i] = fmt.Sprintf("1 x %gMb", mb)
		}
	}
	return strings.Join(parts, " + ")
}

// SweepRow is one configuration of a Section 6.5 robustness sweep.
type SweepRow struct {
	Label         string
	Verdict       bool
	Unsolvability float64
}

// SweepResult is a robustness sweep over measurement-processing knobs on a
// fixed (policed) topology-A run.
type SweepResult struct {
	Title string
	Rows  []SweepRow
	// Stable is true when every configuration reaches the same verdict.
	Stable bool
}

// policedGrid is the shared base of the Section 6.5 robustness sweeps
// as a declarative grid: the policed topology-A operating point (30 %
// policing, 20 Mb flows at paper scale) with a fixed seed, so every
// cell re-analyzes the same emulated randomness under a varying
// processing knob. The hand-rolled sweep loops these functions used to
// carry are now one axis declaration each over the sweep engine.
func policedGrid(name string, sc Scale) *grid.Grid {
	return grid.New(name, grid.Base{
		ScaleFactor: sc.Factor,
		DurationSec: sc.DurationSec,
		SeedMode:    grid.SeedFixed,
	}).
		Add("diff", grid.Str("police")).
		Add("rate", grid.Num(0.3)).
		Add("flowmb", grid.Num(2*sc.Factor*10)) // 20 Mb at paper scale
}

// runGridRows executes an in-memory sweep of g and returns its records
// in cell order.
func runGridRows(x Exec, g *grid.Grid, seed int64) ([]sweep.Record, error) {
	var recs []sweep.Record
	_, err := sweep.Run(x.context(), g, sweep.Options{
		Workers:  x.Workers,
		BaseSeed: seed,
		OnRecord: func(r sweep.Record) { recs = append(recs, r) },
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// sweepRowsOf converts sweep records into the rendered rows, labeling
// each by its value on the grid's last (varying) axis.
func sweepRowsOf(recs []sweep.Record) []SweepRow {
	rows := make([]SweepRow, len(recs))
	for i, r := range recs {
		rows[i] = SweepRow{
			Label:         r.Axes[len(r.Axes)-1],
			Verdict:       r.Verdict,
			Unsolvability: r.Unsolvability,
		}
	}
	return rows
}

// LossThresholdSweep re-analyzes the policed run under the paper's loss
// thresholds {1, 5, 10} % (Section 6.5: "no significant change"), as a
// three-cell grid over the lossthr axis: every cell re-emulates the
// identical fixed-seed experiment (emulation is deterministic, so the
// measurements are bit-equal across cells) and re-infers under its
// threshold.
func LossThresholdSweep(x Exec, sc Scale, seed int64) (*SweepResult, error) {
	g := policedGrid("loss-threshold-sweep", sc).
		Add("lossthr",
			grid.Num(0.01).WithLabel("1%"),
			grid.Num(0.05).WithLabel("5%"),
			grid.Num(0.10).WithLabel("10%"))
	recs, err := runGridRows(x, g, seed)
	if err != nil {
		return nil, err
	}
	return assembleSweep("Section 6.5: loss-threshold sweep (policing at 30%)", sweepRowsOf(recs)), nil
}

// IntervalSweep re-runs the policed experiment under measurement intervals
// {100, 200, 500} ms, as a three-cell grid over the interval axis run on
// the sweep engine.
func IntervalSweep(x Exec, sc Scale, seed int64) (*SweepResult, error) {
	g := policedGrid("interval-sweep", sc).
		Add("interval",
			grid.Num(0.1).WithLabel("100ms"),
			grid.Num(0.2).WithLabel("200ms"),
			grid.Num(0.5).WithLabel("500ms"))
	recs, err := runGridRows(x, g, seed)
	if err != nil {
		return nil, err
	}
	return assembleSweep("Section 6.5: measurement-interval sweep (policing at 30%)", sweepRowsOf(recs)), nil
}

// assembleSweep builds a sweep result from its ordered rows and checks
// verdict stability.
func assembleSweep(title string, rows []SweepRow) *SweepResult {
	out := &SweepResult{Title: title, Rows: rows, Stable: true}
	for _, r := range rows {
		if r.Verdict != rows[0].Verdict {
			out.Stable = false
		}
	}
	return out
}

// String renders the sweep.
func (r *SweepResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.Title)
	for _, row := range r.Rows {
		v := "neutral"
		if row.Verdict {
			v = "NON-NEUTRAL"
		}
		fmt.Fprintf(&sb, "  %-8s unsolvability=%.4f verdict=%s\n", row.Label, row.Unsolvability, v)
	}
	fmt.Fprintf(&sb, "  verdict stable across configurations: %v\n", r.Stable)
	return sb.String()
}
