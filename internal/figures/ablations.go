package figures

import (
	"context"
	"fmt"
	"math"
	"strings"

	"neutrality/internal/core"
	"neutrality/internal/graph"
	"neutrality/internal/grid"
	"neutrality/internal/matrix"
	"neutrality/internal/measure"
	"neutrality/internal/routing"
	"neutrality/internal/runner"
	"neutrality/internal/synth"
	"neutrality/internal/tomo"
	"neutrality/internal/topo"
)

// AblationResult is a generic pass/fail table for the design-choice
// ablations listed in DESIGN.md.
type AblationResult struct {
	Title string
	Rows  []string
	// Pass reports that the ablation demonstrated the design choice's
	// value (i.e. the degraded variant misbehaves as predicted).
	Pass bool
}

// String renders the ablation.
func (r *AblationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.Title)
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %s\n", row)
	}
	fmt.Fprintf(&sb, "  design choice validated: %v\n", r.Pass)
	return sb.String()
}

// AblationNormalization contrasts Algorithm 2's traffic-aggregate
// normalization ON vs OFF on a neutral network whose classes send very
// different volumes (the experiment-set-1 trap). Without normalization,
// the heavy class trips the loss threshold more often and the neutral link
// looks differentiating. It is a two-cell grid over the normalize axis,
// run on the sweep engine: both cells re-emulate the identical
// fixed-seed neutral experiment (emulation is deterministic) and differ
// only in the inference pass.
func AblationNormalization(x Exec, sc Scale, seed int64) (*AblationResult, error) {
	g := grid.New("ablation-normalization", grid.Base{
		ScaleFactor: sc.Factor,
		DurationSec: sc.DurationSec,
		SeedMode:    grid.SeedFixed,
	}).
		Add("c1mb", grid.Num(0.1*sc.Factor*10)). // 1 Mb at paper scale
		Add("c2mb", grid.Num(100*sc.Factor*10)). // 1 Gb at paper scale
		Add("normalize", grid.Str("on"), grid.Str("off"))
	recs, err := runGridRows(x, g, seed)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Title: "Ablation: Algorithm 2 normalization (neutral link, 1 Mb vs 1 Gb classes)"}
	for i, r := range recs {
		out.Rows = append(out.Rows, fmt.Sprintf("normalize=%-5v unsolvability=%.4f verdict(non-neutral)=%v",
			i == 0, r.Unsolvability, r.Verdict))
	}
	// The design holds if normalization keeps the inconsistency smaller
	// than the raw comparison (and below the decision gap).
	uWith, uWithout := recs[0].Unsolvability, recs[1].Unsolvability
	out.Pass = uWith < uWithout && uWith < 0.1
	return out, nil
}

// AblationClustering contrasts the adaptive clustering decision with naive
// fixed thresholds on topology B synthetic data, where the unsolvability
// levels depend on the violation strength: a threshold tuned for one gap
// misclassifies another, while clustering adapts. Each
// violation-strength cell is an independent sample-and-infer unit.
func AblationClustering(x Exec, seed int64) (*AblationResult, error) {
	out := &AblationResult{Title: "Ablation: clustering vs fixed threshold (topology B, varying violation strength)"}
	b := topo.NewTopologyB()
	n := b.InferenceNet

	type cell struct {
		row                  string
		misCluster, misFixed bool
	}
	gaps := []float64{0.25, 1.2}
	cells, err := runner.Map(x.context(), x.Workers, len(gaps), func(_ context.Context, i int) (cell, error) {
		gap := gaps[i]
		perf := graph.NewPerf(n.NumLinks(), n.NumClasses())
		for i := 0; i < n.NumLinks(); i++ {
			perf.SetNeutral(graph.LinkID(i), 0.01)
		}
		for _, l := range b.Policers {
			perf.Set(l, topo.C1, 0.02)
			perf.Set(l, topo.C2, 0.02+gap)
		}
		states := synth.NewSampler(n, perf, seed).SampleIntervals(6000)
		meas := synth.ToMeasurements(states, synth.DefaultMeasurementOptions())
		obs := core.MeasurementObserver{Meas: meas, Opts: measure.DefaultOptions()}

		clustered := core.Infer(n, obs, core.DefaultConfig())
		mc := core.Evaluate(clustered, b.Policers)

		// Fixed threshold: tuned high (0.6), as if calibrated on the
		// strong-violation regime.
		fixed := core.Infer(n, obs, core.Config{Mode: core.Clustered, MinGap: 0.6})
		mf := core.Evaluate(fixed, b.Policers)

		return cell{
			row: fmt.Sprintf("gap=%.2f  clustered: FN=%.0f%% FP=%.0f%%   fixed(0.6): FN=%.0f%% FP=%.0f%%",
				gap, mc.FalseNegativeRate*100, mc.FalsePositiveRate*100,
				mf.FalseNegativeRate*100, mf.FalsePositiveRate*100),
			misCluster: mc.FalseNegativeRate > 0 || mc.FalsePositiveRate > 0,
			misFixed:   mf.FalseNegativeRate > 0 || mf.FalsePositiveRate > 0,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	misFixed, misCluster := 0, 0
	for _, c := range cells {
		out.Rows = append(out.Rows, c.row)
		if c.misCluster {
			misCluster++
		}
		if c.misFixed {
			misFixed++
		}
	}
	out.Pass = misCluster == 0 && misFixed > 0
	return out, nil
}

// AblationPairObservations shows why pathset (pair) observations are
// essential: on Figure 5, single-path observations form a solvable system
// (the violation hides), while adding the pathset {p2,p3} makes it
// unsolvable (observable violation #2).
func AblationPairObservations() *AblationResult {
	out := &AblationResult{Title: "Ablation: pathset observations vs single paths (Figure 5)"}
	n := topo.Figure5()
	perf := topo.Figure5Perf(n)
	y := synth.YFunc(n, perf)

	singles := n.SingletonPathsets()
	ys := make([]float64, len(singles))
	for i, ps := range singles {
		ys[i] = y(ps)
	}
	singleOK := matrix.ConsistentNonneg(routing.Matrix(n, singles), ys, 0)

	withPair := append(append([]graph.Pathset(nil), singles...), graph.NewPathset(1, 2))
	yp := make([]float64, len(withPair))
	for i, ps := range withPair {
		yp[i] = y(ps)
	}
	pairOK := matrix.ConsistentNonneg(routing.Matrix(n, withPair), yp, 0)

	out.Rows = append(out.Rows,
		fmt.Sprintf("single-path system solvable: %v (violation hidden)", singleOK),
		fmt.Sprintf("with pathset {p2,p3}: solvable: %v (violation exposed)", pairOK))
	out.Pass = singleOK && !pairOK
	return out
}

// BaselineComparison runs Boolean tomography and direct probing next to
// Algorithm 1 on the synthetic topology-B violation, reporting what each
// can and cannot conclude.
func BaselineComparison(seed int64) (*AblationResult, error) {
	out := &AblationResult{Title: "Baselines vs Algorithm 1 (topology B, synthetic)"}
	b := topo.NewTopologyB()
	n := b.InferenceNet
	perf := graph.NewPerf(n.NumLinks(), n.NumClasses())
	for i := 0; i < n.NumLinks(); i++ {
		perf.SetNeutral(graph.LinkID(i), 0.01)
	}
	for _, l := range b.Policers {
		perf.Set(l, topo.C1, 0.02)
		perf.Set(l, topo.C2, 0.5)
	}
	states := synth.NewSampler(n, perf, seed).SampleIntervals(6000)

	// Boolean tomography: counts of blame on policers vs innocents.
	boolRes := tomo.Boolean(n, states)
	policers := graph.NewLinkSet(b.Policers...)
	pBlame, iBlame := 0.0, 0.0
	for l, v := range boolRes.BlameProb {
		if policers.Contains(graph.LinkID(l)) {
			pBlame += v
		} else {
			iBlame += v
		}
	}
	out.Rows = append(out.Rows, fmt.Sprintf("Boolean tomography: blame mass on policers=%.2f innocents=%.2f unexplained=%d/%d",
		pBlame, iBlame, boolRes.Unexplained, boolRes.Intervals))

	// Algorithm 1 on the same observations.
	meas := synth.ToMeasurements(states, synth.DefaultMeasurementOptions())
	res := core.Infer(n, core.MeasurementObserver{Meas: meas, Opts: measure.DefaultOptions()}, core.DefaultConfig())
	m := core.Evaluate(res, b.Policers)
	out.Rows = append(out.Rows, fmt.Sprintf("Algorithm 1: FN=%.0f%% FP=%.0f%% granularity=%.2f",
		m.FalseNegativeRate*100, m.FalsePositiveRate*100, m.Granularity))

	// Direct probing (requires in-network measurements — the upper bound).
	var probs []tomo.LinkPathProbs
	for i := 0; i < n.NumLinks(); i++ {
		id := graph.LinkID(i)
		lp := tomo.LinkPathProbs{Link: id, PerPath: map[graph.PathID]float64{}}
		for _, pth := range n.PathsThrough(id) {
			lp.PerPath[pth] = 1 - math.Exp(-perf[id][n.ClassOf(pth)])
		}
		probs = append(probs, lp)
	}
	flagged := tomo.DirectProbe(n, probs, 0.05)
	out.Rows = append(out.Rows, fmt.Sprintf("direct probing (in-network): flags %d links", len(flagged)))

	out.Pass = m.FalseNegativeRate == 0 && m.FalsePositiveRate == 0 && len(flagged) == 3
	return out, nil
}
