package figures

import (
	"fmt"

	"neutrality/internal/core"
	"neutrality/internal/emu"
	"neutrality/internal/graph"
	"neutrality/internal/lab"
	"neutrality/internal/measure"
	"neutrality/internal/topo"
)

// AblationDelayMetric demonstrates the Section 7 latency-metric extension:
// a shaper with a deep dedicated queue delays class-2 traffic instead of
// dropping it. The loss-frequency pipeline cannot attribute the
// differentiation (and its marginals even point the wrong way), while the
// latency pipeline — same Algorithm 1/2 machinery over "late" instead of
// "lost" packets — localizes the shared link. Cancelling x's context
// aborts the emulation mid-run.
func AblationDelayMetric(x Exec, sc Scale, seed int64) (*AblationResult, error) {
	out := &AblationResult{Title: "Extension (Section 7): latency metric vs buffered differentiation"}
	p := lab.DefaultParamsA().Scale(sc.Factor, sc.DurationSec)
	p.MeanFlowMb = [2]float64{100 * sc.Factor * 10, 100 * sc.Factor * 10} // persistent
	p.Seed = seed
	p.Diff = &emu.Differentiation{
		Kind:             emu.Shape,
		Rate:             map[graph.ClassID]float64{topo.C2: 0.3},
		ShaperQueueBytes: 4 << 20,
	}
	e, a := p.Experiment("delay-ablation")
	e.DelayFactor = 1
	run, err := lab.RunCtx(x.context(), e)
	if err != nil {
		return nil, err
	}

	lossRes := core.Infer(a.Net, core.MeasurementObserver{Meas: run.Meas, Opts: measure.DefaultOptions()}, core.DefaultConfig())
	delayRes := core.Infer(a.Net, core.MeasurementObserver{Meas: run.DelayMeas, Opts: measure.DefaultOptions()}, core.DefaultConfig())

	lossProbs := measure.PathCongestionProb(run.Meas, 0.01)
	lateProbs := measure.PathCongestionProb(run.DelayMeas, 0.01)
	out.Rows = append(out.Rows,
		fmt.Sprintf("loss view:  per-path congestion %.2f %.2f | %.2f %.2f", lossProbs[0], lossProbs[1], lossProbs[2], lossProbs[3]),
		fmt.Sprintf("delay view: per-path lateness   %.2f %.2f | %.2f %.2f", lateProbs[0], lateProbs[1], lateProbs[2], lateProbs[3]),
		fmt.Sprintf("loss-based verdict: non-neutral=%v", lossRes.NetworkNonNeutral()),
		fmt.Sprintf("delay-based verdict: non-neutral=%v (flagged %d sequence(s))",
			delayRes.NetworkNonNeutral(), len(delayRes.NonNeutralSeqs())))

	delayFlagsShared := false
	for _, v := range delayRes.NonNeutralSeqs() {
		for _, l := range v.Slice.Seq {
			if l == a.Shared {
				delayFlagsShared = true
			}
		}
	}
	out.Pass = delayFlagsShared
	return out, nil
}
