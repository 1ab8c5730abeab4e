package lab

import (
	"fmt"

	"neutrality/internal/emu"
	"neutrality/internal/graph"
	"neutrality/internal/grid"
	"neutrality/internal/topo"
	"neutrality/internal/workload"
)

// ParamsA are the knobs of a topology-A experiment, mirroring Table 1.
// Index 0 of the per-class arrays is class c1, index 1 is c2.
type ParamsA struct {
	// CapacityBps is the shared-link (bottleneck) capacity. Access links
	// get 10× this so only l5 congests, as in the paper's dumbbell.
	CapacityBps float64
	// RTTSec is the base RTT per class.
	RTTSec [2]float64
	// MeanFlowMb is the Pareto mean flow size per class, in megabits.
	MeanFlowMb [2]float64
	// CCA is the congestion-control algorithm per class.
	CCA [2]string
	// FlowsPerPath is the number of parallel flow slots per path.
	FlowsPerPath int
	// GapMeanSec is the mean inter-flow idle time.
	GapMeanSec float64
	// Diff selects the shared link's behaviour: nil (neutral), or a
	// policer/shaper built by Police/Shape below.
	Diff *emu.Differentiation
	// DurationSec and IntervalSec control the run and the measurement
	// interval.
	DurationSec, IntervalSec float64
	Seed                     int64
}

// DefaultParamsA returns Table 1's default operating point: 100 Mbps
// bottleneck, 50 ms RTT, CUBIC, 12 parallel flows per path, 10 Mb mean
// flow size, 10 s mean gap, 100 ms measurement interval, 10-minute run.
//
// Table 1 lists {1, 12, 15, 20, 70} parallel flows; we treat 12 as the
// default because with a single flow per path loss events are too sparse
// to reproduce the congestion probabilities of Figure 8 (tens of percent),
// and the paper's pathset correlations require the differentiating link to
// inflict loss on both paths of a pair within the same 100 ms interval.
func DefaultParamsA() ParamsA {
	return ParamsA{
		CapacityBps:  100e6,
		RTTSec:       [2]float64{0.05, 0.05},
		MeanFlowMb:   [2]float64{10, 10},
		CCA:          [2]string{"cubic", "cubic"},
		FlowsPerPath: 12,
		GapMeanSec:   10,
		DurationSec:  600,
		IntervalSec:  0.1,
		Seed:         1,
	}
}

// Scale shrinks the experiment for fast runs while preserving its shape:
// capacity and flow sizes scale together (identical transfer durations and
// relative load) and the duration shortens. factor 0.1 turns the paper's
// 100 Mbps / 10 min experiment into 10 Mbps / duration.
//
// Flow sizes are floored at 0.5 Mb (≈ 42 segments): below that a "flow"
// fits in TCP's initial window and exhibits no congestion-controlled
// behaviour at all, which would change the experiment's character rather
// than its scale.
func (p ParamsA) Scale(factor, durationSec float64) ParamsA {
	p.CapacityBps *= factor
	p.MeanFlowMb[0] = scaleFlowMb(p.MeanFlowMb[0], factor)
	p.MeanFlowMb[1] = scaleFlowMb(p.MeanFlowMb[1], factor)
	p.DurationSec = durationSec
	return p
}

// scaleFlowMb scales a flow size, flooring at 0.5 Mb but never exceeding
// the original size.
func scaleFlowMb(mb, factor float64) float64 {
	scaled := mb * factor
	if scaled < 0.5 {
		scaled = 0.5
		if mb < scaled {
			scaled = mb
		}
	}
	return scaled
}

// PoliceClass2 returns a Differentiation that polices class c2 at the
// given fraction of link capacity (experiment sets 4–6).
func PoliceClass2(rate float64) *emu.Differentiation {
	return &emu.Differentiation{
		Kind: emu.Police,
		Rate: map[graph.ClassID]float64{topo.C2: rate},
	}
}

// ShapeBothClasses returns a Differentiation that shapes class c2 at rate
// R and class c1 at 1−R (experiment sets 7–9).
func ShapeBothClasses(rate float64) *emu.Differentiation {
	return &emu.Differentiation{
		Kind: emu.Shape,
		Rate: map[graph.ClassID]float64{topo.C1: 1 - rate, topo.C2: rate},
	}
}

// Experiment materializes the parameters on a fresh topology A instance.
func (p ParamsA) Experiment(name string) (*Experiment, *topo.TopologyA) {
	a := topo.NewTopologyA()
	links := map[graph.LinkID]emu.LinkConfig{}
	const edgeDelay = 0.001 // 1 ms per link; residual RTT on the ACK channel
	for _, l := range a.Access {
		links[l] = emu.LinkConfig{Capacity: p.CapacityBps * 10, Delay: edgeDelay}
	}
	for _, l := range a.Egress {
		links[l] = emu.LinkConfig{Capacity: p.CapacityBps * 10, Delay: edgeDelay}
	}
	links[a.Shared] = emu.LinkConfig{Capacity: p.CapacityBps, Delay: edgeDelay, Diff: p.Diff}

	rtts := emu.PathRTT{}
	var loads []workload.PathLoad
	for i, pid := range a.Paths {
		class := 0
		if i >= 2 {
			class = 1 // p3, p4 are class c2
		}
		rtts[pid] = p.RTTSec[class]
		slots := make([]workload.Slot, p.FlowsPerPath)
		for s := range slots {
			slots[s] = workload.Slot{
				Size:    workload.ParetoSize(p.MeanFlowMb[class]),
				GapMean: p.GapMeanSec,
				CC:      p.CCA[class],
			}
		}
		loads = append(loads, workload.PathLoad{Path: pid, Slots: slots})
	}
	return &Experiment{
		Name:     name,
		Net:      a.Net,
		Links:    links,
		RTTs:     rtts,
		Loads:    loads,
		Duration: p.DurationSec,
		Interval: p.IntervalSec,
		Seed:     p.Seed,
	}, a
}

// TableTwoGrid returns the declarative scenario grid of Table 2's set
// (1–9) at the caller's scale: fixed knobs are single-value axes, the
// set's varying parameter is the last axis, and value labels carry the
// paper's row labels. Flow sizes are declared at paper scale and scaled
// by base.ScaleFactor with ParamsA.Scale's floor, so the values are
// absolute knob settings at base, as the sweep engine applies them;
// Table 2 is just a 34-cell sweep.
func TableTwoGrid(set int, base grid.Base) (*grid.Grid, error) {
	mb := func(v float64) grid.Value {
		return grid.Num(scaleFlowMb(v, base.ScaleFactor)).WithLabel(fmt.Sprintf("%gMb", v))
	}
	ms := func(v float64) grid.Value { return grid.Num(v).WithLabel(fmt.Sprintf("%gms", v*1000)) }
	pct := func(v float64) grid.Value { return grid.Num(v).WithLabel(fmt.Sprintf("%g%%", v*100)) }
	mbs := func(vs ...float64) []grid.Value {
		var out []grid.Value
		for _, v := range vs {
			out = append(out, mb(v))
		}
		return out
	}
	mss := func(vs ...float64) []grid.Value {
		var out []grid.Value
		for _, v := range vs {
			out = append(out, ms(v))
		}
		return out
	}
	flowSizes := []float64{1, 10, 40, 10000}
	rtts := []float64{0.05, 0.08, 0.12, 0.2}
	const defaultRate = 0.3
	// RTT sweeps: a 100 ms interval under-samples the congestion
	// process when the RTT itself reaches 200 ms (loss events cluster
	// at RTT granularity). 500 ms is within the paper's validated
	// interval set (Section 6.5).
	rttInterval := ms(0.5)

	g := grid.New(fmt.Sprintf("table2-set%d", set), base)
	switch set {
	case 1: // neutral; c1 flows 1 Mb, c2 varies
		g.Add("c1mb", mb(1)).Add("c2mb", mbs(flowSizes...)...)
	case 2: // neutral; c1 RTT 50 ms, c2 varies
		g.Add("c2rtt", mss(rtts...)...)
	case 3: // neutral; c1 CUBIC, c2 varies
		g.Add("c2cca",
			grid.Str("cubic").WithLabel("cubic/cubic"),
			grid.Str("newreno").WithLabel("cubic/newreno"))
	case 4: // policing; both classes' flow size varies together
		g.Add("diff", grid.Str("police")).Add("rate", pct(defaultRate)).
			Add("flowmb", mbs(flowSizes...)...)
	case 5: // policing; both classes' RTT varies together
		g.Add("diff", grid.Str("police")).Add("rate", pct(defaultRate)).
			Add("interval", rttInterval).Add("rtt", mss(rtts...)...)
	case 6: // policing; rate varies
		g.Add("diff", grid.Str("police")).
			Add("rate", pct(0.2), pct(0.3), pct(0.4), pct(0.5))
	case 7: // shaping; flow size varies
		g.Add("diff", grid.Str("shape")).Add("rate", pct(defaultRate)).
			Add("flowmb", mbs(flowSizes...)...)
	case 8: // shaping; RTT varies
		g.Add("diff", grid.Str("shape")).Add("rate", pct(defaultRate)).
			Add("interval", rttInterval).Add("rtt", mss(rtts...)...)
	case 9: // shaping; rate varies (50 % is the neutral-equivalent corner)
		g.Add("diff", grid.Str("shape")).
			Add("rate", pct(0.5), pct(0.4), pct(0.3), pct(0.2))
	default:
		return nil, fmt.Errorf("lab: Table 2 has sets 1..9, got %d", set)
	}
	return g, nil
}

// TableTwoNonNeutral is the paper's ground-truth label for a cell of
// TableTwoGrid(set, ...): sets 1–3 are neutral, the differentiation
// sets non-neutral — except the R = 0.5 corner of set 9, where both
// classes are shaped identically and the paper calls the link neutral
// (equal marginal treatment). Our reproduction may flag that corner
// (joint-distribution differentiation via separate per-class queues);
// see DESIGN.md.
func TableTwoNonNeutral(set int, c grid.Cell) bool {
	if set <= 3 {
		return false
	}
	if set == 9 {
		rate, _ := c.Lookup("rate")
		return rate.Num != 0.5
	}
	return true
}
