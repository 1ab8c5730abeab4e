// Package lab orchestrates emulation experiments: it instantiates a
// topology on the emulator, installs workloads, runs for a configured
// duration, and exports the external observations (for the inference
// algorithm), the ground truth on request (for Figure 10(a)), and queue
// traces (for Figure 11). The concrete experiment definitions of the
// paper's evaluation — Table 2's nine topology-A sets and the topology-B
// run — are built on top.
package lab

import (
	"context"
	"fmt"

	"neutrality/internal/emu"
	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/runner"
	"neutrality/internal/stats"
	"neutrality/internal/workload"
)

// Experiment is a fully specified emulation run.
type Experiment struct {
	Name string
	Net  *graph.Network
	// Links configures every link of Net.
	Links map[graph.LinkID]emu.LinkConfig
	// RTTs assigns the base round-trip time of every path.
	RTTs emu.PathRTT
	// Loads is the traffic specification.
	Loads []workload.PathLoad
	// Duration is the simulated run length in seconds (paper: 600).
	Duration float64
	// Interval is the measurement interval in seconds (paper: 0.1).
	Interval float64
	// Warmup discards the first seconds of measurements while TCP ramps
	// up (not part of the paper's description; exposed for tests).
	Warmup float64
	// Seed drives all randomness of the run.
	Seed int64
	// MeasuredPaths restricts exported measurements (nil = all paths).
	MeasuredPaths []graph.PathID
	// TraceLinks enables queue-occupancy sampling on the given links.
	TraceLinks []graph.LinkID
	// TraceInterval is the queue sampling period (default 1 s).
	TraceInterval float64
	// DelayFactor, when > 0, enables latency-based observations (the
	// Section 7 latency-metric extension): a packet is late when its
	// one-way delay exceeds the path's neutral delay envelope —
	// propagation + transmission + DelayFactor × the worst-case main-queue
	// residence. 1 is the exact envelope.
	DelayFactor float64
	// GroundTruth records per-link per-path arrival and drop counts (the
	// network's "directly measured" congestion behind Figure 10(a)) for
	// Result.GroundTruth. Inference never reads them, so runs that only
	// feed Algorithms 1–2 leave it off and skip the per-hop accounting.
	GroundTruth bool
}

// Result is the outcome of one emulation run.
type Result struct {
	Experiment *Experiment
	Sim        *emu.Sim
	Net        *emu.Network
	Collector  *emu.Collector
	Runner     *workload.Runner
	// Meas are the external observations over the measured paths
	// (renumbered 0..n-1 in MeasuredPaths order).
	Meas *measure.Measurements
	// DelayMeas are the latency-based observations (nil unless the
	// experiment set DelayFactor > 0): Sent = delivered, Lost = late.
	DelayMeas *measure.Measurements
}

// Run executes the experiment.
func Run(e *Experiment) (*Result, error) {
	return RunCtx(context.Background(), e)
}

// RunCtx executes the experiment under a cancellable context: the
// emulation polls ctx between event batches (see emu.Sim.RunCtx) and
// aborts mid-run with the context's error when it is cancelled, so an
// interrupted batch or sweep stops within milliseconds instead of
// draining every in-flight run to completion.
func RunCtx(ctx context.Context, e *Experiment) (*Result, error) {
	if e.Duration <= 0 {
		return nil, fmt.Errorf("lab: experiment %q has no duration", e.Name)
	}
	if e.Interval <= 0 {
		e.Interval = 0.1
	}
	sim := emu.NewSim()
	net, err := emu.Build(sim, e.Net, e.Links, e.RTTs)
	if err != nil {
		return nil, fmt.Errorf("lab: %s: %w", e.Name, err)
	}
	col := emu.NewCollector(net, e.Interval)
	ti := e.TraceInterval
	if ti <= 0 {
		ti = 1.0
	}
	for _, l := range e.TraceLinks {
		col.TraceQueue(net, l, ti)
	}
	if e.DelayFactor > 0 {
		if err := col.EnableDelayTracking(net, e.DelayFactor); err != nil {
			return nil, fmt.Errorf("lab: %s: %w", e.Name, err)
		}
	}
	if e.GroundTruth {
		if err := col.EnableGroundTruth(net); err != nil {
			return nil, fmt.Errorf("lab: %s: %w", e.Name, err)
		}
	}
	rng := stats.NewRand(e.Seed)
	runner, err := workload.NewRunner(net, e.Loads, rng)
	if err != nil {
		return nil, fmt.Errorf("lab: %s: %w", e.Name, err)
	}
	if err := sim.RunCtx(ctx, e.Duration); err != nil {
		return nil, fmt.Errorf("lab: %s interrupted: %w", e.Name, err)
	}

	meas := col.Measurements(e.Duration, e.MeasuredPaths)
	var delayMeas *measure.Measurements
	if e.DelayFactor > 0 {
		delayMeas, err = col.DelayMeasurements(e.Duration, e.MeasuredPaths)
		if err != nil {
			return nil, err
		}
	}
	if e.Warmup > 0 {
		skip := int(e.Warmup / e.Interval)
		if skip < meas.Intervals() {
			meas.Sent = meas.Sent[skip:]
			meas.Lost = meas.Lost[skip:]
		}
		if delayMeas != nil && skip < delayMeas.Intervals() {
			delayMeas.Sent = delayMeas.Sent[skip:]
			delayMeas.Lost = delayMeas.Lost[skip:]
		}
	}
	return &Result{
		Experiment: e,
		Sim:        sim,
		Net:        net,
		Collector:  col,
		Runner:     runner,
		Meas:       meas,
		DelayMeas:  delayMeas,
	}, nil
}

// RunBatch executes independent experiments across a bounded worker
// pool (workers <= 0 means one per CPU) and returns the results in
// input order (results[i] belongs to exps[i]; the runner pool
// guarantees index order regardless of completion order). Each
// experiment is self-seeding (Experiment.Seed), so the batch output is
// identical for every worker count. The first failing experiment
// cancels dispatch of the remaining ones and aborts the in-flight
// runs; cancelling ctx does the same.
func RunBatch(ctx context.Context, workers int, exps []*Experiment) ([]*Result, error) {
	return runner.Map(ctx, workers, len(exps), func(uctx context.Context, i int) (*Result, error) {
		return RunCtx(uctx, exps[i])
	})
}

// GroundTruth exposes the collector's per-link per-path congestion
// probabilities for the run; it fails unless the experiment set
// GroundTruth.
func (r *Result) GroundTruth(lossThreshold float64) ([]emu.LinkClassTruth, error) {
	return r.Collector.GroundTruth(r.Experiment.Duration, lossThreshold)
}
