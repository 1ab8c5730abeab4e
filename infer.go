package neutrality

import (
	"neutrality/internal/core"
	"neutrality/internal/measure"
	"neutrality/internal/synth"
)

// Inference API: Algorithm 1 (Section 5) with Algorithm 2 measurement
// processing (Section 6.2).

type (
	// Config parameterizes Infer. The zero value is the paper's
	// operating point (clustered mode).
	Config = core.Config
	// Result is the inference outcome: per-slice verdicts, the flagged
	// set Σn̄, and diagnostics.
	Result = core.Result
	// Verdict is one slice's outcome.
	Verdict = core.Verdict
	// Metrics are the paper's quality measures: false-negative rate,
	// false-positive rate, granularity.
	Metrics = core.Metrics
	// Observer supplies pathset performance numbers to the inference.
	Observer = core.Observer
	// YFunc adapts a slice-independent observation lookup to Observer.
	YFunc = core.YFunc
	// MeasurementObserver runs Algorithm 2 over raw packet counts.
	MeasurementObserver = core.MeasurementObserver
	// Measurements are raw per-interval per-path sent/lost packet counts.
	Measurements = measure.Measurements
	// MeasureOptions configures Algorithm 2 (loss threshold,
	// normalization, smoothing).
	MeasureOptions = measure.Options
	// PathsetPerf is a processed pathset performance number.
	PathsetPerf = measure.PathsetPerf
)

// Decision modes.
const (
	// Clustered is the paper's practical rule: per-pair estimate spread
	// clustered into two groups (Section 6.2).
	Clustered = core.Clustered
	// Exact decides solvability by an exact rank/NNLS test; appropriate
	// for noise-free observations.
	Exact = core.Exact
)

// DefaultMeasureOptions mirrors the paper: 1 % loss threshold,
// normalization on.
func DefaultMeasureOptions() MeasureOptions { return measure.DefaultOptions() }

// Infer runs Algorithm 1 on network n with the given observer and config.
func Infer(n *Network, obs Observer, cfg Config) *Result { return core.Infer(n, obs, cfg) }

// InferMeasured runs the full practical pipeline on raw measurements:
// Algorithm 2 normalization per slice, then Algorithm 1 with clustering.
func InferMeasured(n *Network, meas *Measurements, opts MeasureOptions) *Result {
	return core.Infer(n, core.MeasurementObserver{Meas: meas, Opts: opts}, core.DefaultConfig())
}

// PathCongestionProb returns, for each path, the fraction of its active
// intervals with loss at or above the threshold — the per-path series
// Figure 8 plots.
func PathCongestionProb(meas *Measurements, lossThreshold float64) []float64 {
	return measure.PathCongestionProb(meas, lossThreshold)
}

// Evaluate scores a result against ground truth (Section 5's metrics).
func Evaluate(res *Result, nonNeutralLinks []LinkID) Metrics {
	return core.Evaluate(res, nonNeutralLinks)
}

// Report renders a human-readable inference summary.
func Report(res *Result) string { return core.Report(res) }

// ExactY returns the exact observation lookup of a network under known
// ground truth, computed through the equivalent neutral network. This is
// what end-hosts would measure with infinitely many intervals.
func ExactY(n *Network, perf Perf) func(Pathset) float64 { return synth.YFunc(n, perf) }

// NewSampler draws per-interval congestion states from ground truth,
// for synthetic (emulator-free) experiments.
func NewSampler(n *Network, perf Perf, seed int64) *synth.Sampler {
	return synth.NewSampler(n, perf, seed)
}

// SyntheticMeasurements converts sampled interval states into raw packet
// counts consumable by InferMeasured.
func SyntheticMeasurements(states [][]bool, opts synth.MeasurementOptions) *Measurements {
	return synth.ToMeasurements(states, opts)
}

// DefaultSyntheticOptions returns sensible packet-count conversion
// parameters.
func DefaultSyntheticOptions() synth.MeasurementOptions {
	return synth.DefaultMeasurementOptions()
}
