package neutrality

import (
	"neutrality/internal/emu"
	"neutrality/internal/lab"
	"neutrality/internal/topo"
	"neutrality/internal/workload"
)

// Emulation API: the packet-level substrate of the paper's evaluation
// (Section 6.1) and the concrete experiment definitions.

type (
	// Experiment is a fully specified emulation run.
	Experiment = lab.Experiment
	// RunResult is the outcome of one emulation run.
	RunResult = lab.Result
	// LinkConfig describes one emulated link (capacity, delay, queue,
	// differentiation).
	LinkConfig = emu.LinkConfig
	// Differentiation configures per-class policing or shaping.
	Differentiation = emu.Differentiation
	// PathRTT assigns base round-trip times to paths.
	PathRTT = emu.PathRTT
	// QueueTrace is a sampled queue-occupancy series (Figure 11).
	QueueTrace = emu.QueueTrace
	// LinkClassTruth is ground-truth per-link per-path congestion
	// (Figure 10(a)).
	LinkClassTruth = emu.LinkClassTruth
	// PathLoad is the traffic specification of one path.
	PathLoad = workload.PathLoad
	// Slot is one parallel flow slot (size generator + idle gap + CCA).
	Slot = workload.Slot
	// ParamsA are the topology-A experiment knobs (Table 1).
	ParamsA = lab.ParamsA
	// ParamsB are the topology-B experiment knobs (Table 3).
	ParamsB = lab.ParamsB
	// TopologyA is the dumbbell of Figure 7.
	TopologyA = topo.TopologyA
	// TopologyB is the multi-ISP backbone in the spirit of Figure 9.
	TopologyB = topo.TopologyB
)

// Differentiation mechanisms.
const (
	// Police drops excess traffic of the regulated classes (token
	// bucket).
	Police = emu.Police
	// Shape buffers excess traffic in a dedicated queue drained at the
	// shaped rate.
	Shape = emu.Shape
)

// RunExperiment executes an emulation experiment.
func RunExperiment(e *Experiment) (*RunResult, error) { return lab.Run(e) }

// DefaultParamsA returns Table 1's default operating point.
func DefaultParamsA() ParamsA { return lab.DefaultParamsA() }

// DefaultParamsB returns the topology-B defaults (Table 3 workloads).
func DefaultParamsB() ParamsB { return lab.DefaultParamsB() }

// PoliceClass2 polices class c2 at the given fraction of link capacity.
func PoliceClass2(rate float64) *Differentiation { return lab.PoliceClass2(rate) }

// ShapeBothClasses shapes class c2 at rate R and class c1 at 1−R.
func ShapeBothClasses(rate float64) *Differentiation { return lab.ShapeBothClasses(rate) }
