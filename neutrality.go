// Package neutrality detects and localizes network-neutrality violations
// from external (end-to-end) observations, implementing Zhang, Mara, and
// Argyraki, "Network Neutrality Inference" (SIGCOMM 2014).
//
// # Idea
//
// Classic network tomography assumes the network is neutral — every link
// treats traffic from all paths the same — and forms solvable systems of
// equations y = A·x relating end-to-end pathset observations y to per-link
// performance x. This package turns that on its head: if the network is
// NOT neutral, observations taken from different vantage points are
// mutually inconsistent, and the systems become unsolvable. Carefully
// chosen "slices" of the network turn that inconsistency into localization:
// a link sequence τ whose System 4 is unsolvable is provably non-neutral
// (Lemma 2), with zero false positives under noise-free observations.
//
// # Layout
//
//   - Model: Network (graph + paths + performance classes), Pathset, Perf.
//   - Theory: Observable / ObservableStructural (Theorem 1), Slices and
//     RoutingMatrix (Lemmas 2–3, Section 2.3).
//   - Algorithm: Infer (Algorithm 1 + Algorithm 2 + clustering),
//     Evaluate (false-negative/false-positive/granularity metrics).
//   - Substrates: a packet-level network emulator with TCP (NewReno,
//     CUBIC), token-bucket policing and shaping (RunExperiment), and a
//     fast synthetic observation generator (NewSampler, ExactY).
//   - Baselines: Boolean tomography and least-squares loss tomography.
//   - Engine: a parallel experiment runner (internal/runner) that fans
//     independent experiments across a bounded worker pool.
//
// # Parallel sweeps
//
// The paper's evaluation is dozens of independent emulations — Figure
// 8's nine experiment sets, the Section 6.5 robustness sweeps, the
// ablation grid. The experiment engine (internal/runner) treats each
// as a unit, fans units across a bounded worker pool (one worker per
// CPU by default), and collects results in unit order. Three
// properties make the parallel sweeps safe to use for reproduction:
//
//   - Determinism: every unit derives its seed from
//     (baseSeed, unitIndex), so sweep output is byte-identical for
//     every worker count and completion order.
//   - Ordered collection: printed tables keep the paper's row order no
//     matter which experiment finished first.
//   - Containment: a panicking experiment becomes a per-unit error
//     instead of killing the sweep, and cancelling the context (e.g.
//     Ctrl-C in the CLIs) stops dispatching new experiments and
//     aborts in-flight emulations mid-run (the event loop polls the
//     context between event batches).
//
// Batch entry points: lab.RunBatch and the internal/figures artifacts
// (each takes a figures.Exec). Both CLIs expose the pool width:
//
//	go run ./cmd/experiments -workers 8        # whole evaluation, 8-wide
//	go run ./cmd/neutrality emulate -runs 20 -workers 8   # 20 replicas
//
// # Sweep orchestration
//
// Beyond the paper's fixed 34-experiment evaluation, the sweep
// subsystem (internal/grid + internal/sweep; NewGrid, RunSweep and
// MergeSweep here) executes declarative scenario grids — axes over
// topologies, workload mixes, differentiation policies, and inference
// knobs — as sharded streams of independent cells with one JSONL
// record per cell, bounded-memory online aggregation (streaming
// moments and quantile sketches per axis slice), and resumable
// checkpoints. Any cell is reproducible in isolation from
// (baseSeed, cellIndex), and every artifact is byte-identical for
// every worker count:
//
//	go run ./cmd/neutrality sweep -demo -out /tmp/demo -shards 4
//	go run ./cmd/neutrality sweep -grid grid.json -out d -resume
//
// # Quick start
//
//	net := neutrality.Figure5()              // a paper topology
//	perf := neutrality.Figure5Perf(net)      // ground truth: l1 throttles class 2
//	states := neutrality.NewSampler(net, perf, 42).SampleIntervals(10000)
//	meas := neutrality.SyntheticMeasurements(states, neutrality.DefaultSyntheticOptions())
//	res := neutrality.InferMeasured(net, meas, neutrality.DefaultMeasureOptions())
//	for _, v := range res.NonNeutralSeqs() {
//	    fmt.Println("non-neutral:", v.SeqNames())
//	}
//
// See examples/ for complete programs (examples/quickstart runs the flow
// above), DESIGN.md for the known divergences from the paper and the
// ablations, and cmd/experiments for the reproduction of every table and
// figure of the paper's evaluation.
package neutrality

import (
	"neutrality/internal/graph"
)

// Core model types, re-exported from the internal model package.
type (
	// Network is the paper's G = (V, L, P) plus performance classes.
	Network = graph.Network
	// Builder incrementally assembles a Network.
	Builder = graph.Builder
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// LinkID identifies a link.
	LinkID = graph.LinkID
	// PathID identifies a path.
	PathID = graph.PathID
	// ClassID identifies a performance class.
	ClassID = graph.ClassID
	// Link is a network edge.
	Link = graph.Link
	// Path is a loop-free end-host-to-end-host link sequence.
	Path = graph.Path
	// Pathset is a set of paths — the unit of external observation.
	Pathset = graph.Pathset
	// Perf is the ground-truth per-link per-class performance table
	// (x = −log P(congestion-free)).
	Perf = graph.Perf
	// LinkSet is a set of links.
	LinkSet = graph.LinkSet
	// NodeKind distinguishes end-hosts from relays.
	NodeKind = graph.NodeKind
)

// Node kinds.
const (
	EndHost = graph.EndHost
	Relay   = graph.Relay
)

// NewBuilder returns an empty network builder.
func NewBuilder() *Builder { return graph.NewBuilder() }

// NewPerf allocates an all-zero performance table.
func NewPerf(links, classes int) Perf { return graph.NewPerf(links, classes) }

// NewLinkSet returns a set seeded with the given links.
func NewLinkSet(links ...LinkID) LinkSet { return graph.NewLinkSet(links...) }
