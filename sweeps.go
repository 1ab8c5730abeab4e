package neutrality

import (
	"context"

	"neutrality/internal/grid"
	"neutrality/internal/sweep"
)

// Sweep orchestration, re-exported from internal/grid and
// internal/sweep: declare a scenario grid (axes over topologies,
// workload mixes, differentiation policies, and inference knobs),
// then execute it as a sharded stream of independent cells with
// online aggregation and resumable checkpoints. See the
// `neutrality sweep` subcommand for the file-based workflow.
type (
	// Grid is a declarative scenario grid: axes whose Cartesian
	// product defines the experiment cells, expanded lazily.
	Grid = grid.Grid
	// GridAxis is one grid dimension.
	GridAxis = grid.Axis
	// GridValue is one axis setting (number or string, plus label).
	GridValue = grid.Value
	// GridBase is the per-grid execution scale and seed mode.
	GridBase = grid.Base
	// GridRange is a half-open contiguous cell interval of a grid —
	// the unit a distributed sweep is partitioned into.
	GridRange = grid.Range
	// SweepOptions configure a sweep run (workers, shards, seed,
	// output directory, resume, partition).
	SweepOptions = sweep.Options
	// SweepPartition selects partition K of N of a distributed sweep:
	// a deterministic shard-aligned cell range of the grid.
	SweepPartition = sweep.Partition
	// SweepRecord is one cell's outcome (one JSONL line).
	SweepRecord = sweep.Record
	// SweepResult is a run's outcome: online aggregates plus resume
	// accounting.
	SweepResult = sweep.Result
	// SweepAgg is the mergeable online aggregate of a sweep.
	SweepAgg = sweep.Agg
)

// NewGrid starts a grid with the given name and base.
func NewGrid(name string, base GridBase) *Grid { return grid.New(name, base) }

// GridNum returns a numeric axis value.
func GridNum(v float64) GridValue { return grid.Num(v) }

// GridStr returns a string axis value.
func GridStr(s string) GridValue { return grid.Str(s) }

// ValidateSweepGrid checks a grid against the sweep axis vocabulary
// before anything runs.
func ValidateSweepGrid(g *Grid) error { return sweep.Validate(g) }

// RunSweep executes the grid on the sweep engine. Output (records,
// shard files, aggregates) is byte-identical for every worker count;
// cancelling ctx aborts in-flight emulations and leaves a resumable
// checkpoint when SweepOptions.Dir is set.
func RunSweep(ctx context.Context, g *Grid, opt SweepOptions) (*SweepResult, error) {
	return sweep.Run(ctx, g, opt)
}

// MergeSweep reconstitutes a single-run sweep directory from the
// partition directories of a distributed sweep (SweepOptions.Partition
// runs of the same grid). It verifies fingerprints, completeness, and
// range disjointness — reporting gaps and unfinished partitions as
// resumable frontiers — then produces a manifest, shard files, and
// aggregate summary byte-identical to a single-process run.
func MergeSweep(g *Grid, dirs []string, out string) (*SweepResult, error) {
	return sweep.Merge(g, dirs, out)
}

// PartitionSweepRange computes the cell range partition k of n covers
// for a grid run with the given shard count — the same split RunSweep
// applies, exposed so orchestrators can size partitions up front.
func PartitionSweepRange(g *Grid, shards, k, n int) (GridRange, error) {
	if shards <= 0 {
		shards = 1
	}
	return grid.PartitionBlocks(g.Cells(), shards, k, n)
}

// Sweep error kinds RunSweep and MergeSweep return, for branching on
// failure modes without parsing messages: ErrSweepIncomplete tags resumable-incomplete conditions
// (unfinished partitions, coverage gaps, per-cell timeouts);
// ErrSweepValidation tags spec/artifact mismatches that rerunning
// cannot fix. ErrSweepCorrupt additionally tags artifact-corruption
// findings (failed record CRCs, shard hash mismatches, destroyed
// manifests); it wraps ErrSweepValidation, so errors.Is branches on
// validation keep matching.
var (
	ErrSweepIncomplete = sweep.ErrIncomplete
	ErrSweepValidation = sweep.ErrValidation
	ErrSweepCorrupt    = sweep.ErrCorrupt
)
