package neutrality

import (
	"context"
	"io"

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

// ParseGridJSON reads and validates a grid spec in its JSON file form.
func ParseGridJSON(r io.Reader) (*Grid, error) { return grid.ParseJSON(r) }

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

// Artifact integrity, re-exported from internal/sweep: every shard
// record carries a CRC32C frame and every shard file a SHA-256 content
// hash in the manifest, so damage is detectable — and because each
// record is a pure function of (grid, cell, seed), damage is also
// repairable byte-identically. See the `neutrality verify` subcommand
// for the file-based workflow.
type (
	// SweepVerifyReport is the outcome of a read-only integrity scrub.
	SweepVerifyReport = sweep.VerifyReport
	// SweepShardStatus is one shard's verification outcome.
	SweepShardStatus = sweep.ShardStatus
	// SweepRepairOptions configure RepairSweep.
	SweepRepairOptions = sweep.RepairOptions
	// SweepRepairReport is the outcome of a RepairSweep.
	SweepRepairReport = sweep.RepairReport
	// SweepManifestInfo is a sweep directory's validated identity.
	SweepManifestInfo = sweep.ManifestInfo
)

// VerifySweep walks a sweep directory's artifacts — manifest,
// per-shard content hashes, per-record CRC framing — and reports every
// integrity violation without mutating anything.
func VerifySweep(g *Grid, dir string) (*SweepVerifyReport, error) {
	return sweep.Verify(g, dir)
}

// RepairSweep converges a damaged sweep directory on a state
// indistinguishable from an uncorrupted run: quarantined records are
// re-derived from their seeds and spliced back, torn tails truncated,
// and the manifest rewritten with fresh content hashes.
func RepairSweep(ctx context.Context, g *Grid, dir string, opt SweepRepairOptions) (*SweepRepairReport, error) {
	return sweep.Repair(ctx, g, dir, opt)
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

// DemoSweepGrid is the built-in 1,000-cell demonstration grid:
// policer rate × discrimination fraction × topology × replicas.
func DemoSweepGrid() *Grid { return sweep.DemoGrid() }
