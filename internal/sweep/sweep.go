// Package sweep is the sweep orchestration engine: it executes a
// declarative scenario grid (internal/grid) — whose axes span
// topologies, workload mixes, differentiation policies, and inference
// knobs — as a sharded stream of independent experiment cells over the
// parallel runner pool, folding every result into bounded-memory
// online aggregates and (optionally) persisting one JSONL record per
// cell with resumable checkpoints.
//
// The engine makes four guarantees:
//
//   - Reproducibility. A cell's record is a pure function of
//     (grid, cell index, base seed): seeds derive from
//     (baseSeed, cellIndex), so any cell of a 100k-cell sweep can be
//     re-run in isolation.
//   - Determinism. Records are emitted, written, and aggregated in
//     cell order (the documented sort key of every record stream),
//     whatever the worker count: shard files, manifest, and summary
//     are byte-identical between -workers=1 and -workers=N.
//   - Bounded memory. The grid is expanded lazily, records stream
//     through a fixed reorder window, and aggregation is
//     O(axes × values); nothing scales with the cell count.
//   - Interruption safety. Cancelling the context aborts in-flight
//     emulations mid-run (emu.Sim.RunCtx), flushes the completed
//     prefix, and records it in the checkpoint manifest; a -resume
//     run validates the spec fingerprint, replays the persisted
//     records into the aggregates, and continues from the first
//     missing cell.
//
// # Distributed sweeps
//
// A sweep is partitionable: Options.Partition k/n restricts the run
// to a deterministic, shard-aligned contiguous cell range of the same
// grid (grid.PartitionBlocks with the shard count as the block size),
// writing the same shard-NNNN.jsonl layout plus a partition-scoped
// manifest, and Merge reconstitutes the exact artifacts a
// single-process run would have produced. The invariants that make
// this work:
//
//   - Manifest invariants. A manifest records the spec identity
//     (name, fingerprint, cells), the artifact layout (shards, base
//     seed), and the progress frontier: Completed cells — always the
//     contiguous prefix of the directory's range — with PerShard the
//     per-shard record counts implied by that frontier. Partition
//     manifests additionally carry their half-open global cell range
//     (and k/n); full-run and merged manifests omit it, so a merged
//     manifest is byte-identical to a single-run manifest. Manifests
//     contain no timestamps or host details.
//
//   - Shard alignment. Partition ranges start on multiples of the
//     shard count, so cell (Lo+j) lands in shard j mod shards: each
//     partition's shard-s file holds its range's shard-s cells in
//     increasing order, and concatenating the partitions' shard-s
//     files in range order reproduces the single-run shard-s file
//     byte for byte.
//
//   - Merge laws. Aggregates are mergeable (Agg.Merge): counts,
//     histogram bins, events, and min/max merge exactly, so Merge is
//     associative and commutative on them outright; Welford moments
//     merge Chan-style, which is exact when either side is empty and
//     otherwise agrees with the sequential fold to floating-point
//     rounding — far below Summary's printed precision, so Summary
//     output is stable under merge order. Merge nevertheless replays
//     the merged records in cell order when reconstituting a
//     directory, which reproduces the single-run aggregate (and its
//     Summary) bit for bit rather than up to rounding.
package sweep

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"time"

	"neutrality/internal/durable"
	"neutrality/internal/errkind"
	"neutrality/internal/grid"
	"neutrality/internal/measure"
	"neutrality/internal/runner"
)

// Record is one cell's outcome: the scenario coordinates (cell index,
// derived seed, axis value labels in axis order) and the inference
// quality metrics scored against the cell's ground truth. Records in
// every exported stream are ordered by Cell — the documented sort key
// — regardless of completion order. All fields are deterministic
// functions of the cell (wall-clock timing is deliberately excluded;
// Events is the deterministic work measure), which is what keeps
// sweep output byte-identical across worker counts.
type Record struct {
	Cell int   `json:"cell"`
	Seed int64 `json:"seed"`
	// Axes are the cell's axis value labels, in grid axis order.
	Axes []string `json:"axes"`
	// Verdict is the network-level non-neutrality verdict.
	Verdict bool `json:"verdict"`
	// Unsolvability is the maximum unsolvability across candidate
	// sequences.
	Unsolvability float64 `json:"unsolvability"`
	// FN, FP, Granularity, Detected are the Section 6.4 quality
	// metrics against the cell's ground-truth differentiating links.
	FN          float64 `json:"fn"`
	FP          float64 `json:"fp"`
	Granularity float64 `json:"granularity"`
	Detected    int     `json:"detected"`
	// Sequences counts the candidate (identifiable) sequences.
	Sequences int `json:"sequences"`
	// Events is the number of discrete events the cell's emulation
	// processed — the deterministic cost measure.
	Events uint64 `json:"events"`
}

// Partition selects one member of an n-way sweep split: the run
// covers partition K of N (1-based), a contiguous shard-aligned cell
// range computed by grid.PartitionBlocks. The zero Partition means
// the whole grid. Every partition of the same (grid, shards, seed)
// writes artifacts that Merge can reconstitute into the byte-exact
// single-run directory.
type Partition struct {
	K, N int
}

// IsZero reports whether p is the whole-grid (non-partitioned) run.
func (p Partition) IsZero() bool { return p == Partition{} }

// Options configure one engine run.
type Options struct {
	// Workers bounds the worker pool (0 = one per CPU).
	Workers int
	// Shards partitions cells across output files: cell i belongs to
	// shard i mod Shards (0 = 1). The partition is a function of the
	// spec, never of Workers, so the shard layout is stable.
	Shards int
	// Partition, when non-zero, restricts the run to partition K of N
	// — a deterministic shard-aligned cell range of the grid — for
	// distributed execution; see Merge. Cell indices, seeds, shard
	// assignment, and record bytes are identical to the full run's.
	Partition Partition
	// BaseSeed is the sweep's seed root.
	BaseSeed int64
	// Dir, when non-empty, persists shard JSONL files and the
	// checkpoint manifest there. Empty runs in memory only (no
	// checkpointing).
	Dir string
	// Resume continues a sweep previously interrupted in Dir: the
	// manifest's spec fingerprint must match, persisted records are
	// replayed into the aggregates, and execution starts at the first
	// missing cell. Without Resume, Dir must not already contain a
	// sweep.
	Resume bool
	// CellTimeout, when positive, is the per-cell watchdog: each
	// cell's emulation runs under its own context deadline, so one
	// pathological cell cannot wedge the whole partition. A cell that
	// exceeds it fails the run with a *CellTimeoutError — a named,
	// resumable condition (the checkpoint keeps the completed prefix)
	// — rather than hanging. Completed cells' bytes are unaffected, so
	// the byte-identity guarantees hold for any timeout that lets the
	// cells finish.
	CellTimeout time.Duration
	// OnRecord, when set, observes every record in cell order —
	// including, on resume, the replayed ones.
	OnRecord func(Record)
	// Progress, when set, is called after each emitted record with
	// (completed cells, total cells). Completed includes resumed
	// records.
	Progress func(done, total int)
}

// Result is the outcome of an engine run.
type Result struct {
	// Agg holds the online aggregates over all records (replayed +
	// executed); Summary() renders them.
	Agg *Agg
	// Total is the number of cells this run was responsible for: the
	// grid's cell count for a full run, the partition range's length
	// for a partitioned one.
	Total int
	// Resumed is how many cells were restored intact from the
	// checkpoint rather than executed.
	Resumed int
	// Repaired is how many checkpointed cells failed their record
	// checksum on resume and were re-derived from their seeds before
	// the run continued (see the recovery notes on openStore).
	Repaired int
	// Range is the half-open global cell range the run covered
	// (the full grid unless Options.Partition was set).
	Range grid.Range
}

// checkpointEvery is how many emitted records may elapse between
// checkpoint flushes: shard writers are flushed and the manifest
// rewritten, bounding how much completed work an abrupt kill can lose.
const checkpointEvery = 64

// Run executes the grid. See the package comment for the guarantees.
// On cancellation it returns the context's error after flushing the
// checkpoint; the partial results stay valid for Resume.
func Run(ctx context.Context, g *grid.Grid, opt Options) (*Result, error) {
	if err := Validate(g); err != nil {
		return nil, err
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = 1
	}
	if shards > 4096 {
		return nil, fmt.Errorf("sweep: %d shards (max 4096)", shards)
	}
	rng := g.FullRange()
	if !opt.Partition.IsZero() {
		// Shard-aligned split: the block size is the shard count, so
		// partition shard files stay concatenable (see Merge).
		var err error
		rng, err = grid.PartitionBlocks(g.Cells(), shards, opt.Partition.K, opt.Partition.N)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	agg := NewAgg(g)
	res := &Result{Agg: agg, Total: rng.Len(), Range: rng}

	workers := opt.Workers
	if workers <= 0 {
		workers = runner.DefaultWorkers()
	}

	var st *store
	start := rng.Lo
	if opt.Dir != "" {
		var err error
		st, err = openStore(g, opt, shards, rng)
		if err != nil {
			return nil, err
		}
		defer st.closeFiles()
		if st.plan != nil {
			res.Repaired = len(st.plan.quarantine)
		}
		// heal re-derives any quarantined cells from their seeds and
		// splices them back (a no-op on a clean directory), then opens
		// the shard writers on the repaired files.
		if err := st.heal(ctx, workers); err != nil {
			return nil, err
		}
		start = rng.Lo + st.completed
		res.Resumed = st.completed - res.Repaired
		if err := st.replay(func(r Record) {
			agg.Add(r)
			if opt.OnRecord != nil {
				opt.OnRecord(r)
			}
			if opt.Progress != nil {
				opt.Progress(r.Cell+1-rng.Lo, rng.Len())
			}
		}); err != nil {
			return nil, err
		}
	}

	window := 4 * workers
	sinceCheckpoint := 0
	streamErr := runner.Stream(ctx, workers, start, rng.Hi, window,
		func(uctx context.Context, i int) (Record, error) {
			if opt.CellTimeout <= 0 {
				r, _, err := RunCell(uctx, g, i, cellSeed(g, opt.BaseSeed, i))
				return r, err
			}
			cctx, cancel := context.WithTimeout(uctx, opt.CellTimeout)
			defer cancel()
			r, _, err := RunCell(cctx, g, i, cellSeed(g, opt.BaseSeed, i))
			if err != nil && errors.Is(cctx.Err(), context.DeadlineExceeded) && uctx.Err() == nil {
				// The cell's own deadline fired (not an outer
				// cancellation): name the cell so the operator knows
				// what to resume past or retune.
				return r, &CellTimeoutError{Cell: i, Timeout: opt.CellTimeout}
			}
			return r, err
		},
		func(i int, r Record, err error) error {
			if err != nil {
				// A failing cell is a spec or engine defect (or the
				// cancellation arriving); the checkpoint keeps the
				// prefix before it.
				return fmt.Errorf("sweep: cell %d: %w", i, err)
			}
			if st != nil {
				if err := st.append(r); err != nil {
					return err
				}
			}
			agg.Add(r)
			if opt.OnRecord != nil {
				opt.OnRecord(r)
			}
			if opt.Progress != nil {
				opt.Progress(i+1-rng.Lo, rng.Len())
			}
			sinceCheckpoint++
			if st != nil && sinceCheckpoint >= checkpointEvery {
				sinceCheckpoint = 0
				if err := st.checkpoint(); err != nil {
					return err
				}
			}
			return nil
		})
	if st != nil {
		if err := st.checkpoint(); err != nil && streamErr == nil {
			streamErr = err
		}
	}
	if streamErr != nil {
		return nil, streamErr
	}
	return res, nil
}

// manifestVersion is the artifact format this build reads and writes:
// version 2 added per-record CRC32C framing in the shard files and the
// per-shard SHA-256 sums below. The version is a major version in the
// compatibility sense — readers reject manifests from a different
// major outright (a newer writer may have changed the shard byte
// format under them) but tolerate unknown manifest fields within a
// version, so minor additions stay readable.
const manifestVersion = 2

// manifest is the checkpoint file: the spec identity and the progress
// frontier. It contains no timestamps or host details, so manifests
// are byte-identical across worker counts too, and a merged manifest
// is byte-identical to a single-run one (Range is omitted on both).
type manifest struct {
	// Version is the artifact format version (manifestVersion).
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	// Cells is the FULL grid's cell count, even on a partition
	// manifest — it identifies the artifact a merge reconstitutes.
	Cells    int   `json:"cells"`
	Shards   int   `json:"shards"`
	BaseSeed int64 `json:"base_seed"`
	// Draw is the Algorithm 2 discount draw the records' verdicts come
	// from (measure.DrawScheme), stamped by writeManifest. Resume,
	// merge and repair refuse a directory written under another draw
	// (checkDraw) rather than mix two estimators' records; verify,
	// which only reads, does not.
	Draw string `json:"draw"`
	// Completed is the contiguous prefix of the directory's cell
	// range whose records are persisted: every cell in
	// [range.lo, range.lo+Completed) is in its shard file. For a
	// full-grid directory the range starts at 0, so Completed is the
	// global frontier.
	Completed int `json:"completed"`
	// PerShard are the per-shard persisted record counts (shard s
	// holds the range's cells ≡ s mod Shards, in increasing order).
	PerShard []int `json:"per_shard"`
	// ShardSums are the per-shard SHA-256 sums (lowercase hex) over
	// exactly the PerShard[s] claimed lines of each shard file —
	// recovery and merge verify shard content against them before
	// trusting (or hard-linking) it.
	ShardSums []string `json:"shard_sha256"`
	// Range stamps a partition manifest with its half-open global
	// cell range and k/n coordinates. nil means the full grid — the
	// form single-run and merged manifests share.
	Range *manifestRange `json:"range,omitempty"`
}

// manifestRange is the partition stamp of a partition-scoped manifest.
type manifestRange struct {
	K  int `json:"k"`
	N  int `json:"n"`
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// rng returns the cell range the manifest's directory covers.
func (m *manifest) rng() grid.Range {
	if m.Range == nil {
		return grid.Range{Lo: 0, Hi: m.Cells}
	}
	return grid.Range{Lo: m.Range.Lo, Hi: m.Range.Hi}
}

// parseManifest decodes and structurally validates a manifest. Every
// invariant a reader later relies on is checked here, so corrupt or
// hostile manifest bytes fail with an error instead of driving the
// store (or a merge) out of bounds.
func parseManifest(data []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	// Version gate before any structural checks: a future major may
	// have changed the fields (and the shard byte format) arbitrarily,
	// so nothing else about the document can be interpreted. Unknown
	// fields within a supported version are tolerated (json.Unmarshal
	// drops them), which is what lets minor additions stay readable.
	if m.Version > manifestVersion {
		return nil, errkind.Errorf(errkind.Validation, "manifest version %d is newer than this build's format (version %d); upgrade to read it", m.Version, manifestVersion)
	}
	if m.Version < manifestVersion {
		return nil, errkind.Errorf(errkind.Validation, "manifest version %d predates the checksummed shard format (version %d); re-run the sweep to regenerate its artifacts", m.Version, manifestVersion)
	}
	if m.Cells < 0 {
		return nil, fmt.Errorf("negative cell count %d", m.Cells)
	}
	if m.Shards < 1 || m.Shards > 4096 {
		return nil, fmt.Errorf("%d shards outside [1,4096]", m.Shards)
	}
	if len(m.PerShard) != m.Shards {
		return nil, fmt.Errorf("%d per-shard counts for %d shards", len(m.PerShard), m.Shards)
	}
	if r := m.Range; r != nil {
		if r.N < 1 || r.K < 1 || r.K > r.N {
			return nil, fmt.Errorf("partition %d/%d is not a valid 1-based k/n split", r.K, r.N)
		}
		if r.Lo < 0 || r.Hi < r.Lo || r.Hi > m.Cells {
			return nil, fmt.Errorf("range [%d,%d) outside [0,%d)", r.Lo, r.Hi, m.Cells)
		}
		if r.Lo%m.Shards != 0 && r.Lo != m.Cells {
			return nil, fmt.Errorf("range start %d is not aligned to %d shards", r.Lo, m.Shards)
		}
	}
	rng := m.rng()
	if m.Completed < 0 || m.Completed > rng.Hi-rng.Lo {
		return nil, fmt.Errorf("completed %d outside range [%d,%d)", m.Completed, rng.Lo, rng.Hi)
	}
	// The per-shard counts must be exactly the ones the frontier
	// implies (their sum then equals Completed by construction).
	for s, c := range m.PerShard {
		if want := linesOf(m.Completed, s, m.Shards); c != want {
			return nil, fmt.Errorf("shard %d records %d, frontier %d implies %d", s, c, m.Completed, want)
		}
	}
	if len(m.ShardSums) != m.Shards {
		return nil, fmt.Errorf("%d shard sums for %d shards", len(m.ShardSums), m.Shards)
	}
	for s, sum := range m.ShardSums {
		if !durable.IsSHA256Hex(sum) {
			return nil, fmt.Errorf("shard %d sum %q is not 64 lowercase hex digits", s, sum)
		}
	}
	return &m, nil
}

// checkDraw refuses a directory whose records were computed under
// another Algorithm 2 draw than this build's: adding records to it
// would mix two estimators' verdicts in one artifact. Directories
// written before the draw was recorded carry none and are refused too.
// op prefixes the error ("sweep", "sweep: merge", ...).
func (m *manifest) checkDraw(op, dir string) error {
	if m.Draw != measure.DrawScheme {
		return errkind.Errorf(errkind.Validation, "%s: %s was recorded under Algorithm 2 draw %q, this build draws %q; re-run the sweep in a fresh directory",
			op, dir, m.Draw, measure.DrawScheme)
	}
	return nil
}

// writeManifest atomically replaces d's manifest with m (so a kill
// never leaves a torn manifest), stamped with this build's Algorithm 2
// draw.
func writeManifest(d *durable.Dir, m *manifest) error {
	m.Draw = measure.DrawScheme
	if err := d.WriteJSON(manifestFile, m); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// store persists shard JSONL files plus the manifest in one directory.
// It covers one cell range of the grid: the whole grid for ordinary
// runs, a shard-aligned sub-range for partitioned ones. completed and
// all per-shard arithmetic are range-local (cell i ↔ local index
// i-rng.Lo; shard i%shards == local%shards because rng.Lo is
// shard-aligned).
type store struct {
	dir      *durable.Dir
	g        *grid.Grid
	shards   int
	rng      grid.Range
	part     Partition
	baseSeed int64
	logs     []*durable.Log
	// sums are the running per-shard SHA-256 states over every byte
	// appended (and, after recovery, every byte kept); checkpoint
	// snapshots them into the manifest. Appends and flushes keep them
	// in step with the claimed prefix because checkpoint flushes
	// before it writes the manifest.
	sums      []hash.Hash
	completed int
	// plan is the pending recovery work scheduled by openStore and
	// executed by heal; nil once healed (or on a run without repair
	// work).
	plan *recoveryPlan
}

// recoveryPlan is the damage assessment openStore produces for heal:
// which global cells must be re-derived, and how each shard file gets
// back to a clean state.
type recoveryPlan struct {
	// quarantine are the damaged global cell indices, ascending.
	quarantine []int
	shards     []shardPlan
}

// shardPlan is one shard's piece of a recoveryPlan.
type shardPlan struct {
	scan shardScan
	// data retains the shard image only when a rebuild (splice) is
	// required.
	data []byte
}

const manifestFile = "manifest.json"

func manifestPath(dir string) string { return filepath.Join(dir, manifestFile) }

func shardFile(s int) string { return fmt.Sprintf("shard-%04d.jsonl", s) }

func shardPath(dir string, s int) string { return filepath.Join(dir, shardFile(s)) }

// openStore prepares the sweep directory: fresh directories are
// initialized, existing ones are validated against the spec and — with
// Resume — recovered. Recovery re-derives the completed frontier from
// the files themselves (never trusting the manifest alone) and
// distinguishes the two damage classes: torn tails past the manifest's
// claim are scheduled for truncation, while corruption inside the
// claim — a failed record CRC, a missing line, a deleted shard file —
// quarantines exactly the damaged cells for re-derivation. openStore
// only plans that work (st.plan); heal executes it and opens the
// writers, so no shard file is mutated until the repair records exist.
func openStore(g *grid.Grid, opt Options, shards int, rng grid.Range) (*store, error) {
	dir, err := durable.Open(opt.Dir)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	st := &store{dir: dir, g: g, shards: shards, rng: rng, part: opt.Partition, baseSeed: opt.BaseSeed}
	mdata, err := os.ReadFile(manifestPath(opt.Dir))
	switch {
	case err == nil:
		if !opt.Resume {
			return nil, errkind.Errorf(errkind.Validation, "sweep: %s already contains a sweep; resume it or use a fresh directory", opt.Dir)
		}
		m, err := parseManifest(mdata)
		if err != nil {
			return nil, errkind.Errorf(errkind.Validation, "sweep: corrupt manifest in %s: %w", opt.Dir, err)
		}
		if m.Fingerprint != g.Fingerprint() {
			return nil, errkind.Errorf(errkind.Validation, "sweep: %s was recorded for spec %s (fingerprint %.12s…), not this spec (%.12s…)",
				opt.Dir, m.Name, m.Fingerprint, g.Fingerprint())
		}
		if err := m.checkDraw("sweep", opt.Dir); err != nil {
			return nil, err
		}
		if m.Shards != shards || m.BaseSeed != opt.BaseSeed {
			return nil, errkind.Errorf(errkind.Validation, "sweep: %s was recorded with shards=%d seed=%d; resume must reuse them (got shards=%d seed=%d)",
				opt.Dir, m.Shards, m.BaseSeed, shards, opt.BaseSeed)
		}
		if m.rng() != rng {
			return nil, errkind.Errorf(errkind.Validation, "sweep: %s covers cells [%d,%d); resume must request the same partition (got [%d,%d))",
				opt.Dir, m.rng().Lo, m.rng().Hi, rng.Lo, rng.Hi)
		}
		if err := st.recover(m); err != nil {
			return nil, err
		}
	case os.IsNotExist(err):
		// Fresh sweep (Resume on an empty directory is allowed — it
		// makes restart loops idempotent).
		for s := 0; s < shards; s++ {
			if err := os.WriteFile(shardPath(opt.Dir, s), nil, 0o644); err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
		}
	default:
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return st, nil
}

// linesOf counts how many records of the first k range-local cells
// land in shard s: the local indices j < k with j ≡ s (mod shards).
// (Local and global shard assignment agree because range starts are
// shard-aligned.)
func linesOf(k, s, shards int) int {
	if k <= s {
		return 0
	}
	return (k-1-s)/shards + 1
}

// recover assesses the shard files against the manifest's claim and
// derives the completed frontier. Each shard image is content-scanned
// (scanShard): valid records past the claim extend the frontier (the
// shard writers' buffers flush independently between checkpoints, so a
// shard can legitimately run ahead of the manifest), torn tails are
// scheduled for truncation, and damage inside the claim quarantines
// exactly the affected cells. A missing shard file quarantines its
// whole claimed prefix — the records are re-derivable, so a deletion
// is just total corruption of one shard. recover mutates nothing; the
// plan it leaves on st is executed by heal.
func (st *store) recover(m *manifest) error {
	spec := scanSpec{g: st.g, baseSeed: st.baseSeed, rng: st.rng, shards: st.shards}
	plan := &recoveryPlan{shards: make([]shardPlan, st.shards)}
	covered := make([]int, st.shards)
	for s := 0; s < st.shards; s++ {
		data, err := os.ReadFile(st.dir.Path(shardFile(s)))
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("sweep: resume: %w", err)
		}
		want := ""
		if s < len(m.ShardSums) {
			want = m.ShardSums[s]
		}
		sc := scanShard(spec, s, data, linesOf(m.Completed, s, st.shards), want)
		covered[s] = len(sc.slots)
		plan.shards[s] = shardPlan{scan: sc}
		if sc.dirty {
			plan.shards[s].data = data
		}
	}
	// The frontier is the smallest local index no shard covers (a
	// quarantined slot counts as covered: its record is about to be
	// re-derived). It is always ≥ the manifest's claim, because every
	// claimed slot is either kept or quarantined.
	completed := st.rng.Len()
	for s := 0; s < st.shards; s++ {
		if uncovered := s + covered[s]*st.shards; uncovered < completed {
			completed = uncovered
		}
	}
	st.completed = completed
	for s := 0; s < st.shards; s++ {
		sp := &plan.shards[s]
		// Trim coverage past the frontier: those records would
		// duplicate cells the resumed run re-executes. Quarantined
		// slots are never trimmed — they all sit below the claim,
		// which the frontier cannot regress past.
		sp.scan.slots = sp.scan.slots[:linesOf(completed, s, st.shards)]
		if !sp.scan.dirty {
			sp.scan.keep = 0
			if n := len(sp.scan.slots); n > 0 {
				sp.scan.keep = sp.scan.slots[n-1].end
			}
		}
		for _, j := range sp.scan.quarantine {
			plan.quarantine = append(plan.quarantine, spec.cellOf(s, j))
		}
	}
	sort.Ints(plan.quarantine)
	st.plan = plan
	return nil
}

// heal executes the recovery plan (if any), then opens the shard
// append writers and writes the initial checkpoint. Quarantined cells
// are re-derived through the ordinary per-cell executor — byte-
// identical by construction, since a record is a pure function of
// (grid, cell, seed) — and spliced back atomically (rebuild to a
// temporary file, then rename), so a kill mid-heal leaves either the
// old damaged shard or the fully repaired one, never a half-spliced
// hybrid. Clean shards are simply truncated to their kept prefix.
func (st *store) heal(ctx context.Context, workers int) error {
	plan := st.plan
	st.plan = nil
	var repaired map[int][]byte
	if plan != nil && len(plan.quarantine) > 0 {
		repaired = make(map[int][]byte, len(plan.quarantine))
		if workers <= 0 {
			workers = runner.DefaultWorkers()
		}
		err := runner.Stream(ctx, workers, 0, len(plan.quarantine), 4*workers,
			func(uctx context.Context, i int) ([]byte, error) {
				cell := plan.quarantine[i]
				r, _, err := RunCell(uctx, st.g, cell, cellSeed(st.g, st.baseSeed, cell))
				if err != nil {
					return nil, err
				}
				payload, err := json.Marshal(r)
				return durable.FramePayload(payload), err
			},
			func(i int, line []byte, err error) error {
				if err != nil {
					return fmt.Errorf("sweep: repair: cell %d: %w", plan.quarantine[i], err)
				}
				repaired[plan.quarantine[i]] = line
				return nil
			})
		if err != nil {
			return err
		}
	}

	st.logs = make([]*durable.Log, st.shards)
	st.sums = make([]hash.Hash, st.shards)
	for s := 0; s < st.shards; s++ {
		name := shardFile(s)
		var sp *shardPlan
		if plan != nil {
			sp = &plan.shards[s]
		}
		if sp != nil && sp.scan.dirty {
			var buf bytes.Buffer
			for j, span := range sp.scan.slots {
				if span == (frameSpan{}) {
					buf.Write(repaired[st.rng.Lo+j*st.shards+s])
				} else {
					buf.Write(sp.data[span.off:span.end])
				}
			}
			if err := st.dir.WriteAtomic(name, buf.Bytes()); err != nil {
				st.closeFiles()
				return fmt.Errorf("sweep: repair: %w", err)
			}
		}
		// O_CREATE covers the one clean case with no file behind it: a
		// deleted shard whose claimed prefix was empty.
		l, err := st.dir.OpenLog(name)
		if err != nil {
			st.closeFiles()
			return fmt.Errorf("sweep: %w", err)
		}
		st.logs[s] = l
		if sp != nil && !sp.scan.dirty {
			err = l.Truncate(sp.scan.keep) // drop the torn tail
		}
		// Re-read what the file now holds to seed the running content
		// hash.
		var data []byte
		if err == nil {
			data, err = os.ReadFile(st.dir.Path(name))
		}
		if err != nil {
			st.closeFiles()
			return fmt.Errorf("sweep: resume: %w", err)
		}
		st.sums[s] = sha256.New()
		st.sums[s].Write(data)
	}
	if err := st.checkpoint(); err != nil {
		st.closeFiles()
		return err
	}
	return nil
}

// replay feeds the persisted records of the range's completed prefix,
// in cell order, to fn — rebuilding the online aggregates of a
// resumed sweep — while verifying each record sits in the expected
// slot of the expected shard.
func (st *store) replay(fn func(Record)) error {
	if st.completed == 0 {
		return nil
	}
	scanners := make([]*bufio.Scanner, st.shards)
	for s := 0; s < st.shards; s++ {
		f, err := os.Open(st.dir.Path(shardFile(s)))
		if err != nil {
			return fmt.Errorf("sweep: resume: %w", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<24)
		scanners[s] = sc
	}
	for j := 0; j < st.completed; j++ {
		i := st.rng.Lo + j
		sc := scanners[j%st.shards]
		if !sc.Scan() {
			return fmt.Errorf("sweep: resume: shard %d ends before cell %d", j%st.shards, i)
		}
		payload, err := durable.Unframe(sc.Bytes())
		if err != nil {
			return errkind.Errorf(errkind.Corrupt, "sweep: resume: shard %d cell %d: %w", j%st.shards, i, err)
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return errkind.Errorf(errkind.Corrupt, "sweep: resume: shard %d cell %d: corrupt record: %w", j%st.shards, i, err)
		}
		if r.Cell != i {
			return fmt.Errorf("sweep: resume: shard %d holds cell %d where cell %d belongs", j%st.shards, r.Cell, i)
		}
		fn(r)
	}
	return nil
}

// append writes the next record to its shard as one framed line,
// feeding the shard's running content hash in step. Records arrive in
// cell order (the stream emitter guarantees it), so each shard file is
// written in increasing cell order too.
func (st *store) append(r Record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	s := r.Cell % st.shards
	line, err := st.logs[s].Append(func(b []byte) []byte { return append(b, payload...) })
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	st.sums[s].Write(line)
	st.completed = r.Cell + 1 - st.rng.Lo
	return nil
}

// checkpoint flushes every shard log, then atomically rewrites the
// manifest to the new frontier. Flushing before the manifest keeps the
// invariant that the manifest never claims records the files do not
// hold.
func (st *store) checkpoint() error {
	for _, l := range st.logs {
		if err := l.Flush(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	m := manifest{
		Version:     manifestVersion,
		Name:        st.g.Name,
		Fingerprint: st.g.Fingerprint(),
		Cells:       st.g.Cells(),
		Shards:      st.shards,
		BaseSeed:    st.baseSeed,
		Completed:   st.completed,
		PerShard:    make([]int, st.shards),
		ShardSums:   make([]string, st.shards),
	}
	if !st.part.IsZero() {
		m.Range = &manifestRange{K: st.part.K, N: st.part.N, Lo: st.rng.Lo, Hi: st.rng.Hi}
	}
	for s := 0; s < st.shards; s++ {
		m.PerShard[s] = linesOf(st.completed, s, st.shards)
		// Sum(nil) snapshots without disturbing the running state, so
		// the recorded digest covers exactly the bytes flushed above.
		m.ShardSums[s] = hex.EncodeToString(st.sums[s].Sum(nil))
	}
	return writeManifest(st.dir, &m)
}

func (st *store) closeFiles() {
	for _, l := range st.logs {
		if l != nil {
			l.Close()
		}
	}
}

// ManifestInfo is the read-only view of a sweep directory's checkpoint
// manifest — enough for an orchestrator to judge whether a directory
// matches a spec and how far it got, without opening the store.
type ManifestInfo struct {
	Name        string
	Fingerprint string
	// Cells is the full grid's cell count the directory belongs to.
	Cells    int
	Shards   int
	BaseSeed int64
	// Completed is how many cells of Range hold persisted records (the
	// contiguous prefix).
	Completed int
	// Range is the cell range the directory covers (the full grid for
	// non-partition directories).
	Range grid.Range
	// Partition is the k/n stamp of a partition directory (zero for
	// full-grid directories).
	Partition Partition
}

// ReadManifestDir reads and validates dir's checkpoint manifest. It
// performs the same structural validation as resume and merge, so a
// nil error means the manifest is internally consistent — not that the
// shard files agree with it (recovery re-derives that).
func ReadManifestDir(dir string) (*ManifestInfo, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, errkind.Errorf(errkind.Validation, "sweep: corrupt manifest in %s: %w", dir, err)
	}
	return manifestInfo(m), nil
}

// Replay rebuilds the aggregate of dir's completed prefix from its
// shard records, in cell order, without writing anything: every
// record must unframe, decode and sit in its expected slot. It checks
// the manifest against the spec and the draw first. The result equals
// the aggregate of the run that wrote dir, so a caller holding a
// directory needs no separate copy of its aggregate.
func Replay(g *grid.Grid, dir string) (*Agg, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("sweep: replay: %w", err)
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, errkind.Errorf(errkind.Validation, "sweep: replay: corrupt manifest in %s: %w", dir, err)
	}
	if m.Fingerprint != g.Fingerprint() {
		return nil, errkind.Errorf(errkind.Validation, "sweep: replay: %s was recorded for spec %s (fingerprint %.12s…), not this spec (%.12s…)",
			dir, m.Name, m.Fingerprint, g.Fingerprint())
	}
	if err := m.checkDraw("sweep: replay", dir); err != nil {
		return nil, err
	}
	st := &store{dir: durable.At(dir), g: g, shards: m.Shards, rng: m.rng(), completed: m.Completed}
	agg := NewAgg(g)
	if err := st.replay(agg.Add); err != nil {
		return nil, err
	}
	return agg, nil
}
