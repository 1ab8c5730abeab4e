// Package fleet is the fault-tolerant orchestrator that turns the
// distributed sweep layer (internal/sweep partitions + merge) into
// "one command, a fleet": an Orchestrator owns a grid's partition
// assignments and hands them to workers under time-bounded leases, and
// a Worker loop executes assignments with the resumable sweep engine,
// heartbeating its frontier cell as it goes.
//
// The robustness model:
//
//   - Leases. Every assignment is a lease with a TTL. Workers extend
//     it by heartbeating their resumable frontier (the count of
//     contiguously completed cells). A worker that dies — or is
//     partitioned away — simply stops heartbeating; the lease expires
//     and the partition returns to the pool.
//
//   - Backoff. An expired partition is re-dispatched only after an
//     exponential backoff with deterministic seeded jitter, so a
//     partition that keeps killing its workers does not hot-loop the
//     fleet, and simultaneous expiries do not re-dispatch in lockstep.
//
//   - Straggler re-dispatch. A partition that is leased, alive, but
//     slow is speculatively re-issued to an idle worker once its lease
//     has been active past a threshold. Both copies run; the first
//     Complete wins and the loser is told ErrSuperseded. This
//     reconciliation is safe by construction: a partition's artifacts
//     are a pure function of (grid, shards, seed, range), so the two
//     copies' bytes are identical and it does not matter which wins.
//
//   - Resume. Workers run every partition as a resumable sweep
//     directory. A re-dispatched partition salvages the best prior
//     attempt's directory (crash recovery truncates torn writes and
//     re-derives the frontier from the files), so work done before a
//     death is not lost. Salvage copies rather than reuses the old
//     directory: a worker that is merely partitioned away may still be
//     writing to its own attempt directory, and must not race the new
//     attempt.
//
//   - Shipping. The orchestrator owns every partition's bytes, and
//     the staged copy is the only one. A worker uploads its completed
//     shard files and manifest (gzip on the HTTP wire,
//     content-hash-verified on receipt, idempotent on retry) into
//     <Out>.staging/part-KKKK, and Complete accepts a partition only
//     once that staged copy replays completely (sweep.Replay). The
//     replayed aggregate feeds the live PartialSummary.
//
//   - Integrity. Every partition directory carries the sweep layer's
//     v2 checksummed framing. Commit scrubs each staged copy
//     (sweep.Verify), repairs a damaged or missing one from the cells'
//     seeds and the orchestrator's own record of the partition
//     (sweep.Repair), and then merges once: every commit writes the
//     single-process bytes, or fails. A successful commit removes
//     <Out>.staging; a failed one keeps it.
//
// Two transports carry the worker protocol: Local (direct in-process
// calls) and an HTTP client/server pair. The chaos subpackage wraps
// transports and worker lifecycles with seeded fault injection and
// asserts that every schedule still converges to artifacts
// byte-identical to a single-process run.
package fleet

import (
	"context"
	"errors"

	"neutrality/internal/grid"
	"neutrality/internal/sweep"
)

// Protocol sentinels. Transports must return these (or errors wrapping
// them) so workers can branch on the orchestrator's intent; the HTTP
// transport maps them to wire codes and back.
var (
	// ErrNoWork means every remaining partition is leased or backing
	// off; poll again.
	ErrNoWork = errors.New("fleet: no work available")
	// ErrDone means every partition is complete; the worker can exit.
	ErrDone = errors.New("fleet: all partitions complete")
	// ErrStaleLease means the lease is no longer current (expired, or
	// its partition finished); abandon the assignment and re-acquire.
	ErrStaleLease = errors.New("fleet: lease is not current")
	// ErrSuperseded means the partition was completed first by another
	// attempt; the caller's byte-identical result was discarded.
	ErrSuperseded = errors.New("fleet: partition already completed by another attempt")
	// ErrFleetFailed means a partition exhausted its attempt budget;
	// the fleet cannot finish.
	ErrFleetFailed = errors.New("fleet: failed")
	// ErrUploadRejected means an uploaded artifact's bytes did not match
	// the content hash the worker claimed for them — the upload was
	// corrupted in flight and must be retried.
	ErrUploadRejected = errors.New("fleet: upload content hash mismatch")
)

// Assignment is one leased unit of work: partition Part of the grid,
// to be run with the stamped shard count and base seed so its bytes
// concatenate into the single-run artifacts.
type Assignment struct {
	// Lease identifies this grant; heartbeats and completion cite it.
	Lease int64 `json:"lease"`
	// Part is the k/n partition (grid.PartitionBlocks with Shards as
	// the block size).
	Part sweep.Partition `json:"part"`
	// Range is the partition's half-open global cell range, precomputed
	// by the orchestrator from the same pure function the worker uses.
	Range grid.Range `json:"range"`
	// Shards and BaseSeed are the sweep parameters every partition of
	// the fleet must share.
	Shards   int   `json:"shards"`
	BaseSeed int64 `json:"base_seed"`
	// Attempt is the 1-based dispatch count of this partition; workers
	// name attempt directories with it so concurrent attempts never
	// share a directory.
	Attempt int `json:"attempt"`
	// Speculative marks a straggler re-dispatch: another lease on the
	// same partition is still active.
	Speculative bool `json:"speculative,omitempty"`
	// Frontier is the orchestrator's best known completed-cell count
	// for the partition (from heartbeats) — advisory; the worker's
	// salvage step re-derives the true frontier from files.
	Frontier int `json:"frontier,omitempty"`
}

// WorkerResult is what a worker reports with Complete, after it has
// uploaded the partition's artifacts.
type WorkerResult struct {
	// Range echoes the assignment's range as a consistency check.
	Range grid.Range `json:"range"`
	// Records is the number of cells the partition holds (Range.Len()).
	Records int `json:"records"`
}

// Transport is the worker's view of the orchestrator. Local calls the
// orchestrator directly; Client speaks the HTTP protocol; the chaos
// package wraps either with fault injection. Methods return the
// protocol sentinels above; any other error is a transport fault the
// worker retries around.
type Transport interface {
	// Acquire requests an assignment for the named worker.
	Acquire(ctx context.Context, worker string) (*Assignment, error)
	// Heartbeat extends the lease and reports the resumable frontier
	// (completed cells within the assignment's range).
	Heartbeat(ctx context.Context, lease int64, frontier int) error
	// Complete reports a finished partition. ErrSuperseded means
	// another attempt won; the result was discarded.
	Complete(ctx context.Context, lease int64, res WorkerResult) error
	// Fail releases the lease after an unrecoverable worker-side error,
	// so re-dispatch does not wait for expiry.
	Fail(ctx context.Context, lease int64, reason string) error
	// Upload ships one completed artifact file (a shard or, last, the
	// manifest) to the orchestrator's staging area for the lease's
	// partition. sum is the file's SHA-256 (lowercase hex); the
	// receiver verifies the bytes against it and rejects a mismatch
	// with ErrUploadRejected, so a corrupted transfer is retried rather
	// than staged. Re-uploading the same name is idempotent.
	Upload(ctx context.Context, lease int64, name, sum string, data []byte) error
}
