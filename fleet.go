package neutrality

import (
	"context"

	"neutrality/internal/fleet"
	"neutrality/internal/sweep"
)

// Fleet orchestration, re-exported from internal/fleet: a
// fault-tolerant layer over the distributed sweep that owns a grid's
// partition assignments and hands them to workers under time-bounded
// leases, with heartbeat-driven expiry, exponential backoff with
// seeded jitter, speculative re-dispatch of stragglers (first valid
// completion wins — safe because partition artifacts are
// byte-identical by construction), checkpoint salvage across worker
// deaths, and graceful degradation to aggregate-only results when
// shard files are unrecoverable. See the `neutrality fleet`
// subcommands for the CLI workflow.
type (
	// FleetConfig parameterizes an orchestrator (partitions, lease TTL,
	// backoff, speculation threshold, attempt budget).
	FleetConfig = fleet.Config
	// FleetOrchestrator owns the assignment state of one fleet.
	FleetOrchestrator = fleet.Orchestrator
	// FleetAssignment is one leased unit of work.
	FleetAssignment = fleet.Assignment
	// FleetWorkerResult is a completed partition report.
	FleetWorkerResult = fleet.WorkerResult
	// FleetTransport carries the worker protocol (local or HTTP).
	FleetTransport = fleet.Transport
	// FleetWorkerOptions configures one worker loop.
	FleetWorkerOptions = fleet.WorkerOptions
	// FleetResult is a committed fleet run.
	FleetResult = fleet.Result
	// FleetStatus is a point-in-time fleet snapshot.
	FleetStatus = fleet.Status
	// FleetServer exposes an orchestrator over HTTP.
	FleetServer = fleet.Server
	// FleetClient implements the transport over HTTP.
	FleetClient = fleet.Client
)

// Fleet protocol sentinels (errors.Is-matchable through transports).
var (
	ErrFleetDone       = fleet.ErrDone
	ErrFleetNoWork     = fleet.ErrNoWork
	ErrFleetStaleLease = fleet.ErrStaleLease
	ErrFleetSuperseded = fleet.ErrSuperseded
	ErrFleetFailed     = fleet.ErrFleetFailed
)

// Sweep error kinds, for branching on failure modes (and the CLI's
// exit-code contract) without parsing messages:
// ErrSweepIncomplete tags resumable-incomplete conditions (unfinished
// partitions, coverage gaps, per-cell timeouts); ErrSweepValidation
// tags spec/artifact mismatches that rerunning cannot fix.
// ErrSweepCorrupt additionally tags artifact-corruption findings
// (failed record CRCs, shard hash mismatches, destroyed manifests);
// it wraps ErrSweepValidation, so existing errors.Is branches — and
// the CLI's validation exit code — keep matching.
var (
	ErrSweepIncomplete = sweep.ErrIncomplete
	ErrSweepValidation = sweep.ErrValidation
	ErrSweepCorrupt    = sweep.ErrCorrupt
)

// NewFleet builds an orchestrator for the grid.
func NewFleet(g *Grid, cfg FleetConfig) (*FleetOrchestrator, error) { return fleet.New(g, cfg) }

// NewFleetServer wraps an orchestrator in the HTTP protocol handler.
func NewFleetServer(o *FleetOrchestrator) *FleetServer { return fleet.NewServer(o) }

// FleetWork runs a worker loop against a fleet transport until the
// fleet finishes, fails, or ctx ends.
func FleetWork(ctx context.Context, g *Grid, tr FleetTransport, opt FleetWorkerOptions) error {
	return fleet.Work(ctx, g, tr, opt)
}
