package neutrality

import (
	"neutrality/internal/fleet"
	"neutrality/internal/measure"
	"neutrality/internal/serve"
)

// Streaming inference API: the long-running ingest service that folds
// measurement records online and re-runs the inference at epoch
// boundaries. Streaming any arrival order within an epoch yields
// verdicts byte-identical to the batch pipeline over the same records.

type (
	// ServeConfig parameterizes the streaming service.
	ServeConfig = serve.Config
	// ServeService is the streaming inference state machine.
	ServeService = serve.Service
	// ServeStatus is the service's operational counter snapshot.
	ServeStatus = serve.Status
	// ServeIngestResult reports one ingest batch's effect.
	ServeIngestResult = serve.IngestResult
	// ServeEpochVerdict is the per-epoch inference outcome.
	ServeEpochVerdict = serve.EpochVerdict
	// ServeServer exposes a service over HTTP.
	ServeServer = serve.Server
	// ServeRootConfig parameterizes an aggregation root.
	ServeRootConfig = serve.RootConfig
	// ServeRoot folds leaf epoch reports into a tree-wide verdict.
	ServeRoot = serve.Root
	// ServeRootStatus is the root's operational counter snapshot.
	ServeRootStatus = serve.RootStatus
	// ServeRootServer exposes a root over HTTP.
	ServeRootServer = serve.RootServer
	// ServeEpochReport is one leaf's closed epoch, sealed for shipment.
	ServeEpochReport = serve.EpochReport
	// ServeShipper drains a leaf's report outbox to a root over HTTP.
	ServeShipper = serve.Shipper
	// StreamRecord is one streamed measurement observation.
	StreamRecord = measure.StreamRecord
	// MeasurementSource abstracts where a measurement table comes from
	// (CSV, in-memory, a live streaming service).
	MeasurementSource = measure.Source
	// CSVMeasurementSource reads the batch CSV interchange format.
	CSVMeasurementSource = measure.CSVSource
	// MemMeasurementSource serves an in-memory table.
	MemMeasurementSource = measure.MemSource
	// FleetPartialSummary is the merged-so-far view of a running fleet.
	FleetPartialSummary = fleet.PartialSummary
)

var (
	// ErrServeBusy reports streaming backpressure: the open-epoch
	// buffer is full; retry after a pause.
	ErrServeBusy = serve.ErrBusy
	// ErrServeReportGap reports a leaf epoch report arriving ahead of
	// its leaf's next expected epoch (re-send the earlier epoch first).
	ErrServeReportGap = serve.ErrReportGap
	// ErrMeasureValidation tags malformed measurement input (corrupt
	// CSV, invalid stream record, inconsistent table).
	ErrMeasureValidation = measure.ErrValidation
)

// NewServe builds a streaming inference service (replaying its journal
// when the config names a directory and Resume is set).
func NewServe(cfg ServeConfig) (*ServeService, error) { return serve.New(cfg) }

// NewServeServer wraps a service in the HTTP ingest/verdict protocol.
func NewServeServer(s *ServeService) *ServeServer { return serve.NewServer(s) }

// NewServeRoot builds a multi-instance aggregation root: leaf services
// ship their closed epochs to it, and its per-epoch verdict is
// byte-identical to a single service ingesting the union of the leaf
// streams.
func NewServeRoot(cfg ServeRootConfig) (*ServeRoot, error) { return serve.NewRoot(cfg) }

// NewServeRootServer wraps a root in the HTTP report/verdict protocol.
func NewServeRootServer(r *ServeRoot) *ServeRootServer { return serve.NewRootServer(r) }
