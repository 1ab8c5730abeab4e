package fleet

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"neutrality/internal/grid"
)

// Local is the in-process transport: workers call the orchestrator
// directly, and uploads are plain calls into its staging area. Every
// attempt directory is a plain resumable sweep partition.
type Local struct {
	O *Orchestrator
}

func (l Local) Acquire(ctx context.Context, worker string) (*Assignment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.O.Acquire(worker)
}

func (l Local) Heartbeat(ctx context.Context, lease int64, frontier int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.O.Heartbeat(lease, frontier)
}

func (l Local) Complete(ctx context.Context, lease int64, res WorkerResult) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.O.Complete(lease, res)
}

func (l Local) Fail(ctx context.Context, lease int64, reason string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.O.Fail(lease, reason)
}

func (l Local) Upload(ctx context.Context, lease int64, name, sum string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.O.Upload(lease, name, sum, data)
}

// LocalOptions configures RunLocal.
type LocalOptions struct {
	// Parts is the partition count (default: Workers).
	Parts int
	// Workers is the number of in-process fleet workers (default 2).
	Workers int
	// SweepWorkers is the sweep worker count inside each fleet worker
	// (default: runner default).
	SweepWorkers int
	// Shards, BaseSeed parameterize the sweep artifacts.
	Shards   int
	BaseSeed int64
	// Dir is the working root; worker w runs under Dir/worker-W.
	Dir string
	// Out receives the merged single-run directory (required); uploads
	// are staged beside it, at Out.staging.
	Out string
	// Lease, Heartbeat, Poll, SpeculateAfter, Backoff tune the
	// fault-tolerance machinery; zero values take the orchestrator and
	// worker defaults.
	Lease          time.Duration
	Heartbeat      time.Duration
	Poll           time.Duration
	SpeculateAfter time.Duration
	Backoff        time.Duration
	// CellTimeout bounds each cell's emulation when positive.
	CellTimeout time.Duration
	// MaxAttempts caps dispatches per partition (default 5 here — a
	// local fleet should fail loudly rather than hot-loop a
	// deterministically crashing partition).
	MaxAttempts int
	// Progress, when set, observes every completed global cell index.
	Progress func(cell int)
}

// RunLocal runs a whole fleet in one process: an orchestrator plus
// Workers in-process workers over the Local transport, then commits.
// It is the "one command" form of fleet mode and the benchmark target.
func RunLocal(ctx context.Context, g *grid.Grid, opt LocalOptions) (*Result, error) {
	if opt.Workers <= 0 {
		opt.Workers = 2
	}
	if opt.Parts <= 0 {
		opt.Parts = opt.Workers
	}
	if opt.MaxAttempts == 0 {
		opt.MaxAttempts = 5
	}
	if opt.Dir == "" {
		return nil, fmt.Errorf("fleet: RunLocal needs a working directory")
	}
	o, err := New(g, Config{
		Out:            opt.Out,
		Parts:          opt.Parts,
		Shards:         opt.Shards,
		BaseSeed:       opt.BaseSeed,
		Lease:          opt.Lease,
		Backoff:        opt.Backoff,
		SpeculateAfter: opt.SpeculateAfter,
		MaxAttempts:    opt.MaxAttempts,
	})
	if err != nil {
		return nil, err
	}
	tr := Local{O: o}
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Worker errors are deliberately dropped: the orchestrator's
			// Wait/Commit observes fleet-level failure, and a single
			// worker dying is exactly what the lease machinery absorbs.
			_ = Work(ctx, g, tr, WorkerOptions{
				ID:          fmt.Sprintf("local-%d", w),
				Workers:     opt.SweepWorkers,
				Dir:         filepath.Join(opt.Dir, fmt.Sprintf("worker-%d", w)),
				CellTimeout: opt.CellTimeout,
				Poll:        opt.Poll,
				Heartbeat:   opt.Heartbeat,
				Progress:    opt.Progress,
			})
		}(w)
	}
	waitErr := o.Wait(ctx)
	wg.Wait()
	if waitErr != nil {
		return nil, waitErr
	}
	return o.Commit(ctx)
}
