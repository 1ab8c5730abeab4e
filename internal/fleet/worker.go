package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"neutrality/internal/durable"
	"neutrality/internal/grid"
	"neutrality/internal/sweep"
)

// WorkerOptions configures one Work loop.
type WorkerOptions struct {
	// ID names the worker in acquires and orchestrator status.
	ID string
	// Workers is the sweep worker count per partition (goroutines
	// inside one assignment). Default runner.DefaultWorkers behavior
	// via sweep.Options.
	Workers int
	// Dir is the worker's artifact root; each assignment runs in
	// Dir/part-KKKK-aAAA (partition and attempt stamped, so concurrent
	// attempts never share a directory).
	Dir string
	// CellTimeout, when positive, bounds each cell's emulation.
	CellTimeout time.Duration
	// Poll is the idle re-acquire interval (default 500ms).
	Poll time.Duration
	// Heartbeat is the lease-extension interval; keep it well under the
	// orchestrator's lease TTL (default 2s).
	Heartbeat time.Duration
	// Progress, when set, observes every completed global cell index —
	// the chaos harness and the CLI hook in here.
	Progress func(cell int)
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.ID == "" {
		o.ID = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if o.Poll <= 0 {
		o.Poll = 500 * time.Millisecond
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 2 * time.Second
	}
	return o
}

// errLeaseLost cancels a running sweep when a heartbeat learns the
// lease is stale; the loop abandons the attempt silently and
// re-acquires.
var errLeaseLost = errors.New("fleet: lease lost mid-run")

// Work runs assignments from the transport until the fleet finishes
// (nil), fails (ErrFleetFailed), or ctx ends (its error). It survives
// transport faults by polling, executes every partition as a resumable
// sweep, salvages prior attempts' checkpoints, uploads the finished
// partition, and completes it.
func Work(ctx context.Context, g *grid.Grid, tr Transport, opt WorkerOptions) error {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return fmt.Errorf("fleet: worker %s needs a directory root", opt.ID)
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		a, err := tr.Acquire(ctx, opt.ID)
		switch {
		case errors.Is(err, ErrDone):
			// The fleet is finished and the orchestrator holds every
			// partition: nothing under this worker's root can be needed
			// again. Abandoned (lease-lost) attempts and salvage leftovers
			// would otherwise leak one directory per failure.
			pruneAttempts(opt.Dir)
			return nil
		case errors.Is(err, ErrFleetFailed):
			return err
		case err != nil || a == nil:
			// No work yet, or a transport fault: poll again shortly.
			if err := sleep(ctx, opt.Poll); err != nil {
				return err
			}
			continue
		}
		if err := runAssignment(ctx, g, tr, opt, a); err != nil {
			return err
		}
	}
}

// runAssignment executes one lease end to end. It only returns an
// error for conditions that should stop the whole worker (ctx done);
// per-assignment failures are reported via tr.Fail and the loop
// continues.
func runAssignment(ctx context.Context, g *grid.Grid, tr Transport, opt WorkerOptions, a *Assignment) error {
	dir := attemptDir(opt.Dir, a)
	if err := prepareDir(g, dir, a, opt.Dir); err != nil {
		// Directory trouble is environmental; give the lease back.
		_ = tr.Fail(ctx, a.Lease, err.Error())
		return nil
	}

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// Frontier tracking: sweep Progress reports completed cell counts
	// within the partition; heartbeats relay the latest.
	var frontier atomic.Int64
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(opt.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
			}
			err := tr.Heartbeat(runCtx, a.Lease, int(frontier.Load()))
			if errors.Is(err, ErrStaleLease) {
				// The lease expired under us or the partition finished
				// elsewhere; stop burning cycles on this attempt.
				cancel(errLeaseLost)
				return
			}
			// Other transport errors are tolerated: the orchestrator's
			// expiry is the authority, and the next tick retries.
		}
	}()

	res, runErr := sweep.Run(runCtx, g, sweep.Options{
		Workers:     opt.Workers,
		Shards:      a.Shards,
		BaseSeed:    a.BaseSeed,
		Partition:   a.Part,
		Dir:         dir,
		Resume:      true,
		CellTimeout: opt.CellTimeout,
		Progress: func(done, total int) {
			frontier.Store(int64(done))
			if opt.Progress != nil && done > 0 {
				opt.Progress(a.Range.Lo + done - 1)
			}
		},
	})
	cancel(nil)
	<-hbDone

	if runErr != nil {
		switch {
		case errors.Is(context.Cause(runCtx), errLeaseLost):
			// Silently abandoned; someone else owns the partition now.
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			// The checkpoint survives (a timed-out cell, an I/O error):
			// release the lease so a retry — possibly ours — salvages it.
			_ = tr.Fail(ctx, a.Lease, runErr.Error())
			return nil
		}
	}
	if res.Range != a.Range {
		_ = tr.Fail(ctx, a.Lease, fmt.Sprintf("partition ran range [%d,%d), assignment said [%d,%d)",
			res.Range.Lo, res.Range.Hi, a.Range.Lo, a.Range.Hi))
		return nil
	}
	if err := uploadArtifacts(ctx, tr, opt, a, dir); err != nil {
		switch {
		case errors.Is(err, ErrSuperseded):
			// A byte-identical copy already won; ours is redundant.
			os.RemoveAll(dir)
		case errors.Is(err, ErrStaleLease):
			// Lease expired mid-upload; leave the directory for the next
			// attempt to salvage.
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			// The orchestrator cannot take the partition (for example an
			// artifact over its body limit): give the lease back with the
			// reason, so the attempt budget sees it.
			_ = tr.Fail(ctx, a.Lease, err.Error())
		}
		return nil
	}
	wr := WorkerResult{Range: res.Range, Records: res.Total}
	// Completion retries around transport faults; if it cannot get
	// through, expiry reclaims the lease and a later attempt salvages
	// this directory.
	for i := 0; ; i++ {
		err := tr.Complete(ctx, a.Lease, wr)
		switch {
		case err == nil, errors.Is(err, ErrSuperseded), errors.Is(err, ErrStaleLease):
			// The orchestrator holds the partition's staged copy (ours or
			// a byte-identical one), or the lease is gone; either way
			// this directory is no longer needed.
			os.RemoveAll(dir)
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case i >= 3:
			return nil
		}
		if err := sleep(ctx, opt.Poll); err != nil {
			return err
		}
	}
}

// uploadArtifacts ships the completed partition through the transport:
// shard files first, the manifest last, so the orchestrator's staging
// slot never holds a manifest whose shards have not arrived. Each
// file's SHA-256 travels with its bytes; the receiver verifies and
// rejects corrupted transfers, which are retried like transport
// faults. ErrSuperseded and ErrStaleLease are returned at once; any
// other error is returned after four tries of one file.
func uploadArtifacts(ctx context.Context, tr Transport, opt WorkerOptions, a *Assignment, dir string) error {
	names := make([]string, 0, a.Shards+1)
	for s := 0; s < a.Shards; s++ {
		names = append(names, fmt.Sprintf("shard-%04d.jsonl", s))
	}
	names = append(names, "manifest.json")
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("fleet: upload: %w", err)
		}
		hexSum := durable.SHA256Hex(data)
		for try := 1; ; try++ {
			err = tr.Upload(ctx, a.Lease, name, hexSum, data)
			if err == nil || try == 4 || errors.Is(err, ErrSuperseded) || errors.Is(err, ErrStaleLease) || ctx.Err() != nil {
				break
			}
			// A corrupted transfer (ErrUploadRejected) or a transport
			// fault: the operation is idempotent, retry shortly.
			if err := sleep(ctx, opt.Poll); err != nil {
				return err
			}
		}
		if err != nil {
			return fmt.Errorf("fleet: uploading %s: %w", name, err)
		}
	}
	return nil
}

// pruneAttempts removes every attempt directory under root. It runs
// only once Acquire says ErrDone, when the orchestrator holds every
// partition and no attempt in this root can still be writing.
func pruneAttempts(root string) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "part-") {
			os.RemoveAll(filepath.Join(root, e.Name()))
		}
	}
}

// attemptDir names the assignment's working directory.
func attemptDir(root string, a *Assignment) string {
	return filepath.Join(root, fmt.Sprintf("part-%04d-a%03d", a.Part.K, a.Attempt))
}

// prepareDir readies the attempt directory: an existing directory with
// a matching manifest resumes in place, a mismatched one is cleared,
// and a fresh one salvages the most advanced compatible checkpoint
// among prior attempts under root. Salvage copies — never moves or
// shares — because a partitioned-away worker may still be appending to
// its own attempt directory; copying takes a consistent prefix
// (sweep recovery truncates any torn trailing line).
func prepareDir(g *grid.Grid, dir string, a *Assignment, root string) error {
	if mi, err := sweep.ReadManifestDir(dir); err == nil {
		if manifestMatches(g, mi, a) {
			return nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	best, bestDone := "", 0
	entries, _ := os.ReadDir(root)
	prefix := fmt.Sprintf("part-%04d-a", a.Part.K)
	for _, e := range entries {
		if !e.IsDir() || len(e.Name()) < len(prefix) || e.Name()[:len(prefix)] != prefix {
			continue
		}
		cand := filepath.Join(root, e.Name())
		if cand == dir {
			continue
		}
		mi, err := sweep.ReadManifestDir(cand)
		if err != nil || !manifestMatches(g, mi, a) {
			continue
		}
		if mi.Completed > bestDone {
			best, bestDone = cand, mi.Completed
		}
	}
	if best != "" {
		if err := copySweepDir(best, dir); err != nil {
			// Salvage is an optimization; a failed copy falls back to a
			// clean start.
			os.RemoveAll(dir)
			return os.MkdirAll(dir, 0o755)
		}
	}
	return nil
}

func manifestMatches(g *grid.Grid, mi *sweep.ManifestInfo, a *Assignment) bool {
	return mi.Fingerprint == g.Fingerprint() &&
		mi.Shards == a.Shards &&
		mi.BaseSeed == a.BaseSeed &&
		mi.Range == a.Range
}

// copySweepDir copies a checkpointed sweep directory's manifest and
// shard files. Plain sequential copies suffice: shard files are
// append-only JSONL, so any prefix is a valid (possibly torn-tailed)
// checkpoint that recovery repairs.
func copySweepDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
