package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"neutrality/internal/durable"
	"neutrality/internal/errkind"
	"neutrality/internal/grid"
	"neutrality/internal/sweep"
)

// Config parameterizes an Orchestrator. The zero value of every
// tunable falls back to a sensible default; Grid, Parts, Shards, and
// BaseSeed define the artifact identity and must match what a
// single-process run of the same sweep would use.
type Config struct {
	// Out is the merged single-run directory Commit writes (required).
	// Partition p's uploads are staged at <Out>.staging/part-KKKK.
	Out string
	// Parts is n: the grid is split into partitions 1..n by
	// grid.PartitionBlocks with Shards as the block size.
	Parts int
	// Shards is the sweep shard count every partition runs with.
	Shards int
	// BaseSeed is the sweep seed root.
	BaseSeed int64
	// Lease is the assignment TTL; a lease not heartbeated within it
	// expires and its partition returns to the pool. Default 15s.
	Lease time.Duration
	// Backoff is the initial re-dispatch delay after a lease expiry or
	// failure; it doubles per attempt up to MaxBackoff, with ±25%
	// deterministic jitter from JitterSeed. Defaults 1s / 30s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// JitterSeed seeds the backoff jitter stream (default 1).
	JitterSeed int64
	// SpeculateAfter is how long a partition may stay leased before an
	// idle worker is given a speculative copy of it. 0 means
	// 2×Lease; negative disables speculation.
	SpeculateAfter time.Duration
	// MaxAttempts caps dispatches per partition; one more expiry or
	// failure past it fails the whole fleet. 0 means unlimited.
	MaxAttempts int
	// now overrides the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Parts <= 0 {
		c.Parts = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Lease <= 0 {
		c.Lease = 15 * time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	if c.SpeculateAfter == 0 {
		c.SpeculateAfter = 2 * c.Lease
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// maxReplicas caps concurrent leases per partition, speculation
// included.
const maxReplicas = 2

// lease is one active grant.
type lease struct {
	id          int64
	part        int // partition index (0-based)
	worker      string
	expires     time.Time
	speculative bool
}

// partState tracks one partition through the lease state machine.
type partState struct {
	rng      grid.Range
	done     bool
	winner   int64      // lease id whose Complete won
	agg      *sweep.Agg // replayed from the staged copy at Complete
	attempts int        // lease grants so far
	frontier int        // best heartbeated completed-cell count
	// backoffUntil gates re-dispatch after an expiry or failure.
	backoffUntil time.Time
	// firstLeased is when the current activity epoch began (zero when
	// unleased); speculation keys off it.
	firstLeased time.Time
	leases      map[int64]*lease
	lastErr     string // most recent worker-reported failure
}

// Orchestrator owns the fleet's assignment state. It is passive: all
// transitions happen inside transport calls (expiry is evaluated
// lazily against the clock on entry), which makes the state machine
// fully deterministic under a fake clock in tests.
type Orchestrator struct {
	mu     sync.Mutex
	g      *grid.Grid
	cfg    Config
	parts  []partState
	leases map[int64]*lease
	nextID int64
	jitter *rand.Rand
	remain int // partitions not yet done
	doneCh chan struct{}
	failed error
	// workers holds every worker id ever granted a lease, true once an
	// Acquire has told it the fleet's outcome; allTold is closed when
	// the last untold one is told (see AwaitWorkers).
	workers map[string]bool
	untold  int
	allTold chan struct{}
	// artifacts are the only names an upload may carry: the files of a
	// partition directory (sweep.ArtifactNames). Anything else — path
	// separators, dotdots, stray names — is rejected before touching the
	// filesystem.
	artifacts map[string]bool
}

// New builds an orchestrator for the grid. The partition split is the
// same pure function the workers and the merge use, so every component
// of the fleet agrees on cell ranges from the shared spec alone.
func New(g *grid.Grid, cfg Config) (*Orchestrator, error) {
	if err := sweep.Validate(g); err != nil {
		return nil, err
	}
	if cfg.Out == "" {
		return nil, fmt.Errorf("fleet: Config.Out (the merged directory) is required")
	}
	cfg = cfg.withDefaults()
	o := &Orchestrator{
		g:       g,
		cfg:     cfg,
		leases:  make(map[int64]*lease),
		jitter:  rand.New(rand.NewSource(cfg.JitterSeed)),
		doneCh:  make(chan struct{}),
		workers: make(map[string]bool),
		allTold: make(chan struct{}),
	}
	o.artifacts = make(map[string]bool, cfg.Shards+1)
	for _, name := range sweep.ArtifactNames(cfg.Shards) {
		o.artifacts[name] = true
	}
	o.parts = make([]partState, cfg.Parts)
	for k := 1; k <= cfg.Parts; k++ {
		rng, err := grid.PartitionBlocks(g.Cells(), cfg.Shards, k, cfg.Parts)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		st := &o.parts[k-1]
		st.rng = rng
		st.leases = make(map[int64]*lease)
		if rng.Len() == 0 {
			// Empty partitions (n exceeds the block count) are born
			// done; they contribute no artifacts and the merge's
			// coverage check does not need them.
			st.done = true
		} else {
			o.remain++
		}
	}
	if o.remain == 0 {
		close(o.doneCh)
	}
	return o, nil
}

// Grid returns the orchestrated grid.
func (o *Orchestrator) Grid() *grid.Grid { return o.g }

// Shards and BaseSeed expose the artifact identity for serving specs.
func (o *Orchestrator) Shards() int     { return o.cfg.Shards }
func (o *Orchestrator) BaseSeed() int64 { return o.cfg.BaseSeed }
func (o *Orchestrator) Parts() int      { return o.cfg.Parts }

// expireLocked removes leases past their deadline and returns expired
// partitions to the pool under backoff. Called (under mu) on entry to
// every state transition, so expiry needs no background goroutine and
// is exact under a fake clock.
func (o *Orchestrator) expireLocked(now time.Time) {
	for id, l := range o.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(o.leases, id)
		st := &o.parts[l.part]
		delete(st.leases, id)
		if st.done {
			continue
		}
		if len(st.leases) == 0 {
			st.firstLeased = time.Time{}
			// Backoff counts from when the lease actually expired, not
			// from when the lazy sweep noticed: a worker that died long
			// ago should not add a fresh full delay on discovery.
			st.backoffUntil = l.expires.Add(o.backoffLocked(st.attempts))
			o.checkBudgetLocked(st, fmt.Sprintf("lease for partition %d/%d expired (worker %q, frontier %d/%d)",
				l.part+1, o.cfg.Parts, l.worker, st.frontier, st.rng.Len()))
		}
	}
}

// backoffLocked computes the re-dispatch delay after `attempts`
// dispatches: exponential from Backoff, capped at MaxBackoff, with
// ±25% jitter from the seeded stream.
func (o *Orchestrator) backoffLocked(attempts int) time.Duration {
	d := o.cfg.Backoff
	for i := 1; i < attempts && d < o.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > o.cfg.MaxBackoff {
		d = o.cfg.MaxBackoff
	}
	j := 0.75 + 0.5*o.jitter.Float64()
	return time.Duration(float64(d) * j)
}

// checkBudgetLocked fails the fleet when a partition has burned its
// attempt budget without completing.
func (o *Orchestrator) checkBudgetLocked(st *partState, reason string) {
	st.lastErr = reason
	if o.cfg.MaxAttempts > 0 && st.attempts >= o.cfg.MaxAttempts && !st.done {
		o.failLocked(fmt.Errorf("%w: partition exhausted %d attempts: %s", ErrFleetFailed, st.attempts, reason))
	}
}

func (o *Orchestrator) failLocked(err error) {
	if o.failed == nil {
		o.failed = err
		close(o.doneCh)
	}
}

// Acquire hands out the next assignment: the lowest-indexed pending
// partition whose backoff has elapsed, else — when speculation is on —
// a straggler copy. ErrNoWork means poll again; ErrDone means the
// fleet is finished.
func (o *Orchestrator) Acquire(worker string) (*Assignment, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.cfg.now()
	o.expireLocked(now)
	if o.failed != nil {
		o.tellLocked(worker)
		return nil, o.failed
	}
	if o.remain == 0 {
		o.tellLocked(worker)
		return nil, ErrDone
	}
	// Pending partitions first, in index order (deterministic).
	for p := range o.parts {
		st := &o.parts[p]
		if st.done || len(st.leases) > 0 || now.Before(st.backoffUntil) {
			continue
		}
		return o.grantLocked(now, p, worker, false), nil
	}
	// Speculation: re-issue the slowest partition that has been leased
	// long enough, lowest frontier first (ties to the lowest index).
	if o.cfg.SpeculateAfter >= 0 {
		best := -1
		for p := range o.parts {
			st := &o.parts[p]
			if st.done || len(st.leases) == 0 || len(st.leases) >= maxReplicas {
				continue
			}
			if now.Sub(st.firstLeased) < o.cfg.SpeculateAfter {
				continue
			}
			if best < 0 || st.frontier < o.parts[best].frontier {
				best = p
			}
		}
		if best >= 0 {
			return o.grantLocked(now, best, worker, true), nil
		}
	}
	return nil, ErrNoWork
}

// tellLocked records that worker has been told the fleet's outcome.
func (o *Orchestrator) tellLocked(worker string) {
	if told, ok := o.workers[worker]; ok && !told {
		o.workers[worker] = true
		if o.untold--; o.untold == 0 {
			close(o.allTold)
		}
	}
}

// AwaitWorkers blocks until every worker ever granted a lease has been
// told the fleet's outcome by an Acquire (ErrDone or the fleet's
// failure), for at most one lease TTL, or until ctx ends; it reports
// whether every worker was told. A server that stops right after Commit
// would strand the workers that have not asked yet: to them a refused
// connection is a transient fault, so they would poll forever. A worker
// that died never asks, which is what the TTL bound is for.
func (o *Orchestrator) AwaitWorkers(ctx context.Context) bool {
	o.mu.Lock()
	untold := o.untold
	o.mu.Unlock()
	if untold == 0 {
		return true
	}
	t := time.NewTimer(o.cfg.Lease)
	defer t.Stop()
	select {
	case <-o.allTold:
		return true
	case <-t.C:
	case <-ctx.Done():
	}
	return false
}

func (o *Orchestrator) grantLocked(now time.Time, p int, worker string, speculative bool) *Assignment {
	st := &o.parts[p]
	if _, ok := o.workers[worker]; !ok {
		o.workers[worker] = false
		o.untold++
	}
	o.nextID++
	st.attempts++
	l := &lease{
		id:          o.nextID,
		part:        p,
		worker:      worker,
		expires:     now.Add(o.cfg.Lease),
		speculative: speculative,
	}
	o.leases[l.id] = l
	st.leases[l.id] = l
	if len(st.leases) == 1 {
		st.firstLeased = now
	}
	return &Assignment{
		Lease:       l.id,
		Part:        sweep.Partition{K: p + 1, N: o.cfg.Parts},
		Range:       st.rng,
		Shards:      o.cfg.Shards,
		BaseSeed:    o.cfg.BaseSeed,
		Attempt:     st.attempts,
		Speculative: speculative,
		Frontier:    st.frontier,
	}
}

// Heartbeat extends the lease and records the worker's resumable
// frontier. A heartbeat citing an expired or unknown lease — including
// one that raced its own expiry — gets ErrStaleLease and changes
// nothing; a stale frontier (a rejoined worker that salvaged less than
// a previous attempt had) is accepted but never lowers the recorded
// progress.
func (o *Orchestrator) Heartbeat(leaseID int64, frontier int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.cfg.now()
	o.expireLocked(now)
	l, ok := o.leases[leaseID]
	if !ok {
		return ErrStaleLease
	}
	st := &o.parts[l.part]
	if frontier < 0 || frontier > st.rng.Len() {
		return fmt.Errorf("fleet: heartbeat frontier %d outside partition of %d cells", frontier, st.rng.Len())
	}
	if st.done {
		// Another attempt already finished the partition; tell the
		// worker to stop spending cycles on it.
		return ErrStaleLease
	}
	l.expires = now.Add(o.cfg.Lease)
	if frontier > st.frontier {
		st.frontier = frontier
	}
	return nil
}

// Complete commits a finished partition under first-writer-wins: the
// first valid completion records the result and retires every lease on
// the partition; later ones — from speculative copies or leases that
// already expired — get ErrSuperseded/ErrStaleLease and are discarded,
// which is safe because all attempts' artifacts are byte-identical by
// construction. The staged copy is replayed here (sweep.Replay, which
// first checks its range, shards, seed and draw), so an unstaged, torn
// or mismatched partition leaves the partition leased (the worker may
// re-upload and retry) instead of poisoning the commit point, and the
// replayed aggregate feeds PartialSummary.
func (o *Orchestrator) Complete(leaseID int64, res WorkerResult) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.cfg.now()
	o.expireLocked(now)
	l, ok := o.leases[leaseID]
	if !ok {
		return ErrStaleLease
	}
	st := &o.parts[l.part]
	if st.done {
		if st.winner == leaseID {
			// An at-least-once transport may redeliver the winning
			// completion (the first ack was lost); acknowledge it
			// idempotently so the worker does not discard the artifacts
			// the commit path depends on.
			return nil
		}
		return ErrSuperseded
	}
	if res.Range != st.rng {
		return fmt.Errorf("fleet: completion covers cells [%d,%d), partition %d/%d is [%d,%d)",
			res.Range.Lo, res.Range.Hi, l.part+1, o.cfg.Parts, st.rng.Lo, st.rng.Hi)
	}
	if res.Records != st.rng.Len() {
		return fmt.Errorf("fleet: completion holds %d records for %d cells", res.Records, st.rng.Len())
	}
	want := sweep.Identity{Shards: o.cfg.Shards, BaseSeed: o.cfg.BaseSeed, Range: st.rng}
	agg, err := sweep.Replay(o.g, o.stagingDir(l.part), want)
	if err == nil && agg.Cells() != st.rng.Len() {
		err = fmt.Errorf("the staged copy replays %d of %d cells", agg.Cells(), st.rng.Len())
	}
	if err != nil {
		return fmt.Errorf("fleet: partition %d/%d is not fully staged; upload every shard and the manifest before completing: %w",
			l.part+1, o.cfg.Parts, err)
	}
	st.done = true
	st.winner = leaseID
	st.agg = agg
	st.frontier = st.rng.Len()
	st.lastErr = ""
	// No lease is deleted here: the winner's and any sibling
	// (speculative or raced) leases stay registered so a duplicated
	// Complete or a straggler's Heartbeat gets a definitive
	// ErrSuperseded/ErrStaleLease rather than an ambiguous
	// unknown-lease answer; the expiry sweep garbage-collects them.
	o.remain--
	if o.remain == 0 && o.failed == nil {
		close(o.doneCh)
	}
	return nil
}

// stagingDir is where partition p's uploaded artifacts live.
func (o *Orchestrator) stagingDir(p int) string {
	return filepath.Join(o.cfg.Out+".staging", fmt.Sprintf("part-%04d", p+1))
}

// Upload stages one artifact file for the lease's partition. The bytes
// are verified against the claimed SHA-256 before anything is written
// — a corrupted transfer gets ErrUploadRejected and the worker
// retries — and the staged file is written atomically, so a re-upload
// (an at-least-once transport redelivering) is idempotent. Workers
// upload shard files first and the manifest last: the staged directory
// therefore never holds a manifest whose shard files are missing,
// which is the same commit-point discipline the sweep store uses.
func (o *Orchestrator) Upload(leaseID int64, name, sum string, data []byte) error {
	o.mu.Lock()
	now := o.cfg.now()
	o.expireLocked(now)
	l, ok := o.leases[leaseID]
	if !ok {
		o.mu.Unlock()
		return ErrStaleLease
	}
	st := &o.parts[l.part]
	if st.done {
		o.mu.Unlock()
		return ErrSuperseded
	}
	part := l.part
	o.mu.Unlock()

	if !o.artifacts[name] {
		return fmt.Errorf("fleet: upload name %q is not a partition artifact", name)
	}
	if got := durable.SHA256Hex(data); got != sum {
		return fmt.Errorf("%w: %s claims %.12s…, bytes hash to %.12s…", ErrUploadRejected, name, sum, got)
	}
	// The disk write happens outside the lock: uploads are the bulk of
	// the fleet's data plane and must not serialize the state machine.
	// durable.At, not Open: uploads from concurrent leases share the
	// directory, so no writer may sweep up another's temp file.
	dir := o.stagingDir(part)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: upload staging: %w", err)
	}
	if err := durable.At(dir).WriteAtomic(name, data); err != nil {
		return fmt.Errorf("fleet: upload staging: %w", err)
	}
	return nil
}

// Fail releases a lease after a worker-side error so the partition
// re-dispatches without waiting for expiry (still under backoff).
func (o *Orchestrator) Fail(leaseID int64, reason string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.cfg.now()
	o.expireLocked(now)
	l, ok := o.leases[leaseID]
	if !ok {
		return ErrStaleLease
	}
	delete(o.leases, leaseID)
	st := &o.parts[l.part]
	delete(st.leases, leaseID)
	if st.done {
		return nil
	}
	if len(st.leases) == 0 {
		st.firstLeased = time.Time{}
		st.backoffUntil = now.Add(o.backoffLocked(st.attempts))
	}
	o.checkBudgetLocked(st, fmt.Sprintf("partition %d/%d failed on worker %q: %s", l.part+1, o.cfg.Parts, l.worker, reason))
	return nil
}

// Wait blocks until every partition completes (nil), the fleet fails
// (the failure), or ctx is cancelled (its error).
func (o *Orchestrator) Wait(ctx context.Context) error {
	select {
	case <-o.doneCh:
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.failed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PartStatus is one partition's externally visible state.
type PartStatus struct {
	K           int        `json:"k"`
	Range       grid.Range `json:"range"`
	Done        bool       `json:"done"`
	Frontier    int        `json:"frontier"`
	Attempts    int        `json:"attempts"`
	Leases      int        `json:"leases"`
	Speculative bool       `json:"speculative,omitempty"`
	LastError   string     `json:"last_error,omitempty"`
}

// Status is a point-in-time fleet snapshot.
type Status struct {
	Name       string       `json:"name"`
	Cells      int          `json:"cells"`
	DoneParts  int          `json:"done_parts"`
	Parts      int          `json:"parts"`
	DoneCells  int          `json:"done_cells"`
	Failed     string       `json:"failed,omitempty"`
	Partitions []PartStatus `json:"partitions"`
}

// Status snapshots the fleet (expiring overdue leases first, so the
// view is current).
func (o *Orchestrator) Status() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.expireLocked(o.cfg.now())
	s := Status{Name: o.g.Name, Cells: o.g.Cells(), Parts: o.cfg.Parts}
	if o.failed != nil {
		s.Failed = o.failed.Error()
	}
	for p := range o.parts {
		st := &o.parts[p]
		ps := PartStatus{
			K: p + 1, Range: st.rng, Done: st.done,
			Frontier: st.frontier, Attempts: st.attempts, Leases: len(st.leases),
			LastError: st.lastErr,
		}
		for _, l := range st.leases {
			if l.speculative {
				ps.Speculative = true
			}
		}
		if st.done {
			s.DoneParts++
			ps.Frontier = st.rng.Len()
		}
		s.DoneCells += ps.Frontier
		s.Partitions = append(s.Partitions, ps)
	}
	return s
}

// PartialSummary is the merged-so-far view of a running fleet: the
// Summary over every partition completed at the time of the call.
type PartialSummary struct {
	// DoneParts / Parts and DoneCells / Cells locate the view on the
	// way to completion (DoneCells counts only committed-quality cells:
	// completed partitions, not heartbeat frontiers).
	DoneParts int `json:"done_parts"`
	Parts     int `json:"parts"`
	DoneCells int `json:"done_cells"`
	Cells     int `json:"cells"`
	// Summary is the merged aggregate's rendering — the same text
	// Commit produces, over the done subset. Empty until the first
	// partition completes.
	Summary string `json:"summary"`
}

// PartialSummary merges the aggregates Complete replayed from the
// completed partitions' staged copies, in partition order, so a live
// fleet can be inspected without waiting for the commit (it reads no
// file, so it keeps working after Commit removed the staging). Because
// partition order is fixed, the view converges monotonically to the
// committed Summary: once every partition is done, the returned text
// is byte-identical to Commit's (the merge laws make folding partition
// aggregates equal to replaying the merged records).
func (o *Orchestrator) PartialSummary() (PartialSummary, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.expireLocked(o.cfg.now())
	ps := PartialSummary{Parts: o.cfg.Parts, Cells: o.g.Cells()}
	agg := sweep.NewAgg(o.g)
	for p := range o.parts {
		st := &o.parts[p]
		if !st.done {
			continue
		}
		ps.DoneParts++
		ps.DoneCells += st.rng.Len()
		if st.rng.Len() == 0 || st.agg == nil {
			continue
		}
		if err := agg.Merge(st.agg); err != nil {
			return PartialSummary{}, fmt.Errorf("fleet: merging partition %d/%d aggregate: %w", p+1, o.cfg.Parts, err)
		}
	}
	if ps.DoneParts > 0 {
		ps.Summary = agg.Summary()
	}
	return ps, nil
}

// Result is a committed fleet run.
type Result struct {
	// Agg is the whole-grid aggregate, replayed bit-exactly from the
	// merged directory.
	Agg *sweep.Agg
	// Summary is Agg.Summary(), captured at commit.
	Summary string
	// Cells is the grid's cell count.
	Cells int
}

// Commit finalizes a finished fleet into Config.Out: a directory and
// Summary byte-identical to a single-process run. It first heals every
// partition's staged copy — sweep.Verify scrubs it, and a damaged or
// missing copy is rebuilt by sweep.Repair, which re-derives exactly the
// damaged cells from their seeds and takes the partition's identity
// from the orchestrator, so even a destroyed manifest or directory is
// reconstituted — and then runs one sweep.Merge. A repair failure is
// returned. Once the merge succeeds the staging directory is removed,
// since Out now holds the same bytes; a failed heal or merge keeps it.
func (o *Orchestrator) Commit(ctx context.Context) (*Result, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.failed != nil {
		return nil, o.failed
	}
	if o.remain != 0 {
		return nil, errKindIncomplete(o.remain, o.cfg.Parts)
	}
	dirs := make([]string, 0, len(o.parts))
	for p := range o.parts {
		if o.parts[p].rng.Len() == 0 {
			continue
		}
		if err := o.healLocked(ctx, p); err != nil {
			return nil, fmt.Errorf("fleet: repairing partition %d/%d: %w", p+1, o.cfg.Parts, err)
		}
		dirs = append(dirs, o.stagingDir(p))
	}
	merged, err := sweep.Merge(o.g, dirs, o.cfg.Out)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(o.cfg.Out + ".staging"); err != nil {
		return nil, fmt.Errorf("fleet: removing staging: %w", err)
	}
	return &Result{Agg: merged.Agg, Summary: merged.Agg.Summary(), Cells: o.g.Cells()}, nil
}

// healLocked scrubs partition p's staged copy and repairs it in place
// when it is damaged or gone. Caller holds mu.
func (o *Orchestrator) healLocked(ctx context.Context, p int) error {
	dir := o.stagingDir(p)
	if rep, err := sweep.Verify(o.g, dir); err == nil && rep.Clean {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st := &o.parts[p]
	expect := &sweep.ManifestInfo{
		Shards:    o.cfg.Shards,
		BaseSeed:  o.cfg.BaseSeed,
		Completed: st.rng.Len(),
		Range:     st.rng,
		Partition: sweep.Partition{K: p + 1, N: o.cfg.Parts},
	}
	_, err := sweep.Repair(ctx, o.g, dir, sweep.RepairOptions{Expect: expect})
	return err
}

// errKindIncomplete tags the unfinished-fleet error as
// resumable-incomplete for the CLI exit-code contract.
func errKindIncomplete(remain, parts int) error {
	return fmt.Errorf("fleet: %d of %d partitions still unfinished: %w", remain, parts, errkind.Incomplete)
}
