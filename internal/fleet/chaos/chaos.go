// Package chaos is the fleet's fault-injection harness. It wraps a
// fleet transport and the worker lifecycle with faults drawn from a
// seeded schedule — worker kills at random cells, torn shard-file
// tails after a kill, dropped / duplicated / delayed transport
// messages — and runs the fleet to convergence anyway.
//
// Every schedule's fault budgets are finite (Kills, MaxFaults), so
// after the budget is exhausted the system is fault-free and the
// lease/backoff/salvage machinery must converge. The tests assert the
// strong form of convergence: the merged directory and Summary are
// byte-identical to an undisturbed single-process run.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"neutrality/internal/fleet"
	"neutrality/internal/grid"
)

// Schedule is a seeded fault plan. The zero value injects nothing.
type Schedule struct {
	// Seed drives every random draw; equal schedules replay equal
	// fault sequences against a deterministic victim workload.
	Seed int64
	// Kills is the total number of worker kills to inject across the
	// fleet; each kill cancels a worker mid-partition after a number of
	// completed cells drawn from [KillMinCells, KillMaxCells].
	Kills        int
	KillMinCells int
	KillMaxCells int
	// TornWriteProb is the chance that a kill is followed by tearing
	// the tail off one of the victim's shard files (a crash mid-write),
	// which the sweep recovery must truncate away on salvage.
	TornWriteProb float64
	// BitFlipProb is the chance that a kill is followed by flipping one
	// bit somewhere inside one of the victim's shard files (silent
	// mid-file corruption — a bad disk, not a crash). Recovery must
	// quarantine the damaged record and re-derive it from its seed.
	BitFlipProb float64
	// ShardDeleteProb is the chance that a kill is followed by deleting
	// one of the victim's shard files outright; recovery must re-derive
	// the whole shard.
	ShardDeleteProb float64
	// CorruptUploadProb is the per-upload chance that the shipped bytes
	// are corrupted in flight (one bit flipped after the content hash
	// was computed). The receiving orchestrator must reject the
	// transfer and the worker must retry it.
	CorruptUploadProb float64
	// DropProb, DupProb, DelayProb are per-message fault probabilities
	// on the transport; MaxDelay bounds each injected delay.
	DropProb  float64
	DupProb   float64
	DelayProb float64
	MaxDelay  time.Duration
	// MaxFaults bounds the total number of injected transport faults,
	// guaranteeing the message layer eventually runs clean.
	MaxFaults int
}

// Transport wraps an inner fleet transport with schedule-driven
// message faults: drops (the request never arrives, or the reply is
// lost after the inner call took effect), duplicates (the request is
// delivered twice), and delays (reordering against other callers).
type Transport struct {
	inner fleet.Transport

	mu     sync.Mutex
	rng    *rand.Rand
	sched  Schedule
	budget int
}

// errInjected marks a chaos-injected transport fault; workers treat it
// like any other transport error (retry / re-acquire).
var errInjected = errors.New("chaos: injected transport fault")

// NewTransport wraps inner with the schedule's message faults.
func NewTransport(inner fleet.Transport, sched Schedule) *Transport {
	return &Transport{
		inner:  inner,
		rng:    rand.New(rand.NewSource(sched.Seed ^ 0x5eed)),
		sched:  sched,
		budget: sched.MaxFaults,
	}
}

// plan draws the fault action for one message under the budget.
type action int

const (
	deliver action = iota
	dropRequest
	dropReply
	duplicate
)

func (t *Transport) plan() (action, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.budget <= 0 {
		return deliver, 0
	}
	var delay time.Duration
	if t.sched.DelayProb > 0 && t.rng.Float64() < t.sched.DelayProb {
		delay = time.Duration(t.rng.Int63n(int64(t.sched.MaxDelay) + 1))
		t.budget--
	}
	switch {
	case t.sched.DropProb > 0 && t.rng.Float64() < t.sched.DropProb:
		t.budget--
		// Half the drops lose the request, half lose the reply — the
		// latter is the nasty case: the inner call took effect but the
		// caller cannot know.
		if t.rng.Intn(2) == 0 {
			return dropRequest, delay
		}
		return dropReply, delay
	case t.sched.DupProb > 0 && t.rng.Float64() < t.sched.DupProb:
		t.budget--
		return duplicate, delay
	}
	return deliver, delay
}

// perform routes one message through the planned fault.
func (t *Transport) perform(ctx context.Context, call func() error) error {
	act, delay := t.plan()
	if delay > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
	switch act {
	case dropRequest:
		return errInjected
	case dropReply:
		_ = call()
		return errInjected
	case duplicate:
		err := call()
		_ = call()
		return err
	default:
		return call()
	}
}

func (t *Transport) Acquire(ctx context.Context, worker string) (*fleet.Assignment, error) {
	var a *fleet.Assignment
	err := t.perform(ctx, func() error {
		var err error
		// A duplicated acquire grants a second lease nobody works on;
		// expiry reclaims it. Keeping the first grant mirrors a
		// redelivered request whose first reply was consumed.
		if a == nil {
			a, err = t.inner.Acquire(ctx, worker)
		} else {
			_, err = t.inner.Acquire(ctx, worker)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

func (t *Transport) Heartbeat(ctx context.Context, lease int64, frontier int) error {
	return t.perform(ctx, func() error { return t.inner.Heartbeat(ctx, lease, frontier) })
}

func (t *Transport) Complete(ctx context.Context, lease int64, res fleet.WorkerResult) error {
	return t.perform(ctx, func() error { return t.inner.Complete(ctx, lease, res) })
}

func (t *Transport) Fail(ctx context.Context, lease int64, reason string) error {
	return t.perform(ctx, func() error { return t.inner.Fail(ctx, lease, reason) })
}

func (t *Transport) Upload(ctx context.Context, lease int64, name, sum string, data []byte) error {
	return t.perform(ctx, func() error {
		payload := data
		if i, bit, ok := t.drawUploadCorruption(len(data)); ok {
			// Flip one bit after the hash was computed: the wire lied.
			payload = append([]byte(nil), data...)
			payload[i] ^= bit
		}
		return t.inner.Upload(ctx, lease, name, sum, payload)
	})
}

// drawUploadCorruption decides, under the fault budget, whether to
// corrupt this upload's bytes, and where.
func (t *Transport) drawUploadCorruption(n int) (idx int, bit byte, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n == 0 || t.budget <= 0 || t.sched.CorruptUploadProb <= 0 {
		return 0, 0, false
	}
	if t.rng.Float64() >= t.sched.CorruptUploadProb {
		return 0, 0, false
	}
	t.budget--
	return t.rng.Intn(n), 1 << t.rng.Intn(8), true
}

// Options configures a chaos fleet run.
type Options struct {
	// Workers is the number of (restartable) chaos workers.
	Workers int
	// Parts, Shards, BaseSeed, SweepWorkers parameterize the fleet.
	Parts        int
	Shards       int
	BaseSeed     int64
	SweepWorkers int
	// Dir is the working root; Out receives the merged directory
	// (required), with the uploads staged beside it.
	Dir string
	Out string
	// Lease, Heartbeat, Poll, Backoff, SpeculateAfter tune the
	// fault-tolerance machinery (keep them short for tests).
	Lease          time.Duration
	Heartbeat      time.Duration
	Poll           time.Duration
	Backoff        time.Duration
	SpeculateAfter time.Duration
}

// Run executes a fleet under the schedule and returns its committed
// result. Worker kills restart the victim with a fresh context (the
// process-crash model: in-memory state is lost, the directory
// survives, possibly with a torn shard tail).
func Run(ctx context.Context, g *grid.Grid, sched Schedule, opt Options) (*fleet.Result, error) {
	o, err := converge(ctx, g, sched, opt)
	if err != nil {
		return nil, err
	}
	return o.Commit(ctx)
}

// converge drives the fleet to completion under the schedule and
// returns the orchestrator, leaving the commit to the caller (a test
// destroys worker artifacts between the two).
func converge(ctx context.Context, g *grid.Grid, sched Schedule, opt Options) (*fleet.Orchestrator, error) {
	o, err := fleet.New(g, fleet.Config{
		Out:            opt.Out,
		Parts:          opt.Parts,
		Shards:         opt.Shards,
		BaseSeed:       opt.BaseSeed,
		Lease:          opt.Lease,
		Backoff:        opt.Backoff,
		SpeculateAfter: opt.SpeculateAfter,
		JitterSeed:     sched.Seed ^ 0x0fff,
		// Chaos must converge by tolerance, not by giving up: the
		// attempt budget stays unlimited.
		MaxAttempts: 0,
	})
	if err != nil {
		return nil, err
	}
	tr := NewTransport(fleet.Local{O: o}, sched)

	var kills atomic.Int64
	kills.Store(int64(sched.Kills))
	killRng := rand.New(rand.NewSource(sched.Seed ^ 0x4b11))
	var killMu sync.Mutex
	drawKill := func() (after int, tear, flip, del bool) {
		killMu.Lock()
		defer killMu.Unlock()
		span := sched.KillMaxCells - sched.KillMinCells
		after = sched.KillMinCells
		if span > 0 {
			after += killRng.Intn(span + 1)
		}
		tear = killRng.Float64() < sched.TornWriteProb
		flip = killRng.Float64() < sched.BitFlipProb
		del = killRng.Float64() < sched.ShardDeleteProb
		return after, tear, flip, del
	}

	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dir := filepath.Join(opt.Dir, fmt.Sprintf("chaos-%d", w))
			for ctx.Err() == nil {
				killAfter, tear, flip, del := drawKill()
				armed := kills.Add(-1) >= 0
				if !armed {
					kills.Add(1) // return the unclaimed kill
				}
				wctx, cancel := context.WithCancel(ctx)
				var cells atomic.Int64
				err := fleet.Work(wctx, g, tr, fleet.WorkerOptions{
					ID:        fmt.Sprintf("chaos-%d", w),
					Workers:   opt.SweepWorkers,
					Dir:       dir,
					Poll:      opt.Poll,
					Heartbeat: opt.Heartbeat,
					Progress: func(cell int) {
						if armed && cells.Add(1) == int64(killAfter) {
							cancel() // the kill: mid-partition, no goodbye
						}
					},
				})
				cancel()
				if err == nil || ctx.Err() != nil {
					return // fleet done, or the harness itself stopped
				}
				if armed {
					if tear {
						tearShardTail(dir, killRng, &killMu)
					}
					if flip {
						flipShardBit(dir, killRng, &killMu)
					}
					if del {
						deleteShard(dir, killRng, &killMu)
					}
				}
				// Killed (or fleet-failed, impossible with unlimited
				// attempts): restart the worker like a respawned process.
			}
		}(w)
	}

	waitErr := o.Wait(ctx)
	wg.Wait()
	if waitErr != nil {
		return nil, waitErr
	}
	return o, nil
}

// shardFiles lists every shard file under the worker's attempt
// directories.
func shardFiles(root string) []string {
	var shards []string
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".jsonl" {
			shards = append(shards, path)
		}
		return nil
	})
	return shards
}

// tearShardTail simulates a crash mid-append: it removes 1–20 trailing
// bytes from one randomly chosen shard file among the worker's attempt
// directories, leaving a torn final line for recovery to truncate.
func tearShardTail(root string, rng *rand.Rand, mu *sync.Mutex) {
	shards := shardFiles(root)
	if len(shards) == 0 {
		return
	}
	mu.Lock()
	victim := shards[rng.Intn(len(shards))]
	cut := int64(1 + rng.Intn(20))
	mu.Unlock()
	info, err := os.Stat(victim)
	if err != nil || info.Size() == 0 {
		return
	}
	if cut > info.Size() {
		cut = info.Size()
	}
	_ = os.Truncate(victim, info.Size()-cut)
}

// flipShardBit simulates silent mid-file corruption: one bit flipped
// at a random offset of a random shard file. Unlike a torn tail this
// damages the claimed prefix, so salvage must quarantine the record
// and re-derive it from its seed.
func flipShardBit(root string, rng *rand.Rand, mu *sync.Mutex) {
	shards := shardFiles(root)
	if len(shards) == 0 {
		return
	}
	mu.Lock()
	victim := shards[rng.Intn(len(shards))]
	draw := rng.Int63()
	bit := byte(1 << rng.Intn(8))
	mu.Unlock()
	f, err := os.OpenFile(victim, os.O_RDWR, 0)
	if err != nil {
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil || info.Size() == 0 {
		return
	}
	off := draw % info.Size()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return
	}
	b[0] ^= bit
	_, _ = f.WriteAt(b[:], off)
}

// deleteShard simulates losing a whole shard file; salvage must
// re-derive every record the manifest claimed for it.
func deleteShard(root string, rng *rand.Rand, mu *sync.Mutex) {
	shards := shardFiles(root)
	if len(shards) == 0 {
		return
	}
	mu.Lock()
	victim := shards[rng.Intn(len(shards))]
	mu.Unlock()
	_ = os.Remove(victim)
}
