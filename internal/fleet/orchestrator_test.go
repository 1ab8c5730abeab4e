package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neutrality/internal/errkind"
	"neutrality/internal/grid"
	"neutrality/internal/sweep"
)

func microGrid() *grid.Grid {
	return grid.New("micro", grid.Base{ScaleFactor: 0.05, DurationSec: 10}).
		Add("diff", grid.Str("police")).
		Add("rate", grid.Num(0.2).WithLabel("20%"), grid.Num(0.4).WithLabel("40%")).
		Add("dfrac", grid.Nums(0.3, 0.7)...).
		Add("rep", grid.Nums(0, 1, 2)...)
}

// clock is a manually advanced time source for deterministic
// lease-expiry tests.
type clock struct{ t time.Time }

func newClock() *clock { return &clock{t: time.Unix(1_700_000_000, 0)} }

func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }

// testOrch builds an orchestrator on the micro grid with a fake clock
// and tight, jitter-stable timings, merging into a fresh directory.
func testOrch(t *testing.T, parts int, cfg Config) (*Orchestrator, *clock) {
	t.Helper()
	c := newClock()
	cfg.Out = filepath.Join(t.TempDir(), "merged")
	cfg.Parts = parts
	if cfg.Shards == 0 {
		cfg.Shards = parts
	}
	cfg.BaseSeed = 7
	cfg.now = c.now
	o, err := New(microGrid(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, c
}

// runPart executes one partition with the real sweep engine in a fresh
// directory and returns the directory and a valid completion payload.
func runPart(t *testing.T, a *Assignment) (string, WorkerResult) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "part")
	res, err := sweep.Run(context.Background(), microGrid(), sweep.Options{
		Workers: 2, Shards: a.Shards, BaseSeed: a.BaseSeed,
		Partition: a.Part, Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir, WorkerResult{Range: res.Range, Records: res.Total}
}

// stagePart runs one partition and uploads it through tr, as a worker
// does before it completes, and returns the completion payload.
func stagePart(t *testing.T, tr Transport, a *Assignment) WorkerResult {
	t.Helper()
	dir, res := runPart(t, a)
	if err := uploadArtifacts(context.Background(), tr, WorkerOptions{Poll: time.Millisecond}, a, dir); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAcquireOrderAndNoWork: partitions hand out lowest-index first;
// once all are leased (speculation off) the pool answers ErrNoWork.
func TestAcquireOrderAndNoWork(t *testing.T) {
	o, _ := testOrch(t, 3, Config{Lease: time.Minute, SpeculateAfter: -1})
	for k := 1; k <= 3; k++ {
		a, err := o.Acquire("w")
		if err != nil {
			t.Fatal(err)
		}
		if a.Part.K != k || a.Attempt != 1 || a.Speculative {
			t.Fatalf("acquire %d: got %+v", k, a)
		}
	}
	if _, err := o.Acquire("w"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("want ErrNoWork, got %v", err)
	}
}

// TestHeartbeatAfterExpiry is the first lease edge: a worker that
// heartbeats after its lease expired gets ErrStaleLease and mutates
// nothing; the partition re-dispatches (after backoff) with a bumped
// attempt, and the dead lease's IDs stay dead.
func TestHeartbeatAfterExpiry(t *testing.T) {
	o, c := testOrch(t, 2, Config{Lease: time.Minute, Backoff: 3 * time.Minute, MaxBackoff: 3 * time.Minute, SpeculateAfter: -1})
	a, err := o.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Heartbeat(a.Lease, 3); err != nil {
		t.Fatal(err)
	}
	c.advance(2 * time.Minute) // past the (extended) lease TTL
	if err := o.Heartbeat(a.Lease, 4); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("heartbeat after expiry: want ErrStaleLease, got %v", err)
	}
	// Partition 1 is backing off (expiry at +1m, backoff ≈3m from
	// there); partition 2 is still free.
	b, err := o.Acquire("w2")
	if err != nil || b.Part.K != 2 {
		t.Fatalf("expected partition 2 while 1 backs off, got %+v, %v", b, err)
	}
	c.advance(4 * time.Minute) // now +6m, past the jittered window's +4m45s worst case
	r, err := o.Acquire("w2")
	if err != nil {
		t.Fatal(err)
	}
	if r.Part.K != 1 || r.Attempt != 2 {
		t.Fatalf("re-dispatch: got part %d attempt %d", r.Part.K, r.Attempt)
	}
	if r.Frontier != 3 {
		t.Fatalf("re-dispatch should carry the heartbeated frontier 3, got %d", r.Frontier)
	}
	// The old lease is unusable for completion too.
	if err := o.Complete(a.Lease, WorkerResult{}); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("complete on expired lease: want ErrStaleLease, got %v", err)
	}
}

// TestDuplicateCompletionFromSpeculation is the second edge: a slow
// partition is speculatively re-issued, both copies finish, the first
// valid Complete wins, the loser gets ErrSuperseded, and the committed
// result is byte-identical either way (same inputs by construction).
func TestDuplicateCompletionFromSpeculation(t *testing.T) {
	o, c := testOrch(t, 2, Config{Lease: time.Minute, SpeculateAfter: 10 * time.Second})
	a1, err := o.Acquire("slow")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := o.Acquire("w2")
	if err != nil || a2.Part.K != 2 {
		t.Fatal(err)
	}
	done2 := stagePart(t, Local{O: o}, a2)
	if err := o.Complete(a2.Lease, done2); err != nil {
		t.Fatal(err)
	}
	// No pending partitions; before the threshold there is no work…
	if _, err := o.Acquire("idle"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("want ErrNoWork before speculation threshold, got %v", err)
	}
	// …after it, the idle worker gets a speculative copy of part 1.
	c.advance(11 * time.Second)
	if err := o.Heartbeat(a1.Lease, 1); err != nil { // keep the slow lease alive
		t.Fatal(err)
	}
	sp, err := o.Acquire("idle")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Part != a1.Part || !sp.Speculative || sp.Attempt != 2 {
		t.Fatalf("speculative grant: %+v", sp)
	}
	// Replica cap: no third copy.
	if _, err := o.Acquire("idle2"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("want replica cap ErrNoWork, got %v", err)
	}
	// Both copies produce identical bytes; the speculative one lands
	// first and wins.
	r1 := stagePart(t, Local{O: o}, a1)
	rs := stagePart(t, Local{O: o}, sp)
	if err := o.Complete(sp.Lease, rs); err != nil {
		t.Fatal(err)
	}
	if err := o.Complete(a1.Lease, r1); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("duplicate completion: want ErrSuperseded, got %v", err)
	}
	// The slow worker's next heartbeat also learns it is stale.
	if err := o.Heartbeat(a1.Lease, 5); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("heartbeat on superseded lease: want ErrStaleLease, got %v", err)
	}
	if err := o.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := o.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The fleet summary equals a single-process run of the same grid.
	ref, err := sweep.Run(context.Background(), microGrid(), sweep.Options{Workers: 4, Shards: 2, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary != ref.Agg.Summary() {
		t.Fatalf("fleet summary diverged:\n%s\nvs\n%s", res.Summary, ref.Agg.Summary())
	}
}

// TestRejoinWithStaleFrontier is the third edge: a worker that rejoins
// a partition and reports less progress than a previous attempt had
// (it salvaged an older checkpoint) is accepted, but the recorded
// frontier never moves backward.
func TestRejoinWithStaleFrontier(t *testing.T) {
	o, c := testOrch(t, 1, Config{Lease: time.Minute, Backoff: time.Millisecond, SpeculateAfter: -1})
	a1, err := o.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Heartbeat(a1.Lease, 9); err != nil {
		t.Fatal(err)
	}
	c.advance(2 * time.Minute) // w1 dies; lease expires
	c.advance(time.Second)     // …and backoff clears
	a2, err := o.Acquire("w2")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Frontier != 9 {
		t.Fatalf("rejoin assignment should advertise frontier 9, got %d", a2.Frontier)
	}
	// w2 salvaged an older checkpoint: its honest frontier is 2.
	if err := o.Heartbeat(a2.Lease, 2); err != nil {
		t.Fatalf("stale-frontier heartbeat must be accepted: %v", err)
	}
	if got := o.Status().Partitions[0].Frontier; got != 9 {
		t.Fatalf("recorded frontier regressed to %d", got)
	}
	// Out-of-range frontiers are rejected outright.
	if err := o.Heartbeat(a2.Lease, 13); err == nil || errors.Is(err, ErrStaleLease) {
		t.Fatalf("out-of-range frontier: want a validation error, got %v", err)
	}
	if err := o.Heartbeat(a2.Lease, -1); err == nil {
		t.Fatal("negative frontier accepted")
	}
	// The rejected heartbeats did not kill the lease.
	if err := o.Heartbeat(a2.Lease, 12); err != nil {
		t.Fatal(err)
	}
}

// TestCompleteValidation: a completion whose partition is not staged,
// whose staged copy does not replay, or whose payload does not match
// the partition, is rejected and the lease survives, so the worker can
// re-upload and retry or fail cleanly.
func TestCompleteValidation(t *testing.T) {
	o, _ := testOrch(t, 2, Config{Lease: time.Minute, SpeculateAfter: -1})
	a, err := o.Acquire("w")
	if err != nil {
		t.Fatal(err)
	}
	dir, good := runPart(t, a)

	// A valid payload for a partition nobody uploaded: the orchestrator
	// would have nothing to merge, so it stays leased.
	if err := o.Complete(a.Lease, good); err == nil || !strings.Contains(err.Error(), "not fully staged") {
		t.Fatalf("unstaged completion: %v", err)
	}
	if st := o.Status(); st.DoneParts != 0 || st.Partitions[0].Leases != 1 {
		t.Fatalf("unstaged completion changed the partition: %+v", st.Partitions[0])
	}
	if err := o.Heartbeat(a.Lease, 1); err != nil {
		t.Fatalf("lease died with the refused completion: %v", err)
	}
	if err := uploadArtifacts(context.Background(), Local{O: o}, WorkerOptions{}, a, dir); err != nil {
		t.Fatal(err)
	}

	bad := good
	bad.Range.Hi++ // wrong range
	if err := o.Complete(a.Lease, bad); err == nil {
		t.Fatal("mismatched range accepted")
	}
	bad = good
	bad.Records-- // wrong cardinality
	if err := o.Complete(a.Lease, bad); err == nil {
		t.Fatal("mismatched record count accepted")
	}

	// A staged shard torn after upload: its manifest still claims every
	// cell, but the copy does not replay, so the completion is refused.
	shard := filepath.Join(o.stagingDir(0), "shard-0000.jsonl")
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := o.Complete(a.Lease, good); err == nil || !strings.Contains(err.Error(), "not fully staged") {
		t.Fatalf("torn staged copy: %v", err)
	}
	if err := o.Heartbeat(a.Lease, 1); err != nil {
		t.Fatalf("lease died with the refused completion: %v", err)
	}
	// The lease is still live: a re-upload heals the staged copy and the
	// good payload lands.
	if err := uploadArtifacts(context.Background(), Local{O: o}, WorkerOptions{}, a, dir); err != nil {
		t.Fatal(err)
	}
	if err := o.Complete(a.Lease, good); err != nil {
		t.Fatalf("valid completion after rejections: %v", err)
	}
}

// TestAttemptBudget: MaxAttempts failures fail the whole fleet with
// ErrFleetFailed, surfaced through Acquire, Wait, and Commit.
func TestAttemptBudget(t *testing.T) {
	o, c := testOrch(t, 1, Config{Lease: time.Minute, Backoff: time.Millisecond, MaxAttempts: 2, SpeculateAfter: -1})
	for i := 0; i < 2; i++ {
		c.advance(time.Second)
		a, err := o.Acquire(fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatalf("attempt %d: %v", i+1, err)
		}
		if err := o.Fail(a.Lease, "synthetic crash"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.Acquire("w"); !errors.Is(err, ErrFleetFailed) {
		t.Fatalf("want ErrFleetFailed from Acquire, got %v", err)
	}
	if err := o.Wait(context.Background()); !errors.Is(err, ErrFleetFailed) {
		t.Fatalf("want ErrFleetFailed from Wait, got %v", err)
	}
	if _, err := o.Commit(context.Background()); !errors.Is(err, ErrFleetFailed) {
		t.Fatalf("want ErrFleetFailed from Commit, got %v", err)
	}
}

// TestRunLocalCellTimeoutFails: a worker whose cell misses its
// deadline gives the lease back through the transport's Fail, and with
// a one-attempt budget the fleet fails naming the worker's reason.
func TestRunLocalCellTimeoutFails(t *testing.T) {
	_, err := RunLocal(context.Background(), microGrid(), LocalOptions{
		Workers: 1, Parts: 2, Shards: 2, BaseSeed: 7, Dir: t.TempDir(), Out: filepath.Join(t.TempDir(), "merged"),
		CellTimeout: time.Nanosecond, MaxAttempts: 1, Poll: time.Millisecond,
	})
	if !errors.Is(err, ErrFleetFailed) {
		t.Fatalf("want ErrFleetFailed, got %v", err)
	}
	if !strings.Contains(err.Error(), "exceeded the per-cell timeout") {
		t.Fatalf("fleet failure %q does not carry the worker's cell-timeout reason", err)
	}
}

// TestCommitIncomplete: committing an unfinished fleet is tagged as
// resumable-incomplete for the CLI exit-code contract.
func TestCommitIncomplete(t *testing.T) {
	o, _ := testOrch(t, 2, Config{Lease: time.Minute})
	if _, err := o.Commit(context.Background()); !errors.Is(err, errkind.Incomplete) {
		t.Fatalf("want errkind.Incomplete, got %v", err)
	}
}

// TestEmptyPartitions: over-splitting (more parts than shard blocks)
// yields empty partitions that are born done and never dispatched.
func TestEmptyPartitions(t *testing.T) {
	// 12 cells with 4-cell shard blocks → 3 blocks; 4 parts → 1 empty.
	o, _ := testOrch(t, 4, Config{Shards: 4, Lease: time.Minute, SpeculateAfter: -1})
	seen := map[int]bool{}
	for {
		a, err := o.Acquire("w")
		if errors.Is(err, ErrNoWork) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen[a.Part.K] = true
		if a.Range.Len() == 0 {
			t.Fatalf("dispatched empty partition %d", a.Part.K)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("expected 3 non-empty partitions, saw %v", seen)
	}
}

// TestBackoffGrowsAndIsJittered: re-dispatch delays grow roughly
// exponentially and stay within the ±25% jitter envelope of the cap.
func TestBackoffGrowsAndIsJittered(t *testing.T) {
	o, _ := testOrch(t, 1, Config{Lease: time.Minute, Backoff: time.Second, MaxBackoff: 8 * time.Second})
	for attempts, want := range map[int]time.Duration{1: time.Second, 2: 2 * time.Second, 4: 8 * time.Second, 10: 8 * time.Second} {
		d := o.backoffLocked(attempts)
		lo := time.Duration(float64(want) * 0.75)
		hi := time.Duration(float64(want) * 1.25)
		if d < lo || d > hi {
			t.Fatalf("backoff(%d) = %v, want within [%v, %v]", attempts, d, lo, hi)
		}
	}
}

// TestAwaitWorkersBounded: AwaitWorkers returns at once when no worker
// holds a grant, waits at most one lease TTL for a worker that never
// asks again, and returns true once every granted worker has been told
// the fleet is done.
func TestAwaitWorkersBounded(t *testing.T) {
	o, _ := testOrch(t, 1, Config{Lease: 50 * time.Millisecond, SpeculateAfter: -1})
	if !o.AwaitWorkers(context.Background()) {
		t.Fatal("AwaitWorkers waited with no worker granted")
	}
	a, err := o.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Complete(a.Lease, stagePart(t, Local{O: o}, a)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if o.AwaitWorkers(context.Background()) {
		t.Fatal("AwaitWorkers reported w1 told before it asked")
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("AwaitWorkers gave up after %v, before one lease TTL", waited)
	}
	if _, err := o.Acquire("w1"); !errors.Is(err, ErrDone) {
		t.Fatalf("Acquire after completion: %v, want ErrDone", err)
	}
	if !o.AwaitWorkers(context.Background()) {
		t.Fatal("AwaitWorkers did not see w1 told")
	}
}
