package chaos

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"neutrality/internal/fleet"
	"neutrality/internal/grid"
	"neutrality/internal/sweep"
)

// chaosGrid: 36 cells, small enough that a full fleet pass is cheap
// and a kill lands mid-partition often.
func chaosGrid() *grid.Grid {
	return grid.New("chaos", grid.Base{ScaleFactor: 0.05, DurationSec: 10}).
		Add("diff", grid.Str("police")).
		Add("rate", grid.Num(0.2).WithLabel("20%"), grid.Num(0.4).WithLabel("40%")).
		Add("dfrac", grid.Nums(0.3, 0.5, 0.7)...).
		Add("rep", grid.Nums(0, 1, 2, 3, 4, 5)...)
}

const (
	chaosShards = 3
	chaosSeed   = 7
)

// reference runs the undisturbed single-process sweep the chaos runs
// must reproduce byte for byte.
func reference(t *testing.T) (string, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ref")
	res, err := sweep.Run(context.Background(), chaosGrid(), sweep.Options{
		Workers: 4, Shards: chaosShards, BaseSeed: chaosSeed, Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir, res.Agg.Summary()
}

func assertDirsEqual(t *testing.T, got, want string) {
	t.Helper()
	read := func(dir string) map[string]string {
		out := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(data)
		}
		return out
	}
	g, w := read(got), read(want)
	if len(g) != len(w) {
		t.Fatalf("artifact sets differ: got %d files, want %d", len(g), len(w))
	}
	for name, data := range w {
		if g[name] != data {
			t.Fatalf("%s differs between %s and %s", name, got, want)
		}
	}
}

// assertNoAttempts fails on any attempt directory left under a chaos
// worker's root: once the fleet is done the orchestrator holds every
// partition, so the workers keep nothing — completed, abandoned and
// salvage-leftover attempts alike.
func assertNoAttempts(t *testing.T, workRoot string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(workRoot, "*", "part-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range left {
		t.Errorf("attempt directory leaked: %s", dir)
	}
}

func runSchedule(t *testing.T, sched Schedule, refDir, refSum string) {
	t.Helper()
	root := t.TempDir()
	out := filepath.Join(root, "merged")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := Run(ctx, chaosGrid(), sched, Options{
		Workers: 3, Parts: 5, Shards: chaosShards, BaseSeed: chaosSeed, SweepWorkers: 2,
		Dir: filepath.Join(root, "work"), Out: out,
		Lease: 150 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
		Poll: 5 * time.Millisecond, Backoff: 10 * time.Millisecond,
		SpeculateAfter: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("chaos fleet did not converge: %v", err)
	}
	assertDirsEqual(t, out, refDir)
	if res.Summary != refSum {
		t.Fatalf("summary diverged under chaos:\n%s\nvs\n%s", res.Summary, refSum)
	}
	assertNoAttempts(t, filepath.Join(root, "work"))
}

// TestChaosMatrix: every seeded fault schedule converges to a merged
// directory and Summary byte-identical to the single-process run, with
// every partition shipped through the (faulty) upload path.
func TestChaosMatrix(t *testing.T) {
	refDir, refSum := reference(t)
	matrix := map[string]Schedule{
		"clean": {Seed: 1},
		"kill-heavy": {
			Seed: 2, Kills: 6, KillMinCells: 1, KillMaxCells: 5,
		},
		"drop-heavy": {
			Seed: 3, DropProb: 0.3, MaxFaults: 60,
		},
		"dup-delay": {
			Seed: 4, DupProb: 0.3, DelayProb: 0.3, MaxDelay: 5 * time.Millisecond, MaxFaults: 60,
		},
		"torn-writes": {
			Seed: 5, Kills: 4, KillMinCells: 2, KillMaxCells: 6, TornWriteProb: 1.0,
		},
		"bit-flips": {
			Seed: 7, Kills: 4, KillMinCells: 2, KillMaxCells: 6, BitFlipProb: 1.0,
		},
		"shard-delete": {
			Seed: 8, Kills: 3, KillMinCells: 2, KillMaxCells: 6, ShardDeleteProb: 1.0,
		},
		// CorruptUploadProb 1.0 with MaxFaults 3 corrupts exactly the
		// first three uploads, then runs clean: every rejection is
		// retried within the worker's per-file budget, deterministically.
		"corrupt-upload": {
			Seed: 9, CorruptUploadProb: 1.0, MaxFaults: 3,
		},
		"everything": {
			Seed: 6, Kills: 4, KillMinCells: 1, KillMaxCells: 6, TornWriteProb: 0.5,
			DropProb: 0.15, DupProb: 0.15, DelayProb: 0.15, MaxDelay: 5 * time.Millisecond, MaxFaults: 40,
		},
		"everything-v2": {
			Seed: 10, Kills: 4, KillMinCells: 1, KillMaxCells: 6,
			TornWriteProb: 0.4, BitFlipProb: 0.4, ShardDeleteProb: 0.3,
			DropProb: 0.1, DupProb: 0.1, DelayProb: 0.1, MaxDelay: 5 * time.Millisecond,
			CorruptUploadProb: 0.2, MaxFaults: 40,
		},
	}
	for name, sched := range matrix {
		t.Run(name, func(t *testing.T) {
			runSchedule(t, sched, refDir, refSum)
		})
	}
}

// TestChaosUploadsSurviveWorkerLoss: every worker directory vanishes
// before the commit, and the byte-identical merge proceeds from the
// orchestrator's hash-verified staged copies alone.
func TestChaosUploadsSurviveWorkerLoss(t *testing.T) {
	refDir, refSum := reference(t)
	root := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sched := Schedule{
		Seed: 21, Kills: 2, KillMinCells: 1, KillMaxCells: 5,
		CorruptUploadProb: 1.0, MaxFaults: 3,
	}
	out := filepath.Join(root, "merged")
	o, err := converge(ctx, chaosGrid(), sched, Options{
		Workers: 3, Parts: 4, Shards: chaosShards, BaseSeed: chaosSeed, SweepWorkers: 2,
		Dir: filepath.Join(root, "work"), Out: out,
		Lease: 150 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
		Poll: 5 * time.Millisecond, Backoff: 10 * time.Millisecond,
		SpeculateAfter: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, "work")); err != nil {
		t.Fatal(err)
	}
	res, err := o.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, refDir)
	if res.Summary != refSum {
		t.Fatalf("staged summary diverged:\n%s\nvs\n%s", res.Summary, refSum)
	}
}

// TestChaosTransportRelaysFail: a worker failure report crosses the
// chaos transport (a fault-free schedule) and, with a one-attempt
// budget, fails the fleet with the worker's cell-timeout reason.
func TestChaosTransportRelaysFail(t *testing.T) {
	o, err := fleet.New(chaosGrid(), fleet.Config{
		Out: filepath.Join(t.TempDir(), "merged"), Parts: 2, Shards: 2, BaseSeed: chaosSeed, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(fleet.Local{O: o}, Schedule{})
	err = fleet.Work(context.Background(), chaosGrid(), tr, fleet.WorkerOptions{
		ID: "w", Dir: t.TempDir(), CellTimeout: time.Nanosecond, Poll: time.Millisecond,
	})
	if !errors.Is(err, fleet.ErrFleetFailed) {
		t.Fatalf("worker: want ErrFleetFailed, got %v", err)
	}
	err = o.Wait(context.Background())
	if !errors.Is(err, fleet.ErrFleetFailed) || !strings.Contains(err.Error(), "exceeded the per-cell timeout") {
		t.Fatalf("fleet: want ErrFleetFailed with the cell-timeout reason, got %v", err)
	}
}

// TestChaosLong is the nightly soak: random schedules until the
// CHAOS_LONG_SECONDS budget runs out. Skipped unless the variable is
// set.
func TestChaosLong(t *testing.T) {
	secs, _ := strconv.Atoi(os.Getenv("CHAOS_LONG_SECONDS"))
	if secs <= 0 {
		t.Skip("set CHAOS_LONG_SECONDS to run the chaos soak")
	}
	refDir, refSum := reference(t)
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for round := 0; time.Now().Before(deadline); round++ {
		sched := Schedule{
			Seed:         rng.Int63(),
			Kills:        rng.Intn(8),
			KillMinCells: 1, KillMaxCells: 1 + rng.Intn(8),
			TornWriteProb:     rng.Float64(),
			BitFlipProb:       rng.Float64() * 0.6,
			ShardDeleteProb:   rng.Float64() * 0.4,
			DropProb:          rng.Float64() * 0.3,
			DupProb:           rng.Float64() * 0.3,
			DelayProb:         rng.Float64() * 0.3,
			CorruptUploadProb: rng.Float64() * 0.3,
			MaxDelay:          time.Duration(rng.Intn(8)+1) * time.Millisecond,
			MaxFaults:         40 + rng.Intn(40),
		}
		t.Logf("round %d: %+v", round, sched)
		runSchedule(t, sched, refDir, refSum)
	}
}
