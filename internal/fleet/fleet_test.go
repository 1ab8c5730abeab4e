package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"neutrality/internal/measure"
	"neutrality/internal/sweep"
)

// referenceRun executes the grid single-process and returns its
// directory and summary — the bytes every fleet run must reproduce.
func referenceRun(t *testing.T, shards int) (string, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ref")
	res, err := sweep.Run(context.Background(), microGrid(), sweep.Options{
		Workers: 4, Shards: shards, BaseSeed: 7, Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir, res.Agg.Summary()
}

// assertDirsEqual compares every file of two sweep directories byte
// for byte.
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

// assertNoAttempts fails if any worker root under root still holds an
// attempt directory: once the fleet is done the orchestrator owns every
// partition and the workers keep nothing.
func assertNoAttempts(t *testing.T, root string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(root, "*", "part-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("workers left attempt directories behind: %v", left)
	}
}

// TestRunLocalByteIdentical is the fleet acceptance contract: a local
// fleet (orchestrator + in-process workers over the Local transport)
// commits a merged directory and Summary byte-identical to the
// single-process run, and the workers keep no attempt directory.
func TestRunLocalByteIdentical(t *testing.T) {
	refDir, refSum := referenceRun(t, 3)
	root := t.TempDir()
	out := filepath.Join(root, "merged")
	res, err := RunLocal(context.Background(), microGrid(), LocalOptions{
		Parts: 4, Workers: 3, SweepWorkers: 2, Shards: 3, BaseSeed: 7,
		Dir: filepath.Join(root, "work"), Out: out,
		Lease: 5 * time.Second, Heartbeat: 20 * time.Millisecond, Poll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, refDir)
	if res.Summary != refSum {
		t.Fatalf("fleet summary diverged:\n%s\nvs\n%s", res.Summary, refSum)
	}
	assertNoAttempts(t, filepath.Join(root, "work"))
}

// TestCommitHealsCorruptSource: a partition's staged copy damaged
// after completion — one byte flipped mid-shard, or the whole staging
// directory deleted — is scrubbed and repaired from its seeds and the
// orchestrator's own record of the partition, and Commit writes the
// single-process bytes.
func TestCommitHealsCorruptSource(t *testing.T) {
	refDir, refSum := referenceRun(t, 2)
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, staged string)
	}{
		{"flip", func(t *testing.T, staged string) {
			shard := filepath.Join(staged, "shard-0000.jsonl")
			data, err := os.ReadFile(shard)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(shard, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete", func(t *testing.T, staged string) {
			if err := os.RemoveAll(staged); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, _ := testOrch(t, 2, Config{Lease: time.Minute, SpeculateAfter: -1})
			for k := 1; k <= 2; k++ {
				a, err := o.Acquire("w")
				if err != nil {
					t.Fatal(err)
				}
				if err := o.Complete(a.Lease, stagePart(t, Local{O: o}, a)); err != nil {
					t.Fatal(err)
				}
			}
			tc.damage(t, o.stagingDir(0))

			res, err := o.Commit(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary != refSum {
				t.Fatalf("healed summary diverged:\n%s\nvs\n%s", res.Summary, refSum)
			}
			assertDirsEqual(t, o.cfg.Out, refDir)
		})
	}
}

// TestHTTPFleetEndToEnd drives real workers against the HTTP transport:
// the spec travels over the wire, workers run partitions locally and
// upload them, and the commit reconstitutes the byte-identical
// directory from the orchestrator's staged copies alone — every worker
// directory is deleted first, as if the workers ran on other hosts —
// and then removes the staging directory.
func TestHTTPFleetEndToEnd(t *testing.T) {
	refDir, refSum := referenceRun(t, 3)
	root := t.TempDir()
	out := filepath.Join(root, "merged")
	o, err := New(microGrid(), Config{
		Out: out, Parts: 3, Shards: 3, BaseSeed: 7, Lease: 5 * time.Second, SpeculateAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(o))
	defer srv.Close()
	cl := &Client{Base: srv.URL}

	// Workers learn the grid from the server, not from local state.
	g, shards, seed, err := cl.FetchSpec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != microGrid().Fingerprint() || shards != 3 || seed != 7 {
		t.Fatalf("spec round-trip: fp=%s shards=%d seed=%d", g.Fingerprint()[:12], shards, seed)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = Work(context.Background(), g, cl, WorkerOptions{
				ID:        string(rune('a' + w)),
				Workers:   2,
				Dir:       filepath.Join(root, "w", string(rune('a'+w))),
				Poll:      5 * time.Millisecond,
				Heartbeat: 20 * time.Millisecond,
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := o.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// GET /v1/status serves the orchestrator's snapshot.
	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.DoneParts != 3 || st.DoneCells != microGrid().Cells() || st.Failed != "" {
		t.Fatalf("/v1/status after the fleet finished: %+v", st)
	}

	assertNoAttempts(t, filepath.Join(root, "w"))
	if err := os.RemoveAll(filepath.Join(root, "w")); err != nil {
		t.Fatal(err)
	}
	res, err := o.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, refDir)
	if res.Summary != refSum {
		t.Fatalf("HTTP fleet summary diverged:\n%s\nvs\n%s", res.Summary, refSum)
	}
	if _, err := os.Stat(out + ".staging"); !os.IsNotExist(err) {
		t.Fatalf("commit left the staging directory behind: %v", err)
	}
}

// TestHTTPSentinelRoundTrip: protocol sentinels survive the wire, so
// workers behave identically on either transport.
func TestHTTPSentinelRoundTrip(t *testing.T) {
	o, c := testOrch(t, 1, Config{Lease: time.Minute, SpeculateAfter: time.Second})
	srv := httptest.NewServer(NewServer(o))
	defer srv.Close()
	cl := &Client{Base: srv.URL}
	ctx := context.Background()

	if err := cl.Heartbeat(ctx, 999, 0); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale heartbeat over HTTP: %v", err)
	}
	a, err := cl.Acquire(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Acquire(ctx, "w2"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("no-work over HTTP: %v", err)
	}
	// Past the straggler threshold a second (speculative) lease exists.
	c.advance(2 * time.Second)
	if err := cl.Heartbeat(ctx, a.Lease, 1); err != nil {
		t.Fatal(err)
	}
	sp, err := cl.Acquire(ctx, "w2")
	if err != nil || !sp.Speculative {
		t.Fatalf("speculative acquire over HTTP: %+v, %v", sp, err)
	}
	res := stagePart(t, cl, a)
	if err := cl.Complete(ctx, a.Lease, res); err != nil {
		t.Fatal(err)
	}
	// A redelivered winning completion acks idempotently…
	if err := cl.Complete(ctx, a.Lease, res); err != nil {
		t.Fatalf("redelivered completion over HTTP: %v", err)
	}
	// …while the losing replica is told it was superseded.
	if err := cl.Complete(ctx, sp.Lease, res); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("superseded completion over HTTP: %v", err)
	}
	if _, err := cl.Acquire(ctx, "w"); !errors.Is(err, ErrDone) {
		t.Fatalf("done over HTTP: %v", err)
	}
	if err := cl.Fail(ctx, 999, "x"); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale fail over HTTP: %v", err)
	}
}

// TestHTTPUploadRoundTrip: full-fidelity shard shipping over the HTTP
// transport. Workers upload gzip-compressed, hash-verified artifacts;
// the orchestrator stages them and commits a byte-identical merge even
// though no worker directory is reachable. Corrupted claims are
// rejected with the retryable sentinel, an artifact over the body cap
// is refused with the server's reason, and stale leases are refused.
func TestHTTPUploadRoundTrip(t *testing.T) {
	refDir, refSum := referenceRun(t, 2)
	o, _ := testOrch(t, 2, Config{Lease: time.Minute, SpeculateAfter: -1})
	srv := httptest.NewServer(NewServer(o))
	defer srv.Close()
	cl := &Client{Base: srv.URL}
	ctx := context.Background()

	for k := 1; k <= 2; k++ {
		a, err := cl.Acquire(ctx, "w")
		if err != nil {
			t.Fatal(err)
		}
		dir, res := runPart(t, a)
		// A transfer whose bytes do not match the claimed hash must be
		// rejected with the retryable sentinel, not staged.
		badSum := strings.Repeat("0", 64)
		if err := cl.Upload(ctx, a.Lease, "manifest.json", badSum, []byte("junk")); !errors.Is(err, ErrUploadRejected) {
			t.Fatalf("corrupted upload over HTTP: %v", err)
		}
		// Names outside the partition artifact set never touch disk.
		if err := cl.Upload(ctx, a.Lease, "../escape", badSum, []byte("x")); err == nil {
			t.Fatal("path-escaping upload name was accepted")
		}
		if k == 1 {
			big := make([]byte, maxBodyBytes+1)
			sum := sha256.Sum256(big)
			err := cl.Upload(ctx, a.Lease, "shard-0000.jsonl", hex.EncodeToString(sum[:]), big)
			if err == nil || !strings.Contains(err.Error(), "artifact exceeds body limit") {
				t.Fatalf("over-limit upload over HTTP: %v", err)
			}
		}
		if err := uploadArtifacts(ctx, cl, WorkerOptions{Poll: time.Millisecond}, a, dir); err != nil {
			t.Fatalf("uploadArtifacts: %v", err)
		}
		// The orchestrator cannot reach the worker's path: the staged
		// copy must carry the commit alone.
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := cl.Complete(ctx, a.Lease, res); err != nil {
			t.Fatal(err)
		}
	}

	if err := cl.Upload(ctx, 999, "manifest.json", strings.Repeat("0", 64), []byte("x")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale-lease upload over HTTP: %v", err)
	}

	res, err := o.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, o.cfg.Out, refDir)
	if res.Summary != refSum {
		t.Fatalf("staged HTTP summary diverged:\n%s\nvs\n%s", res.Summary, refSum)
	}
}

// refusingUploads is a transport that refuses every upload with a
// non-sentinel error, as the HTTP server refuses an artifact over its
// body limit.
type refusingUploads struct{ Local }

func (refusingUploads) Upload(context.Context, int64, string, string, []byte) error {
	return errors.New("fleet: server rejected request: artifact exceeds body limit")
}

// TestUploadRefusalFailsLease: a worker whose upload is refused gives
// the lease back with the refusal as its reason instead of completing,
// so with a one-attempt budget the fleet fails naming it.
func TestUploadRefusalFailsLease(t *testing.T) {
	o, err := New(microGrid(), Config{
		Out: filepath.Join(t.TempDir(), "merged"), Parts: 1, Shards: 1, BaseSeed: 7, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = Work(context.Background(), microGrid(), refusingUploads{Local{O: o}}, WorkerOptions{
		ID: "w", Dir: t.TempDir(), Workers: 2, Poll: time.Millisecond,
	})
	if !errors.Is(err, ErrFleetFailed) || !strings.Contains(err.Error(), "artifact exceeds body limit") {
		t.Fatalf("want ErrFleetFailed naming the refused upload, got %v", err)
	}
}

// TestWorkerSalvage: a re-dispatched partition picks up a prior
// attempt's checkpoint by copy, so pre-crash work is not re-executed
// from zero. The copy is observed via the Resumed count of the final
// run being non-zero even though the second attempt used a different
// directory. A checkpoint of another identity — another seed, or
// another Algorithm 2 draw — is not salvaged, and a fleet whose worker
// root holds one still commits the single-process bytes.
func TestWorkerSalvage(t *testing.T) {
	g := microGrid()
	root := t.TempDir()
	a1 := &Assignment{Lease: 1, Part: sweep.Partition{K: 1, N: 1}, Range: g.FullRange(), Shards: 3, BaseSeed: 7, Attempt: 1}

	// Attempt 1 runs to completion in its own directory (stands in for
	// a checkpoint left by a dead worker; completed checkpoints salvage
	// the same way partial ones do).
	dir1 := attemptDir(root, a1)
	if _, err := sweep.Run(context.Background(), g, sweep.Options{
		Workers: 2, Shards: 3, BaseSeed: 7, Dir: dir1,
	}); err != nil {
		t.Fatal(err)
	}

	// Attempt 2 prepares its directory and must inherit the progress.
	a2 := &Assignment{Lease: 2, Part: a1.Part, Range: a1.Range, Shards: 3, BaseSeed: 7, Attempt: 2}
	dir2 := attemptDir(root, a2)
	if err := prepareDir(g, dir2, a2, root); err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(context.Background(), g, sweep.Options{
		Workers: 2, Shards: 3, BaseSeed: 7, Dir: dir2, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != g.Cells() {
		t.Fatalf("salvage resumed %d of %d cells", res.Resumed, g.Cells())
	}

	// A mismatched checkpoint (different seed) is not salvaged.
	a3 := &Assignment{Lease: 3, Part: a1.Part, Range: a1.Range, Shards: 3, BaseSeed: 8, Attempt: 3}
	dir3 := attemptDir(root, a3)
	if err := prepareDir(g, dir3, a3, root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir3, "manifest.json")); !os.IsNotExist(err) {
		t.Fatalf("mismatched checkpoint was salvaged (stat err = %v)", err)
	}

	// A checkpoint of the same spec, shards, seed and range recorded
	// under another Algorithm 2 draw is neither salvaged nor resumed in
	// place: sweep.Run would refuse it, and a salvaged copy would fail
	// every later attempt the same way.
	other := t.TempDir()
	stale := attemptDir(other, a1)
	if _, err := sweep.Run(context.Background(), g, sweep.Options{
		Workers: 2, Shards: 3, BaseSeed: 7, Dir: stale,
	}); err != nil {
		t.Fatal(err)
	}
	restampDraw(t, stale, "older-draw")
	dir4 := attemptDir(other, a2)
	if err := prepareDir(g, dir4, a2, other); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir4, "manifest.json")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint of another draw was salvaged (stat err = %v)", err)
	}
	if err := prepareDir(g, stale, a1, other); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(stale, "manifest.json")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint of another draw was kept for resume in place (stat err = %v)", err)
	}

	// A local fleet whose worker root holds such a checkpoint still
	// commits the single-process bytes within its attempt budget.
	refDir, refSum := referenceRun(t, 3)
	work := t.TempDir()
	stale = filepath.Join(work, "worker-0", "part-0001-a999")
	if _, err := sweep.Run(context.Background(), g, sweep.Options{
		Workers: 2, Shards: 3, BaseSeed: 7, Dir: stale,
	}); err != nil {
		t.Fatal(err)
	}
	restampDraw(t, stale, "older-draw")
	out := filepath.Join(t.TempDir(), "merged")
	res2, err := RunLocal(context.Background(), g, LocalOptions{
		Parts: 1, Workers: 1, SweepWorkers: 2, Shards: 3, BaseSeed: 7, MaxAttempts: 3,
		Dir: work, Out: out,
		Lease: 5 * time.Second, Heartbeat: 20 * time.Millisecond, Poll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, refDir)
	if res2.Summary != refSum {
		t.Fatalf("fleet summary diverged:\n%s\nvs\n%s", res2.Summary, refSum)
	}
}

// restampDraw rewrites dir's manifest as a build drawing under draw
// would have written it.
func restampDraw(t *testing.T, dir, draw string) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stamp := fmt.Sprintf("%q: %q", "draw", measure.DrawScheme)
	old := strings.Replace(string(data), stamp, fmt.Sprintf("%q: %q", "draw", draw), 1)
	if old == string(data) {
		t.Fatalf("manifest carries no %s", stamp)
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
}
