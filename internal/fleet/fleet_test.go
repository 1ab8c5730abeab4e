package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestRunLocalByteIdentical is the fleet acceptance contract: a local
// fleet (orchestrator + in-process workers, shared directory
// transport) commits a merged directory and Summary byte-identical to
// the single-process run.
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
	if res.Degraded {
		t.Fatalf("local fleet degraded: %v", res.Reason)
	}
	if res.Dir != out {
		t.Fatalf("result dir %q, want %q", res.Dir, out)
	}
	assertDirsEqual(t, out, refDir)
	if res.Summary != refSum {
		t.Fatalf("fleet summary diverged:\n%s\nvs\n%s", res.Summary, refSum)
	}
}

// TestCommitDegradesToAggregates: when a winning partition's directory
// vanishes before commit (unrecoverable shard files), Commit falls
// back to merging the shipped aggregates — the Summary is still exact.
func TestCommitDegradesToAggregates(t *testing.T) {
	_, refSum := referenceRun(t, 2)
	o, _ := testOrch(t, 2, Config{Lease: time.Minute, SpeculateAfter: -1})
	for k := 1; k <= 2; k++ {
		a, err := o.Acquire("w")
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "part")
		res := runPart(t, a, dir)
		if k == 1 {
			// Partition 1's shard files are lost after completion.
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}
		if err := o.Complete(a.Lease, res); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(t.TempDir(), "merged")
	res, err := o.Commit(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Reason == nil {
		t.Fatalf("expected a degraded commit, got %+v", res)
	}
	if res.Dir != "" {
		t.Fatalf("degraded commit should not claim a directory, got %q", res.Dir)
	}
	if res.Summary != refSum {
		t.Fatalf("degraded summary diverged:\n%s\nvs\n%s", res.Summary, refSum)
	}
}

// TestCommitHealsCorruptSource: a partition directory damaged after
// completion (one flipped byte mid-shard) makes the merge fail with
// sweep.ErrCorrupt; Commit repairs the source from its seeds and the
// orchestrator's own record of the partition, re-merges, and commits
// the single-process bytes without degrading.
func TestCommitHealsCorruptSource(t *testing.T) {
	refDir, refSum := referenceRun(t, 2)
	o, _ := testOrch(t, 2, Config{Lease: time.Minute, SpeculateAfter: -1})
	var part1 string
	for k := 1; k <= 2; k++ {
		a, err := o.Acquire("w")
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "part")
		if k == 1 {
			part1 = dir
		}
		if err := o.Complete(a.Lease, runPart(t, a, dir)); err != nil {
			t.Fatal(err)
		}
	}
	shard := filepath.Join(part1, "shard-0000.jsonl")
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "merged")
	res, err := o.Commit(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("corrupt source should be healed, not degraded: %v", res.Reason)
	}
	if res.Summary != refSum {
		t.Fatalf("healed summary diverged:\n%s\nvs\n%s", res.Summary, refSum)
	}
	assertDirsEqual(t, out, refDir)
}

// TestHTTPFleetEndToEnd drives real workers against the HTTP transport
// (aggregate-only shipping): the spec travels over the wire, workers
// run partitions locally, and because this test shares a filesystem
// the commit still reconstitutes the full byte-identical directory.
// It then re-commits after deleting the worker artifacts to exercise
// the degraded path over the same protocol.
func TestHTTPFleetEndToEnd(t *testing.T) {
	refDir, refSum := referenceRun(t, 3)
	o, err := New(microGrid(), Config{
		Parts: 3, Shards: 3, BaseSeed: 7, Lease: 5 * time.Second, SpeculateAfter: -1,
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

	root := t.TempDir()
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

	out := filepath.Join(root, "merged")
	res, err := o.Commit(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("shared-filesystem HTTP fleet should not degrade: %v", res.Reason)
	}
	assertDirsEqual(t, out, refDir)
	if res.Summary != refSum {
		t.Fatalf("HTTP fleet summary diverged:\n%s\nvs\n%s", res.Summary, refSum)
	}

	// Simulate the orchestrator not sharing the workers' filesystem:
	// with every worker directory gone, a fresh commit degrades but the
	// Summary — carried by the shipped aggregates — is unchanged.
	if err := os.RemoveAll(filepath.Join(root, "w")); err != nil {
		t.Fatal(err)
	}
	res2, err := o.Commit(context.Background(), filepath.Join(root, "merged2"))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Degraded {
		t.Fatal("expected degradation with worker directories gone")
	}
	if res2.Summary != refSum {
		t.Fatalf("degraded HTTP summary diverged:\n%s\nvs\n%s", res2.Summary, refSum)
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
	res := runPart(t, a, filepath.Join(t.TempDir(), "p"))
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
// rejected with the retryable sentinel, stale leases are refused, and
// a fleet without a staging directory answers ErrUploadUnsupported.
func TestHTTPUploadRoundTrip(t *testing.T) {
	refDir, refSum := referenceRun(t, 2)
	staging := t.TempDir()
	o, _ := testOrch(t, 2, Config{Lease: time.Minute, SpeculateAfter: -1, UploadDir: staging})
	srv := httptest.NewServer(NewServer(o))
	defer srv.Close()
	cl := &Client{Base: srv.URL}
	ctx := context.Background()

	for k := 1; k <= 2; k++ {
		a, err := cl.Acquire(ctx, "w")
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "part")
		res := runPart(t, a, dir)
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
		uploaded, err := uploadArtifacts(ctx, cl, WorkerOptions{Poll: time.Millisecond}, a, dir)
		if err != nil || !uploaded {
			t.Fatalf("uploadArtifacts: uploaded=%v err=%v", uploaded, err)
		}
		// The orchestrator cannot reach the worker's path: the staged
		// copy must carry the commit alone.
		res.Dir = ""
		res.Uploaded = true
		if err := cl.Complete(ctx, a.Lease, res); err != nil {
			t.Fatal(err)
		}
	}

	if err := cl.Upload(ctx, 999, "manifest.json", strings.Repeat("0", 64), []byte("x")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale-lease upload over HTTP: %v", err)
	}

	out := filepath.Join(t.TempDir(), "merged")
	res, err := o.Commit(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("staged uploads should carry the full merge: %v", res.Reason)
	}
	assertDirsEqual(t, out, refDir)
	if res.Summary != refSum {
		t.Fatalf("staged HTTP summary diverged:\n%s\nvs\n%s", res.Summary, refSum)
	}

	// Without a staging directory the server answers the sentinel that
	// turns shipping off client-side.
	o2, _ := testOrch(t, 1, Config{Lease: time.Minute, SpeculateAfter: -1})
	srv2 := httptest.NewServer(NewServer(o2))
	defer srv2.Close()
	cl2 := &Client{Base: srv2.URL}
	a2, err := cl2.Acquire(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.Upload(ctx, a2.Lease, "manifest.json", strings.Repeat("0", 64), []byte("x")); !errors.Is(err, ErrUploadUnsupported) {
		t.Fatalf("upload without staging: %v", err)
	}
}

// TestWorkerSalvage: a re-dispatched partition picks up a prior
// attempt's checkpoint by copy, so pre-crash work is not re-executed
// from zero. The copy is observed via the Resumed count of the final
// run being non-zero even though the second attempt used a different
// directory.
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
	if _, err := sweep.ReadManifestDir(dir3); err == nil {
		t.Fatal("mismatched checkpoint was salvaged")
	}
}
