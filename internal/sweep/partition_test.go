package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neutrality/internal/durable"
	"neutrality/internal/errkind"
	"neutrality/internal/grid"
)

// runPartitions executes every partition of an n-way split of g into
// its own directory under base, returning the directories.
func runPartitions(t *testing.T, g *grid.Grid, base string, n, shards, workers int) []string {
	t.Helper()
	dirs := make([]string, n)
	for k := 1; k <= n; k++ {
		dirs[k-1] = filepath.Join(base, fmt.Sprintf("part-%d", k))
		_, err := Run(context.Background(), g, Options{
			Workers: workers, Shards: shards, BaseSeed: 7, Dir: dirs[k-1],
			Partition: Partition{K: k, N: n},
		})
		if err != nil {
			t.Fatalf("partition %d/%d: %v", k, n, err)
		}
	}
	return dirs
}

// assertDirsEqual compares every artifact byte for byte.
func assertDirsEqual(t *testing.T, got, want string) {
	t.Helper()
	g, w := readDir(t, got), readDir(t, want)
	if len(g) != len(w) {
		t.Fatalf("artifact sets differ: got %d files, want %d", len(g), len(w))
	}
	for name, data := range w {
		if g[name] != data {
			t.Fatalf("%s differs between %s and %s", name, got, want)
		}
	}
}

// cutClaim rewinds a finished sweep directory to a completed prefix of
// its range, as a kill right after that checkpoint would leave it: each
// shard keeps exactly the lines the new frontier claims and the
// manifest's counts and sums are re-sealed to match.
func cutClaim(t *testing.T, dir string, completed int) {
	t.Helper()
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	m.Completed = completed
	for s := range m.PerShard {
		lines, err := os.ReadFile(shardPath(dir, s))
		if err != nil {
			t.Fatal(err)
		}
		keep, end := linesOf(completed, s, m.Shards), 0
		for n := 0; n < keep; n++ {
			end += strings.IndexByte(string(lines[end:]), '\n') + 1
		}
		if err := os.WriteFile(shardPath(dir, s), lines[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		m.PerShard[s] = keep
		m.ShardSums[s] = durable.SHA256Hex(lines[:end])
	}
	if err := writeManifest(durable.At(dir), m); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionMergeByteIdentical is the tentpole contract: a sweep
// split into 4 partitions, run independently, then merged, produces a
// manifest, shard files, and aggregate summary byte-identical to the
// single-process run of the same (grid, shards, seed).
func TestPartitionMergeByteIdentical(t *testing.T) {
	g := microGrid()
	want := t.TempDir()
	res, err := Run(context.Background(), g, Options{Workers: 4, Shards: 3, BaseSeed: 7, Dir: want})
	if err != nil {
		t.Fatal(err)
	}
	wantSum := res.Agg.Summary()

	dirs := runPartitions(t, g, t.TempDir(), 4, 3, 2)
	out := filepath.Join(t.TempDir(), "merged")
	mres, err := Merge(g, dirs, out)
	if err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, want)
	if sum := mres.Agg.Summary(); sum != wantSum {
		t.Fatalf("merged summary diverged from single run:\n%s\nvs\n%s", sum, wantSum)
	}
	if mres.Total != g.Cells() || mres.Resumed != g.Cells() {
		t.Fatalf("merge result accounting: %+v", mres)
	}
}

// TestMergeOrderIndependent: the partition directories can be passed
// in any order — Merge sorts by range.
func TestMergeOrderIndependent(t *testing.T) {
	g := microGrid()
	want := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: want}); err != nil {
		t.Fatal(err)
	}
	dirs := runPartitions(t, g, t.TempDir(), 3, 2, 1)
	shuffled := []string{dirs[2], dirs[0], dirs[1]}
	out := filepath.Join(t.TempDir(), "merged")
	if _, err := Merge(g, shuffled, out); err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, want)
}

// TestPartitionManifest: a partition directory's manifest is stamped
// with the spec fingerprint and its k/n range, counts locally, and
// records the FULL grid's cell count.
func TestPartitionManifest(t *testing.T) {
	g := microGrid() // 12 cells
	dir := t.TempDir()
	res, err := Run(context.Background(), g, Options{
		Shards: 3, BaseSeed: 7, Dir: dir, Partition: Partition{K: 2, N: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 12 cells in blocks of 3 over 4 partitions: partition 2 is [3,6).
	if res.Range != (grid.Range{Lo: 3, Hi: 6}) || res.Total != 3 {
		t.Fatalf("partition 2/4 covered %+v (total %d)", res.Range, res.Total)
	}
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint != g.Fingerprint() || m.Cells != 12 || m.Completed != 3 {
		t.Fatalf("manifest: %+v", m)
	}
	if m.Range == nil || *m.Range != (manifestRange{K: 2, N: 4, Lo: 3, Hi: 6}) {
		t.Fatalf("manifest range: %+v", m.Range)
	}
	// Shard files hold the range's cells: shard s gets cells ≡ s mod 3.
	for s, want := range map[int]string{0: "[3]", 1: "[4]", 2: "[5]"} {
		var cells []int
		raw, err := os.ReadFile(shardPath(dir, s))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
			payload, err := durable.Unframe([]byte(line))
			if err != nil {
				t.Fatal(err)
			}
			var r Record
			if err := json.Unmarshal(payload, &r); err != nil {
				t.Fatal(err)
			}
			cells = append(cells, r.Cell)
		}
		if fmt.Sprint(cells) != want {
			t.Fatalf("shard %d holds cells %v, want %s", s, cells, want)
		}
	}
}

// TestPartitionResumeValidation: resuming a partition directory under
// a different partition (or as a full run) is refused, and so are
// Resumable and Replay under another range, each naming the range.
func TestPartitionResumeValidation(t *testing.T) {
	g := microGrid()
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Options{
		Shards: 3, BaseSeed: 7, Dir: dir, Partition: Partition{K: 1, N: 4},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), g, Options{
		Shards: 3, BaseSeed: 7, Dir: dir, Resume: true, Partition: Partition{K: 2, N: 4},
	})
	assertRefused(t, "wrong-partition resume", err, "cell range is [0,3) on disk, [3,6) expected")
	_, err = Run(context.Background(), g, Options{
		Shards: 3, BaseSeed: 7, Dir: dir, Resume: true,
	})
	assertRefused(t, "full-run resume of partition dir", err, "cell range is [0,3) on disk, [0,12) expected")
	want := Identity{Shards: 3, BaseSeed: 7, Range: grid.Range{Lo: 3, Hi: 6}}
	_, err = Resumable(g, dir, want)
	assertRefused(t, "wrong-range resumable", err, "cell range")
	_, err = Replay(g, dir, want)
	assertRefused(t, "wrong-range replay", err, "cell range")
	// The matching partition resumes as a no-op replay.
	res, err := Run(context.Background(), g, Options{
		Shards: 3, BaseSeed: 7, Dir: dir, Resume: true, Partition: Partition{K: 1, N: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != res.Total || res.Agg.Cells() != res.Total {
		t.Fatalf("no-op partition resume: %+v", res)
	}
}

// TestPartitionInvalid: malformed partitions fail before any work.
func TestPartitionInvalid(t *testing.T) {
	g := microGrid()
	for _, p := range []Partition{{K: 0, N: 4}, {K: 5, N: 4}, {K: -1, N: -1}} {
		if _, err := Run(context.Background(), g, Options{BaseSeed: 7, Partition: p}); err == nil {
			t.Errorf("partition %+v accepted", p)
		}
	}
}

// TestPartitionEmptyRange: more partitions than shard blocks leaves
// trailing partitions with zero cells; they still write a valid
// manifest and merge cleanly.
func TestPartitionEmptyRange(t *testing.T) {
	g := microGrid() // 12 cells, shards=3 -> 4 blocks
	want := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 3, BaseSeed: 7, Dir: want}); err != nil {
		t.Fatal(err)
	}
	dirs := runPartitions(t, g, t.TempDir(), 6, 3, 1)
	out := filepath.Join(t.TempDir(), "merged")
	if _, err := Merge(g, dirs, out); err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, want)
}

// TestMergeSingleDirectory: merging one complete full-run directory
// copies it into place byte-identically.
func TestMergeSingleDirectory(t *testing.T) {
	g := microGrid()
	src := t.TempDir()
	res, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "merged")
	mres, err := Merge(g, []string{src}, out)
	if err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, src)
	if mres.Agg.Summary() != res.Agg.Summary() {
		t.Fatal("single-directory merge changed the summary")
	}
}

// TestMergeValidation: every way a merge can be wrong is reported
// with an actionable error — gaps and unfinished partitions as
// resumable frontiers, overlaps, spec and layout mismatches, and an
// occupied output directory.
func TestMergeValidation(t *testing.T) {
	g := microGrid()
	base := t.TempDir()
	dirs := runPartitions(t, g, base, 4, 3, 1)

	// A missing partition is a coverage gap naming the cell range.
	if _, err := Merge(g, []string{dirs[0], dirs[1], dirs[3]}, filepath.Join(base, "m1")); err == nil ||
		!strings.Contains(err.Error(), "[6,9) are covered by no partition") {
		t.Fatalf("gap err = %v", err)
	}
	// A duplicated partition is an overlap.
	if _, err := Merge(g, append(append([]string{}, dirs...), dirs[1]), filepath.Join(base, "m2")); err == nil ||
		!strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlap err = %v", err)
	}
	// A different spec is a fingerprint mismatch.
	g2 := microGrid()
	g2.Base.DurationSec = 11
	_, err := Merge(g2, dirs, filepath.Join(base, "m3"))
	assertRefused(t, "merge under another spec", err, "fingerprint")
	// Partitions recorded with different seeds, or different shard
	// counts, cannot be merged: the first directory sets both.
	odd := filepath.Join(base, "odd-seed")
	if _, err := Run(context.Background(), g, Options{
		Shards: 3, BaseSeed: 8, Dir: odd, Partition: Partition{K: 4, N: 4},
	}); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(g, []string{dirs[0], dirs[1], dirs[2], odd}, filepath.Join(base, "m4"))
	assertRefused(t, "merge across seeds", err, "base seed is 8 on disk, 7 expected")
	odd = filepath.Join(base, "odd-shards")
	if _, err := Run(context.Background(), g, Options{
		Shards: 2, BaseSeed: 7, Dir: odd, Partition: Partition{K: 4, N: 4},
	}); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(g, []string{dirs[0], dirs[1], dirs[2], odd}, filepath.Join(base, "m4s"))
	assertRefused(t, "merge across shard counts", err, "shards is 2 on disk, 3 expected")
	// An interrupted partition is incomplete: the error carries its
	// resumable frontier. The interrupt is built deterministically — a
	// cancel from OnRecord races the partition's other in-flight cells,
	// which may all finish first. Partition 3 (cells 6–8) is cut back to
	// its first cell, and a resume under an already-cancelled context
	// replays that cell and stops before dispatching the next.
	half := filepath.Join(base, "half")
	if _, err := Run(context.Background(), g, Options{
		Shards: 3, BaseSeed: 7, Dir: half, Partition: Partition{K: 3, N: 4},
	}); err != nil {
		t.Fatal(err)
	}
	cutClaim(t, half, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	replayed := 0
	_, err = Run(ctx, g, Options{
		Shards: 3, BaseSeed: 7, Dir: half, Partition: Partition{K: 3, N: 4}, Resume: true,
		OnRecord: func(Record) { replayed++ },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt err = %v", err)
	}
	if replayed != 1 {
		t.Fatalf("interrupted resume replayed %d cells, want 1", replayed)
	}
	if _, err := Merge(g, []string{dirs[0], dirs[1], half, dirs[3]}, filepath.Join(base, "m5")); err == nil ||
		!strings.Contains(err.Error(), "resumable frontier at cell 7") {
		t.Fatalf("incomplete err = %v", err)
	}
	// A directory without a sweep is not a partition.
	if _, err := Merge(g, []string{filepath.Join(base, "nothing-here")}, filepath.Join(base, "m6")); err == nil ||
		!strings.Contains(err.Error(), "manifest") {
		t.Fatalf("no-manifest err = %v", err)
	}
	// The output directory must be fresh.
	if _, err := Merge(g, dirs, dirs[0]); err == nil ||
		!strings.Contains(err.Error(), "already contains a sweep") {
		t.Fatalf("occupied out err = %v", err)
	}
	// No directories at all.
	if _, err := Merge(g, nil, filepath.Join(base, "m7")); err == nil {
		t.Fatal("empty dir list accepted")
	}
}

// TestMergeCorruptRecordLeavesNoManifest: a partition whose manifest
// claims completion but whose shard data is corrupt fails the merge —
// at the content-hash pre-check for raw byte damage, or during replay
// for a validly framed record sitting in the wrong slot under forged
// hashes — and in both cases the failed merge must NOT leave a
// manifest in the output directory: the manifest is the commit point,
// so a directory that reads as a complete sweep must actually be one.
func TestMergeCorruptRecordLeavesNoManifest(t *testing.T) {
	g := microGrid()
	dirs := runPartitions(t, g, t.TempDir(), 2, 2, 1)
	// Swap partition 2's first record for a validly framed wrong-slot
	// cell, keeping the line count (and so the manifest's frontier)
	// intact. The shard's bytes no longer match its manifest hash, so
	// the merge fails at its content-hash check.
	path := shardPath(dirs[1], 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[0] = string(durable.FramePayload([]byte(`{"cell":0,"seed":1}`)))
	corrupted := strings.Join(lines, "")
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "merged")
	if _, err := Merge(g, dirs, out); err == nil ||
		!errors.Is(err, errkind.Corrupt) || !strings.Contains(err.Error(), "content hash") {
		t.Fatalf("corrupt-record merge err = %v", err)
	}
	if _, err := os.Stat(manifestPath(out)); !os.IsNotExist(err) {
		t.Fatalf("failed merge left a manifest in %s (stat err = %v)", out, err)
	}
	// Forge the partition's manifest hash to match the damaged bytes:
	// the hash pre-check now passes, so the wrong-slot record must be
	// caught by the replay — the last line of defense — and the failed
	// merge must again leave no manifest behind.
	mdata, err := os.ReadFile(manifestPath(dirs[1]))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseManifest(mdata)
	if err != nil {
		t.Fatal(err)
	}
	m.ShardSums[0] = durable.SHA256Hex([]byte(corrupted))
	if err := writeManifest(durable.At(dirs[1]), m); err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(t.TempDir(), "merged2")
	if _, err := Merge(g, dirs, out2); err == nil ||
		!strings.Contains(err.Error(), "holds cell") {
		t.Fatalf("forged-hash merge err = %v", err)
	}
	if _, err := os.Stat(manifestPath(out2)); !os.IsNotExist(err) {
		t.Fatalf("failed merge left a manifest in %s (stat err = %v)", out2, err)
	}
}

// TestMergeRetryNeverDestroysSource: a failed merge leaves assembled
// shard files in the output directory, and one from a build that
// hard-linked single-source merges left links to the source's shard
// files there. A retry must not write through such a link (truncating
// the source partition's own records): every stale name is removed
// before its shard is written.
func TestMergeRetryNeverDestroysSource(t *testing.T) {
	g := microGrid()
	src := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: src}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one record (wrong slot, line count intact) so the merge
	// fails during replay — after the shards are already assembled.
	path := shardPath(src, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[0] = `{"cell":0,"seed":1}` + "\n"
	corrupted := strings.Join(lines, "")
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, src)

	out := filepath.Join(t.TempDir(), "merged")
	if _, err := Merge(g, []string{src}, out); err == nil {
		t.Fatal("corrupt merge succeeded")
	}
	// Leave hard links to the source in out, as such a build's failed
	// merge did. The retry fails the same way — but must leave the
	// source partition byte-identical.
	for s := 0; s < 2; s++ {
		if err := os.Remove(shardPath(out, s)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.Link(shardPath(src, s), shardPath(out, s)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Merge(g, []string{src}, out); err == nil {
		t.Fatal("corrupt merge retry succeeded")
	}
	after := readDir(t, src)
	for name, want := range before {
		if after[name] != want {
			t.Fatalf("merge retry modified source artifact %s", name)
		}
	}
}

// TestPartitionKillResumeMatrix is the satellite acceptance test:
// every partition of a 4-way split is killed at a randomized point,
// resumed to completion, and the merged directory must still be
// byte-identical to an uninterrupted single-process run. Seeded, so
// the kill points are stable across runs.
func TestPartitionKillResumeMatrix(t *testing.T) {
	g := microGrid()
	want := t.TempDir()
	res, err := Run(context.Background(), g, Options{Workers: 4, Shards: 3, BaseSeed: 7, Dir: want})
	if err != nil {
		t.Fatal(err)
	}
	wantSum := res.Agg.Summary()

	rng := rand.New(rand.NewSource(11))
	const parts = 4
	base := t.TempDir()
	dirs := make([]string, parts)
	for k := 1; k <= parts; k++ {
		dirs[k-1] = filepath.Join(base, fmt.Sprintf("part-%d", k))
		// Kill after a random number of records (possibly 0 — the
		// cancel then lands before or during the first cells).
		killAfter := rng.Intn(3)
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		_, err := Run(ctx, g, Options{
			Workers: 2, Shards: 3, BaseSeed: 7, Dir: dirs[k-1],
			Partition: Partition{K: k, N: parts},
			OnRecord: func(Record) {
				seen++
				if seen > killAfter {
					cancel()
				}
			},
		})
		cancel()
		if err == nil {
			// The partition finished before the kill landed — that is
			// a legitimate matrix point (tiny partitions), carry on.
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("partition %d kill: %v", k, err)
		}
		// Resume to completion.
		if _, err := Run(context.Background(), g, Options{
			Workers: 2, Shards: 3, BaseSeed: 7, Dir: dirs[k-1],
			Partition: Partition{K: k, N: parts}, Resume: true,
		}); err != nil {
			t.Fatalf("partition %d resume: %v", k, err)
		}
	}

	out := filepath.Join(base, "merged")
	mres, err := Merge(g, dirs, out)
	if err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, want)
	if mres.Agg.Summary() != wantSum {
		t.Fatal("merged summary diverged after kill+resume matrix")
	}
}

// TestDemoGridPartitionMerge is the acceptance-criterion smoke on the
// demonstration grid: split as -partition 1/4 … 4/4, merged, and
// compared byte for byte against the single-process -workers 4 run.
// By default it runs the same reduced topology-A slice as
// TestDemoGridFull; SWEEP_DEMO_FULL=1 runs all 1,000 cells.
func TestDemoGridPartitionMerge(t *testing.T) {
	g := DemoGrid()
	if os.Getenv("SWEEP_DEMO_FULL") == "" {
		g.Axes[0].Values = g.Axes[0].Values[:1] // topology A only
		g.Axes[4].Values = g.Axes[4].Values[:1] // one replica
		g.Axes[2].Values = g.Axes[2].Values[:5] // half the rate axis
		g.Axes[3].Values = g.Axes[3].Values[:5] // half the dfrac axis
		g.Base.ScaleFactor, g.Base.DurationSec = 0.05, 5
		if g.Cells() != 25 {
			t.Fatalf("sliced demo grid has %d cells", g.Cells())
		}
	}
	want := t.TempDir()
	res, err := Run(context.Background(), g, Options{Workers: 4, Shards: 4, BaseSeed: 1, Dir: want})
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	dirs := make([]string, 4)
	for k := 1; k <= 4; k++ {
		dirs[k-1] = filepath.Join(base, fmt.Sprintf("part-%d", k))
		if _, err := Run(context.Background(), g, Options{
			Workers: 2, Shards: 4, BaseSeed: 1, Dir: dirs[k-1],
			Partition: Partition{K: k, N: 4},
		}); err != nil {
			t.Fatalf("partition %d/4: %v", k, err)
		}
	}
	out := filepath.Join(base, "merged")
	mres, err := Merge(g, dirs, out)
	if err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, want)
	if mres.Agg.Summary() != res.Agg.Summary() {
		t.Fatal("demo-grid merged summary diverged from the single-process run")
	}
}
