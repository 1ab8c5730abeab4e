package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neutrality/internal/errkind"
	"neutrality/internal/grid"
	"neutrality/internal/measure"
)

// frameHeader is the durable line frame's header length: 8 hex digits
// and a space precede every payload.
const frameHeader = 9

// runMicro runs a complete 12-cell sweep into a fresh directory and
// returns it together with its byte image.
func runMicro(t *testing.T, shards int) (string, map[string]string) {
	t.Helper()
	g := microGrid()
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Workers: 2, Shards: shards, BaseSeed: 7, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	return dir, readDir(t, dir)
}

// TestManifestVersionGate: manifests from a future major version are
// refused with errkind.Validation naming the versions; pre-framing (v1)
// manifests are refused too — their shard files cannot carry v2's
// per-record CRCs.
func TestManifestVersionGate(t *testing.T) {
	dir, _ := runMicro(t, 2)
	mdata, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	future := strings.Replace(string(mdata), `"version": 2`, `"version": 3`, 1)
	if future == string(mdata) {
		t.Fatal("manifest does not carry a version field to rewrite")
	}
	if _, err := parseManifest([]byte(future)); err == nil ||
		!errors.Is(err, errkind.Validation) || !strings.Contains(err.Error(), "newer than this build") {
		t.Fatalf("future-version manifest err = %v", err)
	}
	legacy := strings.Replace(string(mdata), `"version": 2`, `"version": 1`, 1)
	if _, err := parseManifest([]byte(legacy)); err == nil ||
		!errors.Is(err, errkind.Validation) || !strings.Contains(err.Error(), "predates") {
		t.Fatalf("legacy-version manifest err = %v", err)
	}
}

// TestOtherDrawRefused: a directory whose manifest names no Algorithm 2
// draw — what the sequential sampler's builds wrote — or another draw
// is refused with an errkind.Validation naming the draw by resume,
// Resumable, Replay, merge and repair, so no artifact mixes records of
// two estimators. Verify, which only reads, still checks it.
func TestOtherDrawRefused(t *testing.T) {
	g := microGrid()
	for _, draw := range []string{"", "some-other-draw"} {
		dir, _ := runMicro(t, 2)
		mdata, err := os.ReadFile(manifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		stamp := fmt.Sprintf("%q: %q", "draw", measure.DrawScheme)
		old := strings.Replace(string(mdata), stamp, fmt.Sprintf("%q: %q", "draw", draw), 1)
		if old == string(mdata) {
			t.Fatalf("manifest carries no %s", stamp)
		}
		if err := os.WriteFile(manifestPath(dir), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		field := fmt.Sprintf("Algorithm 2 draw is %q on disk, %q in this build", draw, measure.DrawScheme)
		_, err = Run(context.Background(), g, Options{Workers: 2, Shards: 2, BaseSeed: 7, Dir: dir, Resume: true})
		assertRefused(t, "resume", err, field)
		id := Identity{Shards: 2, BaseSeed: 7, Range: g.FullRange()}
		_, err = Resumable(g, dir, id)
		assertRefused(t, "resumable", err, field)
		_, err = Replay(g, dir, id)
		assertRefused(t, "replay", err, field)
		_, err = Merge(g, []string{dir}, t.TempDir())
		assertRefused(t, "merge", err, field)
		_, err = Repair(context.Background(), g, dir, RepairOptions{})
		assertRefused(t, "repair", err, field)
		rep, err := Verify(g, dir)
		if err != nil {
			t.Fatalf("draw %q: verify = %v, want a clean read", draw, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("draw %q: verify report = %v, want clean", draw, err)
		}
	}
}

// TestManifestUnknownFieldTolerance: within a major version, fields
// this build does not know about are tolerated — a newer minor writer
// can add fields without breaking older readers.
func TestManifestUnknownFieldTolerance(t *testing.T) {
	dir, _ := runMicro(t, 2)
	mdata, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	extended := strings.Replace(string(mdata), `"version": 2,`,
		`"version": 2, "a_future_minor_field": {"nested": [1,2,3]},`, 1)
	m, err := parseManifest([]byte(extended))
	if err != nil {
		t.Fatalf("unknown-field manifest rejected: %v", err)
	}
	if m.Version != manifestVersion || m.Completed != 12 {
		t.Fatalf("manifest with unknown field parsed wrong: %+v", m)
	}
}

// TestVerifyCleanDirectory: a freshly completed sweep verifies clean —
// every shard's hash matches, nothing quarantined, Err() nil.
func TestVerifyCleanDirectory(t *testing.T) {
	g := microGrid()
	dir, _ := runMicro(t, 3)
	rep, err := Verify(g, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.Err() != nil || len(rep.Quarantine) != 0 {
		t.Fatalf("clean directory reported dirty: %+v (err %v)", rep, rep.Err())
	}
	for _, s := range rep.Shards {
		if !s.HashOK || s.Missing || s.Records != 4 || s.TailBytes != 0 {
			t.Fatalf("shard status: %+v", s)
		}
	}
	if rep.Info == nil || rep.Info.Completed != 12 {
		t.Fatalf("report manifest info: %+v", rep.Info)
	}
}

// TestVerifyDetectsDamage: a flipped byte is localized to its record's
// cell, a deleted shard quarantines all its cells, and Err() carries
// errkind.Corrupt so the CLI maps it to the validation exit code.
func TestVerifyDetectsDamage(t *testing.T) {
	g := microGrid()
	dir, _ := runMicro(t, 3)
	// Flip one byte mid-payload of shard 1's second record.
	path := shardPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	corrupt := []byte(lines[1])
	corrupt[len(corrupt)/2] ^= 0x20
	lines[1] = string(corrupt)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	// Delete shard 2 outright.
	if err := os.Remove(shardPath(dir, 2)); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(g, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Fatal("damaged directory verified clean")
	}
	if !errors.Is(rep.Err(), errkind.Corrupt) || !errors.Is(rep.Err(), errkind.Validation) {
		t.Fatalf("report err = %v", rep.Err())
	}
	// Shard 1 slot 1 is cell 1*3+1 = 4; shard 2 held cells 2,5,8,11.
	if fmt.Sprint(rep.Quarantine) != "[2 4 5 8 11]" {
		t.Fatalf("quarantine = %v", rep.Quarantine)
	}
	if !rep.Shards[0].HashOK || rep.Shards[0].Records != 4 {
		t.Fatalf("undamaged shard 0 flagged: %+v", rep.Shards[0])
	}
	if rep.Shards[1].HashOK || fmt.Sprint(rep.Shards[1].Quarantine) != "[4]" {
		t.Fatalf("shard 1 status: %+v", rep.Shards[1])
	}
	if !rep.Shards[2].Missing || len(rep.Shards[2].Quarantine) != 4 {
		t.Fatalf("shard 2 status: %+v", rep.Shards[2])
	}
	// Verify never mutates: the damage is still on disk.
	if _, err := os.Stat(shardPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatal("verify resurrected the deleted shard")
	}
}

// TestVerifyRepairByteIdentity is the acceptance criterion: arbitrary
// seeded byte-flips across a completed sweep directory's shards, then
// Repair, must restore byte-identity with the pristine run.
func TestVerifyRepairByteIdentity(t *testing.T) {
	g := microGrid()
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		dir, pristine := runMicro(t, 3)
		// Flip 1..6 random bytes across random shards; occasionally
		// delete a whole shard instead.
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			s := rng.Intn(3)
			path := shardPath(dir, s)
			if rng.Intn(8) == 0 {
				os.Remove(path)
				continue
			}
			data, err := os.ReadFile(path)
			if err != nil || len(data) == 0 {
				continue // already deleted this trial
			}
			data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := Repair(context.Background(), g, dir, RepairOptions{Workers: 2})
		if err != nil {
			t.Fatalf("trial %d: repair: %v", trial, err)
		}
		got := readDir(t, dir)
		for name, want := range pristine {
			if got[name] != want {
				t.Fatalf("trial %d: %s differs after repair (repaired cells %v)", trial, name, rep.Repaired)
			}
		}
		if len(got) != len(pristine) {
			t.Fatalf("trial %d: artifact sets differ after repair", trial)
		}
		// And the repaired directory verifies clean.
		vrep, err := Verify(g, dir)
		if err != nil || !vrep.Clean {
			t.Fatalf("trial %d: post-repair verify: clean=%v err=%v", trial, vrep.Clean, err)
		}
	}
}

// TestRepairLocalized: repair re-derives exactly the damaged cells —
// corruption in one record never forces neighbours to re-run.
func TestRepairLocalized(t *testing.T) {
	g := microGrid()
	dir, pristine := runMicro(t, 3)
	path := shardPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	b := []byte(lines[2])
	b[frameHeader+2] ^= 0x08 // damage slot 2's payload => cell 6
	lines[2] = string(b)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Repair(context.Background(), g, dir, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.Repaired) != "[6]" {
		t.Fatalf("repaired cells %v, want exactly [6]", rep.Repaired)
	}
	got := readDir(t, dir)
	for name, want := range pristine {
		if got[name] != want {
			t.Fatalf("%s differs after localized repair", name)
		}
	}
}

// TestRepairRebuildsDestroyedManifest: with the manifest itself gone,
// Repair refuses without an expected identity, and with one rebuilds
// the directory byte-identically.
func TestRepairRebuildsDestroyedManifest(t *testing.T) {
	g := microGrid()
	dir, pristine := runMicro(t, 3)
	if err := os.Remove(manifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := Repair(context.Background(), g, dir, RepairOptions{}); err == nil ||
		!errors.Is(err, errkind.Corrupt) || !strings.Contains(err.Error(), "no valid manifest") {
		t.Fatalf("manifest-less repair err = %v", err)
	}
	rep, err := Repair(context.Background(), g, dir, RepairOptions{
		Expect: &ManifestInfo{Shards: 3, BaseSeed: 7, Completed: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ManifestRebuilt || rep.Completed != 12 {
		t.Fatalf("rebuild report: %+v", rep)
	}
	got := readDir(t, dir)
	for name, want := range pristine {
		if got[name] != want {
			t.Fatalf("%s differs after manifest rebuild", name)
		}
	}
	// A lying Expect (wrong seed) is caught: every record fails its
	// seed check, so the whole claim re-derives — against the WRONG
	// seeds, yielding a consistent-but-different directory. The
	// fingerprint is the identity guard here; the seed is the caller's
	// assertion. Verify that at least the repair is internally
	// consistent.
	if err := os.Remove(manifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	rep, err = Repair(context.Background(), g, dir, RepairOptions{
		Expect: &ManifestInfo{Shards: 3, BaseSeed: 8, Completed: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repaired) != 12 {
		t.Fatalf("wrong-seed rebuild repaired %d cells, want all 12", len(rep.Repaired))
	}
	vrep, err := Verify(g, dir)
	if err != nil || !vrep.Clean {
		t.Fatalf("wrong-seed rebuild not internally consistent: clean=%v err=%v", vrep.Clean, err)
	}
}

// TestRepairPartitionDirectory: partition directories repair too — the
// rebuilt records carry the partition's global cell indices, and the
// repaired partition still merges byte-identically.
func TestRepairPartitionDirectory(t *testing.T) {
	g := microGrid()
	want := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 3, BaseSeed: 7, Dir: want}); err != nil {
		t.Fatal(err)
	}
	dirs := runPartitions(t, g, t.TempDir(), 4, 3, 1)
	// Damage partition 3 (covers cells [6,9)): flip a byte in each shard.
	for s := 0; s < 3; s++ {
		path := shardPath(dirs[2], s)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Repair(context.Background(), g, dirs[2], RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Repaired {
		if c < 6 || c >= 9 {
			t.Fatalf("repair of partition [6,9) re-derived out-of-range cell %d", c)
		}
	}
	out := filepath.Join(t.TempDir(), "merged")
	if _, err := Merge(g, dirs, out); err != nil {
		t.Fatal(err)
	}
	assertDirsEqual(t, out, want)
}

// TestMergeRefusesCorruptionThenAcceptsRepair: the merge-side guard —
// a corrupt partition fails Merge with errkind.Corrupt, and after Repair
// the identical Merge call succeeds byte-identically.
func TestMergeRefusesCorruptionThenAcceptsRepair(t *testing.T) {
	g := microGrid()
	want := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: want}); err != nil {
		t.Fatal(err)
	}
	dirs := runPartitions(t, g, t.TempDir(), 2, 2, 1)
	path := shardPath(dirs[0], 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "merged")
	if _, err := Merge(g, dirs, out); !errors.Is(err, errkind.Corrupt) {
		t.Fatalf("corrupt-partition merge err = %v", err)
	}
	if _, err := Repair(context.Background(), g, dirs[0], RepairOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(g, dirs, out); err != nil {
		t.Fatalf("post-repair merge: %v", err)
	}
	assertDirsEqual(t, out, want)
}

// TestRepairIncompleteDirectory: repairing an interrupted sweep fixes
// its claimed prefix only; Run -resume then completes it and the final
// artifacts are byte-identical to an uninterrupted run.
func TestRepairIncompleteDirectory(t *testing.T) {
	g := microGrid()
	want := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 3, BaseSeed: 7, Dir: want}); err != nil {
		t.Fatal(err)
	}
	// The interrupt is built deterministically: a finished sweep cut
	// back to a 6-cell frontier (see cutClaim), as a kill right after
	// that checkpoint leaves it.
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 3, BaseSeed: 7, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	cutClaim(t, dir, 6)
	frontier, err := Resumable(g, dir, Identity{Shards: 3, BaseSeed: 7, Range: g.FullRange()})
	if err != nil {
		t.Fatal(err)
	}
	// Damage a record inside the claimed prefix.
	path := shardPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+1] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Repair(context.Background(), g, dir, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != frontier {
		t.Fatalf("repair moved the frontier: %d -> %d", frontier, rep.Completed)
	}
	if fmt.Sprint(rep.Repaired) != "[0]" {
		t.Fatalf("repaired %v, want [0]", rep.Repaired)
	}
	if _, err := Run(context.Background(), g, Options{Shards: 3, BaseSeed: 7, Dir: dir, Resume: true}); err != nil {
		t.Fatal(err)
	}
	got, ref := readDir(t, dir), readDir(t, want)
	for name, data := range ref {
		if got[name] != data {
			t.Fatalf("%s differs after repair+resume", name)
		}
	}
}

// TestVerifyWrongGrid: a directory recorded for another spec is an
// errkind.Validation (not corruption) for both Verify and Repair.
func TestVerifyWrongGrid(t *testing.T) {
	dir, _ := runMicro(t, 2)
	g2 := microGrid()
	g2.Base.DurationSec++
	for what, op := range map[string]func() error{
		"verify": func() error { _, err := Verify(g2, dir); return err },
		"repair": func() error { _, err := Repair(context.Background(), g2, dir, RepairOptions{}); return err },
	} {
		err := op()
		assertRefused(t, what, err, "fingerprint")
		if errors.Is(err, errkind.Corrupt) {
			t.Fatalf("%s: another spec's directory read as corrupt: %v", what, err)
		}
	}
}

// TestVerifyMissingManifest: no manifest means no identity — Verify
// fails with errkind.Corrupt pointing at Repair's Expect escape hatch.
func TestVerifyMissingManifest(t *testing.T) {
	g := microGrid()
	dir := t.TempDir()
	if _, err := Verify(g, dir); err == nil || !errors.Is(err, errkind.Corrupt) {
		t.Fatalf("empty-dir verify err = %v", err)
	}
}

// TestRepairExpectValidation: malformed expected identities are
// rejected before any disk writes.
func TestRepairExpectValidation(t *testing.T) {
	g := microGrid()
	for _, e := range []*ManifestInfo{
		{Shards: 0, Completed: 0},
		{Shards: 5000, Completed: 0},
		{Shards: 3, Completed: 99},
		{Shards: 3, Completed: -1},
		{Shards: 3, Range: grid.Range{Lo: 1, Hi: 7}},
		{Shards: 3, Range: grid.Range{Lo: 3, Hi: 6}},
	} {
		dir := t.TempDir()
		if _, err := Repair(context.Background(), g, dir, RepairOptions{Expect: e}); err == nil ||
			!errors.Is(err, errkind.Validation) {
			t.Fatalf("expect %+v: err = %v", e, err)
		}
	}
}
