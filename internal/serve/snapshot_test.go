package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neutrality/internal/durable"
	"neutrality/internal/measure"
)

// TestCompactionKillMatrix kills the service at every failpoint a
// compaction reaches — the snapshot write, the manifest commit, each
// shard truncation, the claim-log truncation (after which stale claim
// lines must be ignored), the old-snapshot removal — on both the first
// compaction (no prior snapshot) and the second (a prior snapshot
// exists to clean up). The kill points are not listed by hand: a clean
// run records every durable.Dir failpoint, and a compaction's points
// are the ones from its snapshot write up to the next journal append.
// Resume plus a full sender retry must converge to byte-identical
// verdicts in every cell.
func TestCompactionKillMatrix(t *testing.T) {
	n, recs := testStream(60, 4, 7)
	const epoch = 48

	ref := mustNew(t, Config{Net: n, EpochRecords: epoch})
	if _, err := ref.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	wantVerdict, wantSummary := ref.VerdictJSON(), ref.SummaryText()

	cfg := Config{Net: n, EpochRecords: epoch, JournalShards: 2, CompactEvery: 2}
	// ingest feeds the stream in 64-record batches through a fresh
	// journaled service whose failpoint is fp, stopping at the first
	// error; it returns the service and that error.
	ingest := func(dir string, fp func(op, name string) error) (*Service, error) {
		c := cfg
		c.Dir = dir
		s := mustNew(t, c)
		s.jr.dir.Failpoint = fp
		for lo := 0; lo < len(recs); lo += 64 {
			if _, err := s.Ingest(recs[lo:min(lo+64, len(recs))]); err != nil {
				return s, err
			}
		}
		return s, nil
	}

	// Record the failpoint trace of a clean run and cut it into
	// compactions.
	type point struct{ op, name string }
	var trace []point
	s, err := ingest(t.TempDir(), func(op, name string) error {
		trace = append(trace, point{op, name})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kill(t, s)
	type killPoint struct {
		step       string
		compaction int
		at         int // index into trace
	}
	var matrix []killPoint
	compaction := 0
	for i := 0; i < len(trace); i++ {
		if trace[i].op != "write" || !strings.HasPrefix(trace[i].name, "snapshot-") {
			continue
		}
		compaction++
		for ; i < len(trace) && trace[i].op != "append"; i++ {
			matrix = append(matrix, killPoint{stepName(trace[i].op, trace[i].name), compaction, i})
		}
	}
	steps := map[string]bool{}
	for _, kp := range matrix {
		steps[fmt.Sprintf("%s/compaction-%d", kp.step, kp.compaction)] = true
	}
	for _, want := range []string{
		"snapshot/compaction-1", "manifest/compaction-1", "truncate-0000/compaction-1", "truncate-0001/compaction-1", "truncate-claims/compaction-1",
		"snapshot/compaction-2", "manifest/compaction-2", "truncate-0000/compaction-2", "truncate-0001/compaction-2", "truncate-claims/compaction-2",
		"cleanup/compaction-2",
	} {
		if !steps[want] {
			t.Fatalf("compaction failpoints %v miss kill point %s", matrix, want)
		}
	}

	for _, kp := range matrix {
		if kp.compaction > 2 {
			continue
		}
		t.Run(fmt.Sprintf("%s/compaction-%d", kp.step, kp.compaction), func(t *testing.T) {
			dir := t.TempDir()
			boom := errors.New("killed at " + kp.step)
			calls := 0
			s, ingestErr := ingest(dir, func(op, name string) error {
				calls++
				if calls-1 != kp.at {
					return nil
				}
				if (point{op, name}) != trace[kp.at] {
					t.Errorf("failpoint %d is %s %s, the clean run had %s %s", kp.at, op, name, trace[kp.at].op, trace[kp.at].name)
				}
				return boom
			})
			if !errors.Is(ingestErr, boom) {
				t.Fatalf("failpoint never fired: %v", ingestErr)
			}
			kill(t, s)

			rcfg := cfg
			rcfg.Dir, rcfg.Resume = dir, true
			s2 := mustNew(t, rcfg)
			if _, err := s2.Ingest(recs); err != nil {
				t.Fatal(err)
			}
			if _, err := s2.CloseEpoch(); err != nil {
				t.Fatal(err)
			}
			if got := s2.VerdictJSON(); !bytes.Equal(got, wantVerdict) {
				t.Fatalf("verdict diverged after kill at %s:\ngot  %s\nwant %s", kp.step, got, wantVerdict)
			}
			if got := s2.SummaryText(); got != wantSummary {
				t.Fatalf("summary diverged after kill at %s:\ngot:\n%s\nwant:\n%s", kp.step, got, wantSummary)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			// Recovery must not leave snapshot litter behind: the
			// manifest names at most one trusted snapshot and open
			// removes the orphans.
			snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.json"))
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) > 1 {
				t.Fatalf("recovery left %d snapshots on disk: %v", len(snaps), snaps)
			}
		})
	}
}

// stepName names a compaction failpoint after the step it interrupts.
func stepName(op, name string) string {
	switch {
	case op == "write" && strings.HasPrefix(name, "snapshot-"):
		return "snapshot"
	case op == "write" && name == manifestName:
		return "manifest"
	case op == "truncate":
		return "truncate-" + strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".jsonl")
	case op == "remove":
		return "cleanup"
	}
	return op + "-" + name
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestCompactionBoundsDisk runs many epochs through a compacting
// journal and asserts the directory footprint — shards, claim log and
// snapshot — stays bounded: the whole point of snapshot+truncate.
// Without compaction the journal would grow linearly with the record
// count.
func TestCompactionBoundsDisk(t *testing.T) {
	n, _ := testStream(2, 1, 1)
	dir := t.TempDir()
	cfg := Config{Net: n, EpochRecords: 8, Dir: dir, JournalShards: 2, CompactEvery: 4}
	s := mustNew(t, cfg)
	const epochs = 400
	seq := int64(0)
	var peak int64
	for e := 0; e < epochs; e++ {
		batch := make([]measure.StreamRecord, cfg.EpochRecords)
		for i := range batch {
			seq++
			batch[i] = measure.StreamRecord{
				Source: "vp", Seq: seq,
				Interval: i % 4, Path: 0, Sent: 100, Lost: i % 3,
			}
		}
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if size := dirSize(t, dir); size > peak {
			peak = size
		}
	}
	if _, err := os.Stat(filepath.Join(dir, durable.ClaimLogName)); err != nil {
		t.Fatalf("the footprint must include the claim log: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// 3200 records at ~120 framed bytes a line would be ~380 KB of
	// journal alone; the compacted directory must stay far below that.
	// The steady-state footprint is the snapshot (dominated by the
	// capped summary window) plus at most CompactEvery epochs of lines.
	const bound = 192 << 10
	if peak > bound {
		t.Fatalf("journal directory peaked at %d bytes over %d epochs; compaction is not bounding disk (limit %d)",
			peak, epochs, bound)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("steady state should hold exactly one snapshot, found %v", snaps)
	}
}

// TestCompactionKeepsUnshippedReports: a leaf whose root is unreachable
// accumulates closed-epoch reports in its outbox while compaction
// truncates the journal lines those epochs were folded from. The
// snapshot must carry the outbox, so a restart still holds every
// unshipped report — otherwise the root's gap check would refuse the
// leaf's next epoch forever and wedge the tree.
func TestCompactionKeepsUnshippedReports(t *testing.T) {
	n, recs := testStream(60, 4, 7)
	dir := t.TempDir()
	cfg := Config{
		Net: n, EpochRecords: 48, Dir: dir,
		Leaf: "east", JournalShards: 2, CompactEvery: 2,
	}
	s := mustNew(t, cfg)
	for lo := 0; lo < len(recs); lo += 64 {
		hi := lo + 64
		if hi > len(recs) {
			hi = len(recs)
		}
		if _, err := s.Ingest(recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	want := s.Reports()
	wantVerdict := s.VerdictJSON()
	if len(want) == 0 {
		t.Fatal("stream too short to close any epoch")
	}
	kill(t, s)

	rcfg := cfg
	rcfg.Resume = true
	s2 := mustNew(t, rcfg)
	defer s2.Close()
	if s2.jr.logs.Gen() == 0 {
		t.Fatal("no compaction ran; the test exercises nothing")
	}
	got := s2.Reports()
	if len(got) != len(want) {
		t.Fatalf("resume restored %d unshipped reports, want %d", len(got), len(want))
	}
	for i := range got {
		gb, _ := json.Marshal(got[i])
		wb, _ := json.Marshal(want[i])
		if !bytes.Equal(gb, wb) {
			t.Fatalf("restored report %d diverged:\ngot  %s\nwant %s", i, gb, wb)
		}
	}
	if got[0].Epoch != 1 {
		t.Fatalf("restored outbox starts at epoch %d, want 1 (snapshot-covered epochs lost)", got[0].Epoch)
	}

	// The restored outbox must satisfy a fresh root end to end: no gap
	// refusals, and the tree verdict matches the leaf's own.
	root, err := NewRoot(RootConfig{Net: n, Leaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range got {
		if _, err := root.Deliver(rep); err != nil {
			t.Fatalf("deliver restored epoch %d: %v", rep.Epoch, err)
		}
	}
	if gv := root.VerdictJSON(); !bytes.Equal(gv, wantVerdict) {
		t.Fatalf("tree verdict from restored reports diverged:\ngot  %s\nwant %s", gv, wantVerdict)
	}
}
