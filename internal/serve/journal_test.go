package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"neutrality/internal/durable"
)

// journalShardName is the path of journal shard s in dir.
func journalShardName(dir string, s int) string { return filepath.Join(dir, shardFile(s)) }

// refJournalLine is the reference journal writer: json.Marshal of the
// entry, framed with fmt as the v2 frame spec reads (FORMAT.md) —
// crc32c as 8 lowercase hex digits, a space, the payload, a newline.
// The service's hand encoder must write exactly these bytes.
func refJournalLine(t *testing.T, e journalEntry) []byte {
	t.Helper()
	payload, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Appendf(nil, "%08x %s\n", crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)), payload)
	if got := durable.FramePayload(payload); !bytes.Equal(got, line) {
		t.Fatalf("durable.FramePayload(%s) = %q, want %q", payload, got, line)
	}
	return line
}

// TestJournalByteIdentity: a durable 4-shard service, fed sources that
// need JSON escaping alongside plain ones, writes every journal line
// byte-identical to the reference writer across several epoch closes
// and a compaction, and a resume replays it to the same verdict and
// summary bytes.
func TestJournalByteIdentity(t *testing.T) {
	const shards, epochRecords, compactEvery = 4, 45, 2
	n, recs := testStream(60, 6, 11)
	// Plain names take the codec's fast path; the rest fall back to
	// encoding/json's escaping (HTML-safe <>&, quotes, U+2028, non-ASCII).
	names := map[string]string{
		"vp-a": "vp-a",
		"vp-b": "vp <b",
		"vp-c": "vp>c&",
		"vp-d": `vp"d\`,
		"vp-e": "vp-é",
		"vp-f": "vp\u2028f",
	}
	for i := range recs {
		recs[i].Source = names[recs[i].Source]
	}
	for _, name := range names {
		h := fnv.New32a()
		h.Write([]byte(name))
		if got, want := shardOf(name, shards), int(h.Sum32()%shards); got != want {
			t.Fatalf("shardOf(%q) = %d, FNV-1a gives %d", name, got, want)
		}
	}

	dir := t.TempDir()
	cfg := Config{Net: n, NetName: "figure4", EpochRecords: epochRecords, JournalShards: shards, CompactEvery: compactEvery, Dir: dir}
	s := mustNew(t, cfg)

	// Model of the shard files since the last compaction, built by the
	// reference writer: a record goes to its source's shard, a close
	// marker to every shard, and a compaction truncates them all.
	want := make([][]byte, shards)
	accepted, epochs, compactions := 0, 0, 0
	for lo := 0; lo < len(recs); lo += 37 {
		batch := recs[lo:min(lo+37, len(recs))]
		if _, err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			s := shardOf(batch[i].Source, shards)
			want[s] = append(want[s], refJournalLine(t, journalEntry{Rec: &batch[i]})...)
			if accepted++; accepted%epochRecords != 0 {
				continue
			}
			epochs++
			for s := range want {
				want[s] = append(want[s], refJournalLine(t, journalEntry{Close: epochs})...)
			}
			if epochs%compactEvery == 0 {
				compactions++
				for s := range want {
					want[s] = want[s][:0]
				}
			}
		}
		for sh := 0; sh < shards; sh++ {
			got, err := os.ReadFile(journalShardName(dir, sh))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[sh]) {
				t.Fatalf("after %d records, shard %d:\n%s\nwant (reference writer):\n%s", accepted, sh, got, want[sh])
			}
		}
	}
	if epochs < 2*compactEvery || compactions == 0 || accepted%epochRecords == 0 {
		t.Fatalf("stream covers %d epochs, %d compactions, %d records: want closes on both sides of a compaction and an open epoch", epochs, compactions, accepted)
	}

	wantVerdict, wantSummary := s.VerdictJSON(), s.SummaryText()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	s2 := mustNew(t, cfg)
	defer s2.Close()
	if !bytes.Equal(s2.VerdictJSON(), wantVerdict) || s2.SummaryText() != wantSummary {
		t.Fatalf("resume changed the served bytes:\n%s\nvs\n%s", s2.VerdictJSON(), wantVerdict)
	}
	if st := s2.Status(); st.Records != int64(accepted) || st.Epochs != epochs {
		t.Fatalf("resumed status %+v, want %d records over %d epochs", st, accepted, epochs)
	}
}
