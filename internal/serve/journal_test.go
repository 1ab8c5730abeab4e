package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"neutrality/internal/durable"
	"neutrality/internal/measure"
	"neutrality/internal/sweep"
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

// ingestBy feeds recs to s in batches of size, acking each.
func ingestBy(t *testing.T, s *Service, recs []measure.StreamRecord, size int) {
	t.Helper()
	for lo := 0; lo < len(recs); lo += size {
		if _, err := s.Ingest(recs[lo:min(lo+size, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
}

// lineAt returns the bounds [start, end) of line i of data, newline
// included.
func lineAt(t *testing.T, data []byte, i int) (int, int) {
	t.Helper()
	start := 0
	for ; i > 0; i-- {
		nl := bytes.IndexByte(data[start:], '\n')
		if nl < 0 {
			t.Fatalf("image has no line %d", i)
		}
		start += nl + 1
	}
	nl := bytes.IndexByte(data[start:], '\n')
	if nl < 0 {
		t.Fatalf("image line starting at byte %d is unterminated", start)
	}
	return start, start + nl + 1
}

// flipLine returns a copy of data with one payload byte of line i
// flipped, so the line fails its CRC.
func flipLine(t *testing.T, data []byte, i int) []byte {
	t.Helper()
	start, end := lineAt(t, data, i)
	out := bytes.Clone(data)
	out[(start+end)/2] ^= 0x40
	return out
}

// claimAt decodes line i of a claim-log image.
func claimAt(t *testing.T, data []byte, i int) durable.Claim {
	t.Helper()
	start, end := lineAt(t, data, i)
	payload, err := durable.Unframe(data[start : end-1])
	if err != nil {
		t.Fatal(err)
	}
	var c durable.Claim
	if err := json.Unmarshal(payload, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// writeFile replaces path with data.
func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readFile returns the contents of path.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAckedRecordsAreClaimed: every acknowledged journal line sits
// inside the claim. 32-record acks never reach a line cadence, so a
// claim taken only every N lines would leave them unclaimed; here a
// flipped byte in the last acked record — or in the close marker of a
// closed epoch — after a kill is ErrCorrupt on resume, never a torn
// tail silently truncated away.
func TestAckedRecordsAreClaimed(t *testing.T) {
	n, recs := testStream(40, 2, 5)
	recs = recs[:96]
	for _, tc := range []struct {
		name         string
		epochRecords int
		line         int // journal line to damage
		close        int // the close marker that line holds (0 = a record)
	}{
		{"last-acked-record", 1000, 95, 0},
		{"closed-epoch-marker", 64, 64, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Net: n, EpochRecords: tc.epochRecords, Dir: t.TempDir()}
			s := mustNew(t, cfg)
			ingestBy(t, s, recs, 32)
			kill(t, s)

			jpath := journalShardName(cfg.Dir, 0)
			good := readFile(t, jpath)
			start, end := lineAt(t, good, tc.line)
			payload, err := durable.Unframe(good[start : end-1])
			if err != nil {
				t.Fatal(err)
			}
			if e, err := parseEntry(payload); err != nil || e.Close != tc.close {
				t.Fatalf("journal line %d is %s, want close marker %d", tc.line, payload, tc.close)
			}

			cfg.Resume = true
			writeFile(t, jpath, flipLine(t, good, tc.line))
			if s2, err := New(cfg); !errors.Is(err, sweep.ErrCorrupt) {
				if err == nil {
					t.Fatalf("damaged acked line resumed with %d records, want ErrCorrupt", s2.Status().Records)
				}
				t.Fatalf("damaged acked line = %v, want ErrCorrupt", err)
			}
			writeFile(t, jpath, good)
			s3 := mustNew(t, cfg)
			defer s3.Close()
			if got := s3.Status().Records; got != int64(len(recs)) {
				t.Fatalf("intact resume folded %d records, want %d", got, len(recs))
			}
		})
	}
}

// TestClaimLogFallback: a torn or CRC-bad final claim line is a torn
// tail of the claim log — recovery falls back to the previous claim,
// which still protects what it covers, and valid shard lines past it
// are adopted as an unclaimed tail. Resume re-claims them with the very
// line that was damaged.
func TestClaimLogFallback(t *testing.T) {
	n, recs := testStream(40, 2, 5)
	recs = recs[:96]
	cfg := Config{Net: n, EpochRecords: 1000, Dir: t.TempDir()}
	s := mustNew(t, cfg)
	ingestBy(t, s, recs, 32)
	kill(t, s)

	cpath, jpath := filepath.Join(cfg.Dir, durable.ClaimLogName), journalShardName(cfg.Dir, 0)
	claims, shard := readFile(t, cpath), readFile(t, jpath)
	if got := bytes.Count(claims, []byte("\n")); got != 3 {
		t.Fatalf("three acks wrote %d claim lines, want 3", got)
	}
	badLast := flipLine(t, claims, 2)

	cfg.Resume = true
	for _, tc := range []struct {
		name          string
		claims, shard []byte
		records       int64 // -1: ErrCorrupt
	}{
		{"torn-final-claim", append(bytes.Clone(claims), "0badc0de {\"snapshot_ep"...), shard, 96},
		{"crc-bad-final-claim", badLast, shard, 96},
		{"damage-inside-previous-claim", badLast, flipLine(t, shard, 40), -1},
		{"damage-past-previous-claim", badLast, flipLine(t, shard, 80), 80},
		{"claim-past-manifest-snapshot", append(bytes.Clone(claims), durable.FramePayload([]byte(`{"snapshot_epoch":5,"shard_lines":[96],"records":96,"epochs":0}`))...), shard, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			writeFile(t, cpath, tc.claims)
			writeFile(t, jpath, tc.shard)
			s, err := New(cfg)
			if tc.records < 0 {
				if !errors.Is(err, sweep.ErrCorrupt) {
					t.Fatalf("resume = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := s.Status().Records
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got != tc.records {
				t.Fatalf("resume folded %d records, want %d", got, tc.records)
			}
			if tc.records == 96 && !bytes.Equal(readFile(t, cpath), claims) {
				t.Fatalf("claim log after resume:\n%s\nwant:\n%s", readFile(t, cpath), claims)
			}
		})
	}
}

// TestJournalV2Resume: a directory written by a v2 build — serve.json
// at version 2 holding the (lagging) claim, no claim log — resumes to
// byte-identical verdict and summary bytes, adopting the lines past
// that claim as before, and is upgraded to a v3 manifest with the same
// claim before anything is appended.
func TestJournalV2Resume(t *testing.T) {
	n, recs := testStream(50, 2, 3)
	recs = recs[:100]
	cfg := Config{Net: n, NetName: "figure4", EpochRecords: 24, CompactEvery: 3, JournalShards: 2, Dir: t.TempDir()}
	s := mustNew(t, cfg)
	ingestBy(t, s, recs, 10)
	wantVerdict, wantSummary := s.VerdictJSON(), s.SummaryText()
	kill(t, s)

	// Rewrite the directory as the v2 build left it: the base claim is
	// the first claim since the snapshot, and there is no claim log.
	cpath, mpath := filepath.Join(cfg.Dir, durable.ClaimLogName), filepath.Join(cfg.Dir, manifestName)
	c := claimAt(t, readFile(t, cpath), 0)
	var m manifest
	if err := json.Unmarshal(readFile(t, mpath), &m); err != nil {
		t.Fatal(err)
	}
	if m.SnapshotEpoch == 0 || c.SnapshotEpoch != m.SnapshotEpoch || bytes.Count(readFile(t, cpath), []byte("\n")) < 2 {
		t.Fatalf("want a snapshot and a lagging first claim; manifest %+v, first claim %+v", m, c)
	}
	m.Version = manifestV2
	m.ShardLines, m.Records, m.Epochs = c.ShardLines, c.Records, c.Epochs
	v2, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, mpath, append(v2, '\n'))
	if err := os.Remove(cpath); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	s2 := mustNew(t, cfg)
	defer s2.Close()
	if !bytes.Equal(s2.VerdictJSON(), wantVerdict) || s2.SummaryText() != wantSummary {
		t.Fatalf("v2 resume changed the served bytes:\n%s\nvs\n%s", s2.VerdictJSON(), wantVerdict)
	}
	if st := s2.Status(); st.Records != int64(len(recs)) {
		t.Fatalf("v2 resume folded %d records, want %d", st.Records, len(recs))
	}
	var up manifest
	if err := json.Unmarshal(readFile(t, mpath), &up); err != nil {
		t.Fatal(err)
	}
	want := m
	want.Version = manifestVersion
	if fmt.Sprint(up) != fmt.Sprint(want) {
		t.Fatalf("upgraded manifest %+v, want %+v", up, want)
	}
	if r, err := s2.Ingest(recs); err != nil || r.Accepted != 0 {
		t.Fatalf("resend after v2 resume: %+v, %v", r, err)
	}
}

// TestStatusJournalHealth: a durable service reports its snapshot
// epoch and the line count of its current claim in Status and
// /v1/status; an in-memory one reports neither. Reading them changes
// no verdict, summary or snapshot byte.
func TestStatusJournalHealth(t *testing.T) {
	n, recs := testStream(50, 2, 3)
	recs = recs[:100]
	run := func(dir string, poll bool) (*Service, []*JournalStatus) {
		s := mustNew(t, Config{Net: n, EpochRecords: 24, CompactEvery: 2, JournalShards: 2, Dir: dir})
		var seen []*JournalStatus
		for lo := 0; lo < len(recs); lo += 10 {
			if _, err := s.Ingest(recs[lo : lo+10]); err != nil {
				t.Fatal(err)
			}
			if poll {
				seen = append(seen, s.Status().JournalStatus)
				rec := httptest.NewRecorder()
				NewServer(s).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
				var st map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				if st["snapshot_epoch"] == nil || st["journal_lines_since_snapshot"] == nil {
					t.Fatalf("/v1/status of a durable service lacks journal health: %s", rec.Body)
				}
			}
		}
		return s, seen
	}
	quiet, _ := run(t.TempDir(), false)
	polledDir := t.TempDir()
	polled, seen := run(polledDir, true)

	// 10 records per ack, a close (2 markers) every 24, a compaction
	// every second close: the health gauges trace exactly that.
	lines, snap := 0, 0
	for i, h := range seen {
		for r := i*10 + 1; r <= i*10+10; r++ {
			lines++
			if r%24 == 0 {
				lines += 2
				if r%48 == 0 {
					lines, snap = 0, r/24
				}
			}
		}
		if h == nil || h.SnapshotEpoch != snap || h.LinesSinceSnapshot != lines {
			t.Fatalf("after ack %d: journal health %+v, want snapshot %d with %d lines", i, h, snap, lines)
		}
	}
	if snap == 0 {
		t.Fatal("no compaction ran; the test exercises nothing")
	}
	if !bytes.Equal(polled.VerdictJSON(), quiet.VerdictJSON()) || polled.SummaryText() != quiet.SummaryText() {
		t.Fatal("polling journal health changed the served bytes")
	}
	snapName := snapshotFile(snap)
	if !bytes.Equal(readFile(t, filepath.Join(polledDir, snapName)), readFile(t, filepath.Join(quiet.cfg.Dir, snapName))) {
		t.Fatal("polling journal health changed the snapshot bytes")
	}
	for _, s := range []*Service{quiet, polled} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	mem := mustNew(t, Config{Net: n, EpochRecords: 24})
	if _, err := mem.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if st := mem.Status(); st.JournalStatus != nil {
		t.Fatalf("in-memory service reports journal health %+v", st.JournalStatus)
	}
	if data, _ := json.Marshal(mem.Status()); bytes.Contains(data, []byte("snapshot_epoch")) {
		t.Fatalf("in-memory /v1/status carries journal fields: %s", data)
	}
}
