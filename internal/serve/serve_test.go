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
	"time"

	"neutrality/internal/durable"
	"neutrality/internal/errkind"
	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/synth"
	"neutrality/internal/topo"
)

// testStream synthesizes a measurement run over topo.Figure4 (with the
// narrative's l1 violation) and flattens it into stream records in
// canonical (interval, path) order, dealt round-robin across `sources`
// vantage points with per-source sequence numbers in delivery order —
// the shape a real at-least-once transport produces.
func testStream(intervals, sources int, seed int64) (*graph.Network, []measure.StreamRecord) {
	n := topo.Figure4()
	perf := graph.NewPerf(n.NumLinks(), n.NumClasses())
	for i := 0; i < n.NumLinks(); i++ {
		perf.SetNeutral(graph.LinkID(i), 0.02)
	}
	l1, _ := n.LinkByName("l1")
	perf.Set(l1.ID, topo.C1, 0.05)
	perf.Set(l1.ID, topo.C2, 0.7)
	states := synth.NewSampler(n, perf, seed).SampleIntervals(intervals)
	meas := synth.ToMeasurements(states, synth.DefaultMeasurementOptions())

	var recs []measure.StreamRecord
	next := make([]int64, sources)
	i := 0
	for t := 0; t < meas.Intervals(); t++ {
		for p := 0; p < meas.NumPaths(); p++ {
			src := i % sources
			next[src]++
			recs = append(recs, measure.StreamRecord{
				Source:   "vp-" + string(rune('a'+src)),
				Seq:      next[src],
				Interval: t,
				Path:     p,
				Sent:     meas.Sent[t][p],
				Lost:     meas.Lost[t][p],
			})
			i++
		}
	}
	return n, recs
}

func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIngestDedup: re-sending a fully acknowledged batch applies
// nothing — at-least-once delivery is idempotent.
func TestIngestDedup(t *testing.T) {
	n, recs := testStream(10, 3, 1)
	s := mustNew(t, Config{Net: n, EpochRecords: 16})
	r1, err := s.Ingest(recs)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Accepted != len(recs) || r1.Duplicates != 0 {
		t.Fatalf("first ingest: %+v", r1)
	}
	r2, err := s.Ingest(recs)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Accepted != 0 || r2.Duplicates != len(recs) {
		t.Fatalf("replayed ingest: %+v", r2)
	}
	if st := s.Status(); st.Records != int64(len(recs)) || st.Duplicates != int64(len(recs)) {
		t.Fatalf("status after replay: %+v", st)
	}
}

// TestIngestValidationAtomic: a batch containing any invalid record is
// rejected whole — nothing is applied, and the error carries the
// measure validation taxonomy the HTTP 400 / exit-3 mapping keys on.
func TestIngestValidationAtomic(t *testing.T) {
	n, recs := testStream(4, 2, 1)
	s := mustNew(t, Config{Net: n, EpochRecords: 8})
	bad := append(append([]measure.StreamRecord(nil), recs[:4]...), measure.StreamRecord{
		Source: "vp-x", Seq: 1, Interval: 0, Path: n.NumPaths(), Sent: 5,
	})
	if _, err := s.Ingest(bad); !errors.Is(err, errkind.Validation) {
		t.Fatalf("Ingest = %v, want errkind.Validation", err)
	}
	if st := s.Status(); st.Records != 0 || st.RejectsValidation != 1 {
		t.Fatalf("invalid batch left state behind: %+v", st)
	}
}

// TestBackpressure: a full open-epoch buffer answers ErrBusy, keeps
// the records accepted so far, and a full retry after the epoch drains
// goes through cleanly (duplicates dropped).
func TestBackpressure(t *testing.T) {
	n, recs := testStream(4, 2, 1)
	s := mustNew(t, Config{Net: n, EpochRecords: 0, MaxPending: 4})
	res, err := s.Ingest(recs[:10])
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("Ingest over capacity = %v, want ErrBusy", err)
	}
	if res.Accepted != 4 {
		t.Fatalf("accepted %d before backpressure, want 4", res.Accepted)
	}
	if closed, err := s.CloseEpoch(); err != nil || !closed {
		t.Fatalf("CloseEpoch = %v, %v", closed, err)
	}
	res, err = s.Ingest(recs[:10])
	if !errors.Is(err, ErrBusy) || res.Accepted != 4 || res.Duplicates != 4 {
		t.Fatalf("retry: %+v, %v (want 4 accepted, 4 duplicates, busy again)", res, err)
	}
	if st := s.Status(); st.RejectsBusy != 2 || st.Records != 8 {
		t.Fatalf("status: %+v", st)
	}
}

// TestEpochBoundaries: count-based closes fire inline at exact record
// counts, independent of batch chunking, and CloseEpoch flushes a
// partial epoch (but not an empty one).
func TestEpochBoundaries(t *testing.T) {
	n, recs := testStream(20, 3, 1)
	s := mustNew(t, Config{Net: n, EpochRecords: 32})
	for i := 0; i < 70; i += 7 { // deliberately misaligned chunks
		end := i + 7
		if end > 70 {
			end = 70
		}
		if _, err := s.Ingest(recs[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Status(); st.Epochs != 2 || st.Pending != 70-64 {
		t.Fatalf("after 70 records at epoch=32: %+v", st)
	}
	if closed, err := s.CloseEpoch(); err != nil || !closed {
		t.Fatalf("CloseEpoch = %v, %v", closed, err)
	}
	if closed, err := s.CloseEpoch(); err != nil || closed {
		t.Fatalf("empty CloseEpoch = %v, %v (want no-op)", closed, err)
	}
	if st := s.Status(); st.Epochs != 3 || st.Pending != 0 {
		t.Fatalf("after flush: %+v", st)
	}
}

// TestVerdictMatchesBatchInference: after all records are folded, the
// service's verdict is exactly the batch inference over the same
// table — same network flag, same per-slice unsolvability bits.
func TestVerdictMatchesBatchInference(t *testing.T) {
	n, recs := testStream(2000, 3, 11)
	s := mustNew(t, Config{Net: n, EpochRecords: len(recs)})
	if _, err := s.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	ev := decodeVerdict(t, s.VerdictJSON())
	if ev.Epoch != 1 || ev.Records != int64(len(recs)) {
		t.Fatalf("verdict header: %+v", ev)
	}
	if !ev.NonNeutral {
		t.Fatalf("streamed l1 violation not detected: %+v", ev)
	}

	res := batchInfer(t, s)
	if res.NetworkNonNeutral() != ev.NonNeutral {
		t.Fatalf("network verdict: batch %v, streaming %v", res.NetworkNonNeutral(), ev.NonNeutral)
	}
	if len(res.Candidates) != len(ev.Slices) {
		t.Fatalf("%d batch candidates vs %d streamed slices", len(res.Candidates), len(ev.Slices))
	}
	for i, v := range res.Candidates {
		sv := ev.Slices[i]
		if sv.Seq != v.SeqNames() || sv.Unsolvability != v.Unsolvability || sv.NonNeutral != v.NonNeutral {
			t.Fatalf("slice %d: batch %+v vs streamed %+v", i, v, sv)
		}
	}
}

// TestJournalResume: a journaled service reopened with Resume serves
// byte-identical verdict and summary; reopening without Resume is
// refused as a validation error, and a config identity change is too.
func TestJournalResume(t *testing.T) {
	n, recs := testStream(40, 3, 5)
	dir := t.TempDir()
	s := mustNew(t, Config{Net: n, NetName: "figure4", EpochRecords: 64, Dir: dir})
	if _, err := s.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	wantVerdict := s.VerdictJSON()
	wantSummary := s.SummaryText()
	wantStatus := s.Status()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := New(Config{Net: n, NetName: "figure4", EpochRecords: 64, Dir: dir}); !errors.Is(err, errkind.Validation) {
		t.Fatalf("adopting without resume = %v, want errkind.Validation", err)
	}
	if _, err := New(Config{Net: n, NetName: "figure4", EpochRecords: 32, Dir: dir, Resume: true}); !errors.Is(err, errkind.Validation) {
		t.Fatalf("resume with changed epoch size = %v, want errkind.Validation", err)
	}
	if _, err := New(Config{Net: n, NetName: "", EpochRecords: 64, Dir: dir, Resume: true}); !errors.Is(err, errkind.Validation) {
		t.Fatalf("resume with no net name = %v, want errkind.Validation", err)
	}

	s2 := mustNew(t, Config{Net: n, NetName: "figure4", EpochRecords: 64, Dir: dir, Resume: true})
	defer s2.Close()
	if !bytes.Equal(s2.VerdictJSON(), wantVerdict) {
		t.Fatalf("verdict changed across restart:\n%s\nvs\n%s", wantVerdict, s2.VerdictJSON())
	}
	if s2.SummaryText() != wantSummary {
		t.Fatalf("summary changed across restart:\n%s\nvs\n%s", wantSummary, s2.SummaryText())
	}
	if st := s2.Status(); st.Records != wantStatus.Records || st.Epochs != wantStatus.Epochs || st.Pending != wantStatus.Pending {
		t.Fatalf("replayed state %+v, want %+v", st, wantStatus)
	}
	// The replayed service keeps ingesting where the old one stopped.
	r, err := s2.Ingest(recs) // full resend: all duplicates
	if err != nil || r.Accepted != 0 || r.Duplicates != len(recs) {
		t.Fatalf("resend after resume: %+v, %v", r, err)
	}
}

// TestIdentityMismatchNamesFields: a journal or root log resumed
// under a different identity is refused, and the message names each
// differing field with its value on disk and in the config — the
// smoothing parameter too, which changes no other identity field.
func TestIdentityMismatchNamesFields(t *testing.T) {
	n, recs := testStream(20, 2, 5)
	opts := measure.DefaultOptions()
	cfg := Config{Net: n, NetName: "figure4", Opts: opts, EpochRecords: 32, Dir: t.TempDir()}
	s := mustNew(t, cfg)
	if _, err := s.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rcfg := RootConfig{Net: n, NetName: "figure4", Opts: opts, Leaves: 1, Dir: t.TempDir()}
	r, err := NewRoot(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	opts.Smoothing += 0.5
	want := fmt.Sprintf("smoothing is %v on disk, %v in the config", measure.DefaultOptions().Smoothing, opts.Smoothing)
	cfg.Opts, cfg.Resume = opts, true
	rcfg.Opts, rcfg.Resume = opts, true
	_, leafErr := New(cfg)
	_, rootErr := NewRoot(rcfg)
	for what, err := range map[string]error{"journal": leafErr, "root log": rootErr} {
		if !errors.Is(err, errkind.Validation) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s resume with smoothing %v = %v, want errkind.Validation naming %q", what, opts.Smoothing, err, want)
		}
	}
}

// TestJournalRefusesOtherDraw: a journal written by a build whose
// Algorithm 2 draw differs — the sequential sampler's manifests carry
// no draw at all — is refused on resume as a validation error, since
// its snapshots hold verdict bytes of the other estimator.
func TestJournalRefusesOtherDraw(t *testing.T) {
	n, recs := testStream(40, 3, 5)
	dir := t.TempDir()
	cfg := Config{Net: n, NetName: "figure4", EpochRecords: 64, Dir: dir}
	s := mustNew(t, cfg)
	if _, err := s.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["draw"] != measure.DrawScheme {
		t.Fatalf("manifest draw = %v, want %q", m["draw"], measure.DrawScheme)
	}
	delete(m, "draw")
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	if _, err := New(cfg); !errors.Is(err, errkind.Validation) {
		t.Fatalf("resume of a journal without a draw = %v, want errkind.Validation", err)
	}
}

// TestInvalidUTF8SourceRefused: a source name that is not valid UTF-8
// would be journaled as U+FFFD and fail the replay's canonical check,
// leaving the service unable to restart. Ingest refuses it as a
// validation error before anything is applied or journaled, and the
// durable service still resumes to the same verdict.
func TestInvalidUTF8SourceRefused(t *testing.T) {
	n, recs := testStream(20, 3, 2)
	dir := t.TempDir()
	cfg := Config{Net: n, NetName: "figure4", EpochRecords: 16, Dir: dir}
	s := mustNew(t, cfg)
	half := len(recs) / 2
	if _, err := s.Ingest(recs[:half]); err != nil {
		t.Fatal(err)
	}
	bad := measure.StreamRecord{Source: "vp-\xff\xfe", Seq: 1, Interval: 0, Path: 0, Sent: 10, Lost: 1}
	if _, err := s.Ingest([]measure.StreamRecord{recs[half], bad}); !errors.Is(err, errkind.Validation) {
		t.Fatalf("Ingest with an invalid UTF-8 source = %v, want errkind.Validation", err)
	}
	if st := s.Status(); st.Records != int64(half) || st.RejectsValidation != 1 {
		t.Fatalf("refused batch left state behind: %+v", st)
	}
	if _, err := s.Ingest(recs[half:]); err != nil {
		t.Fatal(err)
	}
	wantVerdict, wantStatus := s.VerdictJSON(), s.Status()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(data, []byte("vp-\xff")) || bytes.Contains(data, []byte(`vp-\ufffd`)) || bytes.Contains(data, []byte("vp-\uFFFD")) {
			t.Errorf("%s holds the refused record", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	s2 := mustNew(t, cfg)
	defer s2.Close()
	if !bytes.Equal(s2.VerdictJSON(), wantVerdict) {
		t.Fatalf("verdict changed across restart:\n%s\nvs\n%s", wantVerdict, s2.VerdictJSON())
	}
	if st := s2.Status(); st.Records != wantStatus.Records || st.Epochs != wantStatus.Epochs {
		t.Fatalf("replayed state %+v, want %+v", st, wantStatus)
	}
}

// TestJournalDamageTaxonomy: damage inside the manifest claim destroys
// acknowledged data (errkind.Corrupt); bytes past the claim are a torn tail
// and are silently truncated — the sender never got an ack for them.
func TestJournalDamageTaxonomy(t *testing.T) {
	n, recs := testStream(20, 2, 5)
	dir := t.TempDir()
	cfg := Config{Net: n, EpochRecords: 32, Dir: dir}
	s := mustNew(t, cfg)
	if _, err := s.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := journalShardName(dir, 0)
	good, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: garbage appended past the claim is dropped on resume.
	cfg.Resume = true
	if err := os.WriteFile(jpath, append(append([]byte(nil), good...), []byte("deadbeef torn")...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustNew(t, cfg)
	st := s2.Status()
	s2.Close()
	if st.Records != int64(len(recs)) {
		t.Fatalf("torn-tail resume folded %d records, want %d", st.Records, len(recs))
	}
	if after, _ := os.ReadFile(jpath); !bytes.Equal(after, good) {
		t.Fatal("torn tail not truncated away")
	}

	// In-claim damage: flip one byte inside an early record.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(jpath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); !errors.Is(err, errkind.Corrupt) {
		t.Fatalf("in-claim damage = %v, want errkind.Corrupt", err)
	}
}

// TestOutOfOrderRejects: a record below its source's high-water mark
// that was never actually seen (it falls in a gap the source skipped)
// is rejected as out-of-order, distinctly from a duplicate, so a
// gapped sender can detect its own loss — including across a restart,
// because the holes are rebuilt from the journal.
func TestOutOfOrderRejects(t *testing.T) {
	n, _ := testStream(2, 1, 1)
	dir := t.TempDir()
	s := mustNew(t, Config{Net: n, EpochRecords: 0, Dir: dir})
	rec := func(seq int64) measure.StreamRecord {
		return measure.StreamRecord{Source: "vp", Seq: seq, Interval: 0, Path: 0, Sent: 10, Lost: 1}
	}
	if _, err := s.Ingest([]measure.StreamRecord{rec(1), rec(2), rec(5)}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Ingest([]measure.StreamRecord{rec(3), rec(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.OutOfOrder != 1 || res.Duplicates != 1 {
		t.Fatalf("gapped resend: %+v (want 1 out-of-order, 1 duplicate)", res)
	}
	if st := s.Status(); st.RejectsOutOfOrder != 1 || st.Duplicates != 1 {
		t.Fatalf("status: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, Config{Net: n, EpochRecords: 0, Dir: dir, Resume: true})
	defer s2.Close()
	res, err = s2.Ingest([]measure.StreamRecord{rec(4)})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutOfOrder != 1 || res.Duplicates != 0 {
		t.Fatalf("gap detection lost across restart: %+v", res)
	}
}

// TestHoleRangesBounded: a sender that skips sequence numbers
// relentlessly cannot grow the per-source hole set without limit — on
// overflow the oldest ranges coalesce. Rejections landing in a
// coalesced span over-report as out-of-order (never as an ingested
// duplicate); recent gaps and duplicates still classify exactly.
func TestHoleRangesBounded(t *testing.T) {
	n, _ := testStream(2, 1, 1)
	s := mustNew(t, Config{Net: n, EpochRecords: 0})
	rec := func(seq int64) measure.StreamRecord {
		return measure.StreamRecord{Source: "vp", Seq: seq, Interval: 0, Path: 0, Sent: 10, Lost: 1}
	}
	batch := make([]measure.StreamRecord, 0, 200)
	for k := int64(1); k <= 200; k++ {
		batch = append(batch, rec(2*k)) // every odd sequence skipped
	}
	if _, err := s.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if got := len(s.holes["vp"]); got > maxHoleRanges {
		t.Fatalf("%d hole ranges retained after 200 gaps, cap is %d", got, maxHoleRanges)
	}
	res, err := s.Ingest([]measure.StreamRecord{rec(399), rec(400)})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutOfOrder != 1 || res.Duplicates != 1 {
		t.Fatalf("recent gap + duplicate classified as %+v (want 1 out-of-order, 1 duplicate)", res)
	}
	// Sequence 2 was genuinely accepted, but it sits inside the
	// coalesced oldest span: the conservative over-approximation
	// reports it out-of-order rather than pretending exact knowledge.
	res, err = s.Ingest([]measure.StreamRecord{rec(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutOfOrder != 1 || res.Duplicates != 0 {
		t.Fatalf("coalesced-span rejection classified as %+v (want out-of-order)", res)
	}
}

// TestVerdictMarshalFailureDoesNotWedge: a verdict that fails to
// marshal surfaces as an error from the close and leaves the previous
// verdict served, while the epoch still counts, so later epochs and
// Close proceed behind it.
func TestVerdictMarshalFailureDoesNotWedge(t *testing.T) {
	n, recs := testStream(20, 2, 3)
	s := mustNew(t, Config{Net: n, EpochRecords: 0})
	boom := errors.New("verdict marshal failed")
	fail := true
	s.verdictMarshal = func(ev EpochVerdict) ([]byte, error) {
		if fail {
			return nil, boom
		}
		return json.Marshal(ev)
	}
	if _, err := s.Ingest(recs[:10]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CloseEpoch(); !errors.Is(err, boom) {
		t.Fatalf("CloseEpoch with failing marshal = %v, want the injected failure", err)
	}
	if ev := decodeVerdict(t, s.VerdictJSON()); ev.Epoch != 0 {
		t.Fatalf("failed publish installed a verdict: %+v", ev)
	}
	fail = false
	if _, err := s.Ingest(recs[10:]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	if ev := decodeVerdict(t, s.VerdictJSON()); ev.Epoch != 2 {
		t.Fatalf("verdict after the failed epoch: %+v, want epoch 2", ev)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs after a failed verdict publish")
	}
}

// TestJournalFaultMidBatch: a journal writer failing mid-batch stops
// the batch with an error; nothing the journal cannot replay was
// reported accepted, and a full retry — in-process or after a kill and
// resume — is idempotent and converges to the clean-run verdict.
func TestJournalFaultMidBatch(t *testing.T) {
	n, recs := testStream(20, 2, 5)
	cfg := Config{Net: n, EpochRecords: 16}
	ref := mustNew(t, cfg)
	if _, err := ref.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	want := ref.VerdictJSON()

	boom := errors.New("journal writer failed")
	arm := func(s *Service, failAt int) {
		writes := 0
		s.jr.dir.Failpoint = func(op, _ string) error {
			if op != "append" {
				return nil
			}
			writes++
			if writes == failAt {
				s.jr.dir.Failpoint = nil // transient: the retry writes clean
				return boom
			}
			return nil
		}
	}

	// Kill path: after the fault, the journal must not replay a single
	// record beyond what the failed call reported accepted.
	cfg.Dir = t.TempDir()
	s := mustNew(t, cfg)
	arm(s, 11)
	res, err := s.Ingest(recs)
	if !errors.Is(err, boom) {
		t.Fatalf("Ingest with failing writer = %v, want the injected fault", err)
	}
	kill(t, s)
	rcfg := cfg
	rcfg.Resume = true
	s2 := mustNew(t, rcfg)
	if got := s2.Status().Records; got > int64(res.Accepted) {
		t.Fatalf("journal replays %d records, only %d were reported accepted", got, res.Accepted)
	}
	if _, err := s2.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := s2.VerdictJSON(); !bytes.Equal(got, want) {
		t.Fatalf("verdict after fault+kill+retry diverged:\n%s\nvs\n%s", got, want)
	}
	s2.Close()

	// In-process path: the same service retries the whole batch after a
	// transient fault; high-water marks drop what was already applied.
	cfg.Dir = t.TempDir()
	s3 := mustNew(t, cfg)
	arm(s3, 7)
	if _, err := s3.Ingest(recs); !errors.Is(err, boom) {
		t.Fatalf("Ingest with failing writer = %v, want the injected fault", err)
	}
	if _, err := s3.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := s3.VerdictJSON(); !bytes.Equal(got, want) {
		t.Fatalf("verdict after in-process retry diverged:\n%s\nvs\n%s", got, want)
	}
	s3.Close()
}

// TestManifestOverClaim: a claim over more lines than the shard holds
// — a truncated or deleted shard file — is destroyed acknowledged
// data: errkind.Corrupt, never a silent fresh start or a torn-tail
// truncate. The claim is held either in claims.jsonl only (the
// manifest's base claim is zero) or in serve.json only (no claim log,
// as a v2 journal upgraded in place has).
func TestManifestOverClaim(t *testing.T) {
	n, recs := testStream(20, 2, 5)
	for _, held := range []string{durable.ClaimLogName, manifestName} {
		t.Run(held, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Net: n, EpochRecords: 32, Dir: dir}
			s := mustNew(t, cfg)
			if _, err := s.Ingest(recs); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			cfg.Resume = true
			mpath, cpath := filepath.Join(dir, manifestName), filepath.Join(dir, durable.ClaimLogName)
			var m manifest
			if err := json.Unmarshal(readFile(t, mpath), &m); err != nil {
				t.Fatal(err)
			}
			if m.ShardLines[0] != 0 {
				t.Fatalf("manifest base claim %v, want 0 (claims live in %s)", m.ShardLines, durable.ClaimLogName)
			}
			if held == manifestName {
				// Move the last claim into the manifest.
				claims := readFile(t, cpath)
				c := claimAt(t, claims, bytes.Count(claims, []byte("\n"))-1)
				m.ShardLines, m.Records, m.Epochs = c.ShardLines, c.Records, c.Epochs
				data, err := json.MarshalIndent(m, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				writeFile(t, mpath, append(data, '\n'))
				if err := os.Remove(cpath); err != nil {
					t.Fatal(err)
				}
			}
			if held == durable.ClaimLogName {
				// A claim log without its manifest is no less acknowledged.
				mdata := readFile(t, mpath)
				if err := os.Remove(mpath); err != nil {
					t.Fatal(err)
				}
				if _, err := New(cfg); !errors.Is(err, errkind.Corrupt) {
					t.Fatalf("claim log without a manifest = %v, want errkind.Corrupt", err)
				}
				writeFile(t, mpath, mdata)
			}
			jpath := journalShardName(dir, 0)
			good := readFile(t, jpath)

			writeFile(t, jpath, good[:len(good)/2])
			if _, err := New(cfg); !errors.Is(err, errkind.Corrupt) {
				t.Fatalf("over-claimed short shard = %v, want errkind.Corrupt", err)
			}

			if err := os.Remove(jpath); err != nil {
				t.Fatal(err)
			}
			if _, err := New(cfg); !errors.Is(err, errkind.Corrupt) {
				t.Fatalf("missing claimed shard = %v, want errkind.Corrupt", err)
			}
		})
	}
}

// TestResumeRemovesLeftoverTemps: a temp file a kill left between a
// write and its rename — a compaction's snapshot, a manifest — does not
// outlive the next open of the journal or root log directory.
func TestResumeRemovesLeftoverTemps(t *testing.T) {
	n, recs := testStream(10, 2, 1)
	leftovers := []string{"snapshot-00000099.json.tmp", "serve.json.tmp", "root.json.tmp", "root.json.1234.tmp"}
	plant := func(dir string) {
		for _, name := range leftovers {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertSwept := func(dir string) {
		t.Helper()
		temps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		if len(temps) > 0 {
			t.Fatalf("resume left temp files behind: %v", temps)
		}
	}

	cfg := Config{Net: n, EpochRecords: 8, Dir: t.TempDir(), CompactEvery: 1}
	s := mustNew(t, cfg)
	if _, err := s.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	plant(cfg.Dir)
	cfg.Resume = true
	if err := mustNew(t, cfg).Close(); err != nil {
		t.Fatal(err)
	}
	assertSwept(cfg.Dir)

	rcfg := RootConfig{Net: n, NetName: "figure4", Leaves: 1, Dir: t.TempDir()}
	r, err := NewRoot(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	plant(rcfg.Dir)
	rcfg.Resume = true
	if r, err = NewRoot(rcfg); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	assertSwept(rcfg.Dir)
}

// TestLegacyJournalRejected: a format-v1 journal directory (single
// journal.jsonl) is refused with a validation error, not misread.
func TestLegacyJournalRejected(t *testing.T) {
	n, _ := testStream(2, 1, 1)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Net: n, Dir: dir, Resume: true}); !errors.Is(err, errkind.Validation) {
		t.Fatalf("v1 journal adoption = %v, want errkind.Validation", err)
	}
}

// TestShardedJournalLayout: with JournalShards > 1 each source's
// records land in exactly one shard file, close markers land in all of
// them, and the shard count is part of the journal identity.
func TestShardedJournalLayout(t *testing.T) {
	n, recs := testStream(30, 4, 5)
	dir := t.TempDir()
	cfg := Config{Net: n, EpochRecords: 32, Dir: dir, JournalShards: 4}
	s := mustNew(t, cfg)
	if _, err := s.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	populated := 0
	for sh := 0; sh < 4; sh++ {
		data, err := os.ReadFile(journalShardName(dir, sh))
		if err != nil {
			t.Fatal(err)
		}
		hasRec := false
		_, err = durable.Recover(data, 0, func(payload []byte) error {
			e, err := parseEntry(payload)
			if err == nil && e.Rec != nil {
				hasRec = true
				if got := shardOf(e.Rec.Source, 4); got != sh {
					t.Fatalf("shard %d holds source %q (belongs to %d)", sh, e.Rec.Source, got)
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if hasRec {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("only %d of 4 shards populated; source hash not partitioning", populated)
	}

	rcfg := cfg
	rcfg.Resume = true
	rcfg.JournalShards = 2
	if _, err := New(rcfg); !errors.Is(err, errkind.Validation) {
		t.Fatalf("resume with changed shard count = %v, want errkind.Validation", err)
	}
}

// TestServiceIsSource: the service snapshot feeds the same batch
// pipeline as any other measure.Source, and mutating the snapshot does
// not reach back into the live table.
func TestServiceIsSource(t *testing.T) {
	n, recs := testStream(10, 2, 1)
	s := mustNew(t, Config{Net: n, EpochRecords: 0})
	if _, err := s.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	var src measure.Source = s
	m, err := src.Measurements()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Intervals() != 10 || m.NumPaths() != n.NumPaths() {
		t.Fatalf("snapshot is %dx%d", m.Intervals(), m.NumPaths())
	}
	m.Sent[0][0] += 999
	m2, _ := src.Measurements()
	if m2.Sent[0][0] == m.Sent[0][0] {
		t.Fatal("snapshot aliases the live table")
	}
}

// TestWritesAfterClose: a closed service applies, journals and acks
// nothing — Ingest and CloseEpoch return ErrClosed — while reads keep
// answering, and a resume holds exactly the records acked before Close.
func TestWritesAfterClose(t *testing.T) {
	n, recs := testStream(20, 2, 3)
	for _, durable := range []bool{false, true} {
		cfg := Config{Net: n, NetName: "figure4", EpochRecords: 0}
		if durable {
			cfg.Dir = t.TempDir()
		}
		s := mustNew(t, cfg)
		if _, err := s.Ingest(recs[:10]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CloseEpoch(); err != nil {
			t.Fatal(err)
		}
		wantVerdict, wantSummary := s.VerdictJSON(), s.SummaryText()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		res, err := s.Ingest(recs[10:80])
		if !errors.Is(err, ErrClosed) || res.Accepted != 0 {
			t.Fatalf("durable=%v: ingest after Close = (%+v, %v), want nothing accepted and ErrClosed", durable, res, err)
		}
		if closed, err := s.CloseEpoch(); !errors.Is(err, ErrClosed) || closed {
			t.Fatalf("durable=%v: CloseEpoch after Close = (%v, %v), want ErrClosed", durable, closed, err)
		}
		if st := s.Status(); st.Records != 10 || st.Epochs != 1 || st.Pending != 0 {
			t.Fatalf("durable=%v: status after rejected writes: %+v", durable, st)
		}
		if !bytes.Equal(s.VerdictJSON(), wantVerdict) || s.SummaryText() != wantSummary {
			t.Fatalf("durable=%v: reads changed after Close", durable)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("durable=%v: second Close = %v", durable, err)
		}
		if !durable {
			continue
		}
		cfg.Resume = true
		s2 := mustNew(t, cfg)
		if st := s2.Status(); st.Records != 10 || st.Epochs != 1 {
			t.Fatalf("resume after rejected writes holds %+v, want the 10 acked records", st)
		}
		if !bytes.Equal(s2.VerdictJSON(), wantVerdict) {
			t.Fatalf("resumed verdict changed:\n%s\nvs\n%s", s2.VerdictJSON(), wantVerdict)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
