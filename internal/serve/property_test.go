package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"neutrality/internal/core"
	"neutrality/internal/measure"
)

// The headline property of the streaming service: delivering the same
// records in any arrival order within an epoch, in any batch chunking,
// with arbitrary duplicate re-delivery, and across a mid-epoch kill
// and restart of the server, yields byte-identical verdicts and
// summaries. The trials below riffle-shuffle the per-source streams
// inside each epoch window (preserving each source's own order, as a
// real ordered transport does), chunk the delivery at random
// boundaries, and optionally kill the journaled server between two
// chunks — leaving a torn tail — before resuming and re-sending.

func decodeVerdict(t *testing.T, data []byte) EpochVerdict {
	t.Helper()
	var ev EpochVerdict
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatalf("verdict does not parse: %v\n%s", err, data)
	}
	return ev
}

// batchInfer runs the batch pipeline over the service's accumulated
// table — the reference the streaming verdict must match.
func batchInfer(t *testing.T, s *Service) *core.Result {
	t.Helper()
	m, err := s.Measurements()
	if err != nil {
		t.Fatal(err)
	}
	return core.Infer(s.net, core.MeasurementObserver{Meas: m, Opts: s.cfg.Opts}, s.inferConfig())
}

// riffleWindows shuffles the delivery order inside each epoch-sized
// window, preserving each source's internal order (an ordered
// transport never reorders one source's own stream, but interleaving
// across sources is arbitrary).
func riffleWindows(rng *rand.Rand, recs []measure.StreamRecord, window int) []measure.StreamRecord {
	out := make([]measure.StreamRecord, 0, len(recs))
	for lo := 0; lo < len(recs); lo += window {
		hi := lo + window
		if hi > len(recs) {
			hi = len(recs)
		}
		var queues [][]measure.StreamRecord
		idx := map[string]int{}
		for _, r := range recs[lo:hi] {
			i, ok := idx[r.Source]
			if !ok {
				i = len(queues)
				idx[r.Source] = i
				queues = append(queues, nil)
			}
			queues[i] = append(queues[i], r)
		}
		for len(queues) > 0 {
			i := rng.Intn(len(queues))
			out = append(out, queues[i][0])
			if queues[i] = queues[i][1:]; len(queues[i]) == 0 {
				queues[i] = queues[len(queues)-1]
				queues = queues[:len(queues)-1]
			}
		}
	}
	return out
}

// chunk splits the delivery into random-size batches (1..maxChunk).
func chunkStream(rng *rand.Rand, recs []measure.StreamRecord, maxChunk int) [][]measure.StreamRecord {
	var out [][]measure.StreamRecord
	for lo := 0; lo < len(recs); {
		hi := lo + 1 + rng.Intn(maxChunk)
		if hi > len(recs) {
			hi = len(recs)
		}
		out = append(out, recs[lo:hi])
		lo = hi
	}
	return out
}

// kill simulates a process death: the journal file handle is closed
// without the shutdown flush, and the service is abandoned.
func kill(t *testing.T, s *Service) {
	t.Helper()
	if s.jr != nil {
		if err := s.jr.logs.Close(); err != nil {
			t.Fatal(err)
		}
		s.jr = nil
	}
}

// runTrial delivers the records through one randomized schedule and
// returns the final verdict and summary bytes.
func runTrial(t *testing.T, rng *rand.Rand, cfg Config, recs []measure.StreamRecord, restart bool) (verdict []byte, summary string) {
	t.Helper()
	shuffled := riffleWindows(rng, recs, cfg.EpochRecords)
	chunks := chunkStream(rng, shuffled, 2*cfg.EpochRecords/3+1)

	s := mustNew(t, cfg)
	killAt := -1
	if restart && len(chunks) > 1 {
		killAt = 1 + rng.Intn(len(chunks)-1)
	}
	for i := 0; i < len(chunks); i++ {
		if i == killAt {
			kill(t, s)
			// A kill can leave a torn tail: bytes written but never
			// acknowledged. Resume must shed them — on a random subset
			// of the journal shards, as a real crash would.
			shards := cfg.JournalShards
			if shards <= 0 {
				shards = 1
			}
			for sh := 0; sh < shards; sh++ {
				if sh > 0 && rng.Intn(2) == 0 {
					continue
				}
				f, err := os.OpenFile(journalShardName(cfg.Dir, sh), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.WriteString("deadbeef {\"rec\":torn")
				f.Close()
			}

			rcfg := cfg
			rcfg.Resume = true
			s = mustNew(t, rcfg)
			// The sender saw no ack for its in-flight batch and
			// re-sends it; the high-water marks drop what survived.
			if _, err := s.Ingest(chunks[i-1]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Ingest(chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	verdict, summary = s.VerdictJSON(), s.SummaryText()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return verdict, summary
}

func runDeterminismTrials(t *testing.T, trials int, seed int64) {
	n, recs := testStream(120, 4, 9)
	const epoch = 96

	// Reference: canonical order, one batch, no journal.
	ref := mustNew(t, Config{Net: n, EpochRecords: epoch})
	if _, err := ref.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	wantVerdict, wantSummary := ref.VerdictJSON(), ref.SummaryText()

	// The reference itself must agree with the batch pipeline.
	res := batchInfer(t, ref)
	ev := decodeVerdict(t, wantVerdict)
	if res.NetworkNonNeutral() != ev.NonNeutral || len(res.Candidates) != len(ev.Slices) {
		t.Fatalf("streaming reference disagrees with batch inference: %+v vs %d candidates (nn=%v)",
			ev, len(res.Candidates), res.NetworkNonNeutral())
	}
	for i, v := range res.Candidates {
		if ev.Slices[i].Unsolvability != v.Unsolvability || ev.Slices[i].NonNeutral != v.NonNeutral {
			t.Fatalf("slice %d diverges from batch: %+v vs %+v", i, ev.Slices[i], v)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	shardCounts := []int{1, 2, 8}
	compactCadences := []int{0, 2, 3} // off, and two on-cadences
	for trial := 0; trial < trials; trial++ {
		restart := trial%2 == 1 // odd trials kill+resume mid-epoch
		cfg := Config{Net: n, EpochRecords: epoch}
		if trial >= 2 || restart {
			// Journaled trials randomize the journal geometry: shard
			// count and compaction cadence must not change a byte.
			cfg.Dir = t.TempDir() // runTrial moves claims off-cadence
			cfg.JournalShards = shardCounts[rng.Intn(len(shardCounts))]
			cfg.CompactEvery = compactCadences[rng.Intn(len(compactCadences))]
		}
		verdict, summary := runTrial(t, rng, cfg, recs, restart)
		if !bytes.Equal(verdict, wantVerdict) {
			t.Fatalf("trial %d (restart=%v shards=%d compact=%d): verdict diverged\ngot  %s\nwant %s",
				trial, restart, cfg.JournalShards, cfg.CompactEvery, verdict, wantVerdict)
		}
		if summary != wantSummary {
			t.Fatalf("trial %d (restart=%v shards=%d compact=%d): summary diverged\ngot:\n%s\nwant:\n%s",
				trial, restart, cfg.JournalShards, cfg.CompactEvery, summary, wantSummary)
		}
	}
}

// TestStreamingDeterminism is the headline property at CI size.
func TestStreamingDeterminism(t *testing.T) {
	runDeterminismTrials(t, 8, 42)
}

// TestIngestOrderSoak is the long-running randomized variant for the
// nightly workflow: it re-rolls fresh schedules until the
// SERVE_SOAK_SECONDS budget runs out. Unset, it is skipped.
func TestIngestOrderSoak(t *testing.T) {
	secs, _ := strconv.Atoi(os.Getenv("SERVE_SOAK_SECONDS"))
	if secs <= 0 {
		t.Skip("SERVE_SOAK_SECONDS not set")
	}
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	for seed := int64(1); time.Now().Before(deadline); seed++ {
		runDeterminismTrials(t, 4, seed)
	}
}
