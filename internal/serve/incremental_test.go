package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"neutrality/internal/graph"
	"neutrality/internal/measure"
)

// lateStream re-times testStream's records so an epoch close re-derives
// more than the rows it appended: most records arrive in interval
// order, but some arrive late — up to 600 intervals, across Algorithm
// 2's sampler checkpoints — and whole interval ranges (and single
// paths of some intervals) stay idle. Sequence numbers are re-issued
// per source in the new delivery order.
func lateStream(intervals int, seed int64) (*graph.Network, []measure.StreamRecord) {
	n, recs := testStream(intervals, 4, seed)
	rng := rand.New(rand.NewSource(seed))
	type timed struct {
		at  int
		rec measure.StreamRecord
	}
	var ts []timed
	for _, r := range recs {
		if r.Interval%300 >= 280 || (r.Interval%7 == 3 && r.Path == 1) {
			continue // idle rows: the interval carries no information
		}
		at := r.Interval
		if rng.Intn(8) == 0 {
			at += rng.Intn(600)
		}
		ts = append(ts, timed{at, r})
	}
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].at < ts[j].at })
	seqs := map[string]int64{}
	out := make([]measure.StreamRecord, len(ts))
	for i, x := range ts {
		seqs[x.rec.Source]++
		x.rec.Seq = seqs[x.rec.Source]
		out[i] = x.rec
	}
	return n, out
}

// assertVerdictIsBatch requires the served verdict to be byte-identical
// to the batch pipeline's verdict over the service's current table.
// The caller must hold the service quiescent.
func assertVerdictIsBatch(t *testing.T, s *Service, what string) {
	t.Helper()
	st := s.Status()
	want, err := json.Marshal(buildVerdict(batchInfer(t, s), st.Epochs, st.Records, st.Intervals, st.Sources, resolveMinGap(s.inferConfig())))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.VerdictJSON(); !bytes.Equal(got, want) {
		t.Fatalf("%s: epoch %d verdict is not the batch verdict\ngot  %s\nwant %s", what, st.Epochs, got, want)
	}
}

// TestIncrementalCloseMatchesBatch: with late records dirtying old
// rows, idle rows, and tables growing past several sampler checkpoints,
// every epoch's served verdict equals batch inference over the table
// at that close — in memory, and across journal replay and snapshot
// restore (the resumed service rebuilds its Algorithm 2 cache from an
// empty one).
func TestIncrementalCloseMatchesBatch(t *testing.T) {
	n, recs := lateStream(900, 21)
	for _, tc := range []struct {
		name    string
		journal bool
		compact int
	}{
		{"memory", false, 0},
		{"journal-replay", true, 0},
		{"snapshot-restore", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Net: n}
			if tc.journal {
				cfg.Dir, cfg.JournalShards, cfg.CompactEvery = t.TempDir(), 2, tc.compact
			}
			s := mustNew(t, cfg)
			rng := rand.New(rand.NewSource(5))
			killAt := len(recs) / 2
			for lo := 0; lo < len(recs); {
				hi := min(len(recs), lo+1+rng.Intn(300))
				if tc.journal && lo < killAt && killAt < hi {
					// Die mid-epoch, with records pending, and resume.
					if _, err := s.Ingest(recs[lo:killAt]); err != nil {
						t.Fatal(err)
					}
					kill(t, s)
					rcfg := cfg
					rcfg.Resume = true
					s = mustNew(t, rcfg)
					lo = killAt
					continue
				}
				if _, err := s.Ingest(recs[lo:hi]); err != nil {
					t.Fatal(err)
				}
				lo = hi
				if _, err := s.CloseEpoch(); err != nil {
					t.Fatal(err)
				}
				assertVerdictIsBatch(t, s, tc.name)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentClosesMatchBatch: sources ingesting concurrently close
// epochs inline while other callers close epochs explicitly; each close
// folds and infers under the service lock, one epoch at a time, so the
// final verdict is still byte-identical to batch inference over the
// final table.
func TestConcurrentClosesMatchBatch(t *testing.T) {
	n, recs := lateStream(700, 8)
	s := mustNew(t, Config{Net: n, EpochRecords: 97})
	bySource := map[string][]measure.StreamRecord{}
	for _, r := range recs {
		bySource[r.Source] = append(bySource[r.Source], r)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for src, rs := range bySource {
		wg.Add(1)
		go func(seed int64, rs []measure.StreamRecord) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for lo := 0; lo < len(rs); {
				hi := min(len(rs), lo+1+rng.Intn(40))
				if _, err := s.Ingest(rs[lo:hi]); err != nil {
					t.Error(err)
					return
				}
				lo = hi
			}
		}(int64(len(src)+len(rs)), rs)
	}
	var closers sync.WaitGroup
	for c := 0; c < 2; c++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.CloseEpoch(); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(done)
	closers.Wait()
	if _, err := s.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Records != int64(len(recs)) || st.Epochs < 2 {
		t.Fatalf("status after the concurrent run: %+v", st)
	}
	assertVerdictIsBatch(t, s, "concurrent")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
