package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"unicode/utf8"

	"neutrality/internal/measure"
	"neutrality/internal/stats"
)

// The snapshot encoder must write exactly json.Marshal(snapWire): the
// snapshot's content hash, and so every compaction's bytes, depend on
// it. The property test and the fuzz target below build random states
// — odd source names, nil and empty tables and rows, holes, pending
// records, a leaf outbox — and compare the two encoders byte for byte.

// oddNames are source names whose JSON form is not the name itself:
// HTML-escaped <>&, quotes and backslashes, control characters,
// non-ASCII, U+2028/U+2029 and invalid UTF-8.
var oddNames = []string{
	"vp-a", "", "a<b", "x>y&z", `q"b\s`, "tab\there", "nl\n", "\x00\x1f\x7f",
	"é", "日本", "\u2028\u2029", "\xff", "a\xc3", "vp <&> b",
}

// randName draws a source name: an odd one, extra when given, or a
// plain one.
func randName(rng *rand.Rand, extra string) string {
	switch k := rng.Intn(4); {
	case k == 0 && extra != "":
		return extra
	case k == 1:
		return oddNames[rng.Intn(len(oddNames))]
	default:
		return "vp-" + string(rune('a'+rng.Intn(26)))
	}
}

// randRows draws a table column: nil, empty, or rows that are nil,
// empty or paths wide.
func randRows(rng *rand.Rand, paths int) [][]int {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return [][]int{}
	}
	rows := make([][]int, rng.Intn(40))
	for t := range rows {
		switch rng.Intn(10) {
		case 0:
			continue // nil row
		case 1:
			rows[t] = []int{}
		default:
			rows[t] = make([]int, paths)
			for p := range rows[t] {
				rows[t][p] = rng.Intn(1<<uint(rng.Intn(40))) - rng.Intn(3)
			}
		}
	}
	return rows
}

// randSnapWire draws a snapshot state; extra, when set, is mixed in as
// a source name and a summary block.
func randSnapWire(rng *rand.Rand, extra string) *snapWire {
	paths := rng.Intn(5)
	w := &snapWire{
		Epoch:   rng.Intn(1000),
		Records: rng.Int63n(1 << 40),
		Paths:   paths,
		Sent:    randRows(rng, paths),
		Lost:    randRows(rng, paths),
		Dropped: rng.Intn(3) * rng.Intn(100),
		Verdict: json.RawMessage(`{"epoch": 3, "note": "<a&b>",` + "\n" + ` "slices": [1, 2.5e-3]}`),
	}
	if rng.Intn(5) == 0 {
		w.Verdict = json.RawMessage(`null`)
	}
	var loss stats.Welford
	sk := stats.NewUnitSketch()
	for range rng.Intn(20) {
		x := rng.Float64() * math.Pow(10, float64(-rng.Intn(25)))
		loss.Add(x)
		sk.Add(x)
	}
	w.CumLoss, w.CumSketch = loss.Wire(), sk.Wire()
	switch rng.Intn(3) {
	case 0: // nil maps
	case 1:
		w.Seqs, w.Holes = map[string]int64{}, map[string][]seqRange{}
	default:
		w.Seqs, w.Holes = map[string]int64{}, map[string][]seqRange{}
		for range 1 + rng.Intn(12) {
			src := randName(rng, extra)
			w.Seqs[src] = 1 + rng.Int63n(1<<50)
			if rng.Intn(3) == 0 {
				w.Holes[src] = []seqRange{{Lo: 1, Hi: 2}, {Lo: 5, Hi: 9}}
			}
		}
	}
	for range rng.Intn(4) {
		w.Listing = append(w.Listing, "epoch 7 <nn> & co\n  slice {l1}: 0.25\n"+extra)
	}
	if rng.Intn(3) == 0 {
		w.Listing = []string{}
	}
	for range rng.Intn(6) {
		w.Pending = append(w.Pending, measure.StreamRecord{
			Source: randName(rng, extra), Seq: rng.Int63n(1 << 40),
			Interval: rng.Intn(1 << 20), Path: rng.Intn(paths + 1), Sent: rng.Intn(500), Lost: rng.Intn(5),
		})
	}
	for e := range rng.Intn(4) {
		rep := EpochReport{Leaf: randName(rng, extra), Epoch: e + 1, Records: rng.Intn(100), Sources: rng.Intn(9),
			Loss: loss.Wire(), LossSketch: sk.Wire()}
		for i := range rng.Intn(5) {
			rep.Counts = append(rep.Counts, PathCount{Interval: i, Path: rng.Intn(4), Sent: rng.Intn(300), Lost: rng.Intn(3)})
		}
		sealReport(&rep)
		w.Outbox = append(w.Outbox, rep)
	}
	return w
}

// checkSnapshotEncoding requires encodeSnapshot to write json.Marshal's
// bytes for w, or to fail where it fails.
func checkSnapshotEncoding(t *testing.T, w *snapWire) {
	t.Helper()
	want, werr := json.Marshal(w)
	got, err := encodeSnapshot(w)
	if (err == nil) != (werr == nil) {
		t.Fatalf("hand encoder error %v, json.Marshal error %v", err, werr)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("hand encoder diverges at byte %d:\ngot  …%.80s\nwant …%.80s", i, got[i:], want[i:])
	}
}

// TestSnapshotEncoderMatchesMarshal compares the encoders over random
// states, the zero state, and a state whose verdict is not JSON.
func TestSnapshotEncoderMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for range 2000 {
		checkSnapshotEncoding(t, randSnapWire(rng, ""))
	}
	checkSnapshotEncoding(t, &snapWire{})
	bad := randSnapWire(rng, "")
	bad.Verdict = json.RawMessage(`{"unterminated":`)
	checkSnapshotEncoding(t, bad)
	bad = randSnapWire(rng, "")
	bad.CumLoss.Mean = math.NaN()
	checkSnapshotEncoding(t, bad)
}

// TestServiceSnapshotMatchesMarshal compares the encoders on a live
// leaf's state: holes, odd source names and an unshipped outbox.
func TestServiceSnapshotMatchesMarshal(t *testing.T) {
	var names []string // the odd names a record may carry
	for _, src := range oddNames {
		if src != "" && utf8.ValidString(src) {
			names = append(names, src)
		}
	}
	n, recs := testStream(24, 4, 3)
	for i := range recs {
		recs[i].Source = names[i%len(names)]
		recs[i].Seq = 2 * int64(i+1) // every other sequence number skipped: holes
	}
	s := mustNew(t, Config{Net: n, EpochRecords: 16, Leaf: "east"})
	defer s.Close()
	if _, err := s.Ingest(recs[:len(recs)-5]); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.holes) == 0 || len(s.outbox) == 0 || len(s.pending) == 0 || len(s.listing) == 0 {
		t.Fatalf("state too thin: %d holes, %d reports, %d pending, %d blocks",
			len(s.holes), len(s.outbox), len(s.pending), len(s.listing))
	}
	got, err := s.snapshotLocked()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(snapWire{
		Epoch: s.epoch, Records: s.records, Paths: s.net.NumPaths(),
		Seqs: s.seqs, Holes: s.holes, Sent: s.meas.Sent, Lost: s.meas.Lost,
		CumLoss: s.cumLoss.Wire(), CumSketch: s.cumSketch.Wire(),
		Verdict: json.RawMessage(s.verdict), Listing: s.listing, Dropped: s.dropped,
		Pending: s.pending, Outbox: s.outbox,
	})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("service snapshot differs from json.Marshal (%v):\ngot  %.200s\nwant %.200s", err, got, want)
	}
}

func FuzzSnapshotEncoder(f *testing.F) {
	for i, s := range oddNames {
		f.Add(int64(i), s)
	}
	f.Add(int64(99), "line one\nline two <b>")
	f.Fuzz(func(t *testing.T, seed int64, name string) {
		checkSnapshotEncoding(t, randSnapWire(rand.New(rand.NewSource(seed)), name))
	})
}
