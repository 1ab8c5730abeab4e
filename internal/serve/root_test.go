package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neutrality/internal/measure"
	"neutrality/internal/sweep"
)

// splitBySource deals a stream across leaves by source name, keeping
// each leaf's slice in delivery order. Leaves own disjoint source sets
// — the precondition for the tree's source-count sum being exact.
func splitBySource(recs []measure.StreamRecord, leaves int) [][]measure.StreamRecord {
	idx := map[string]int{}
	out := make([][]measure.StreamRecord, leaves)
	for _, r := range recs {
		i, ok := idx[r.Source]
		if !ok {
			i = len(idx) % leaves
			idx[r.Source] = i
		}
		out[i] = append(out[i], r)
	}
	return out
}

// driveTree ingests a stream through `leaves` leaf services closing
// epochs in lockstep with a union reference service, and returns the
// leaves, their queued reports, and the union's verdicts per epoch.
func driveTree(t *testing.T, leaves, rounds int) (leafSvcs []*Service, union *Service, perEpoch [][]byte) {
	t.Helper()
	n, recs := testStream(60, 4, 7)
	parts := splitBySource(recs, leaves)

	union = mustNew(t, Config{Net: n, EpochRecords: 0})
	names := []string{"leaf-a", "leaf-b", "leaf-c"}
	for i := 0; i < leaves; i++ {
		leafSvcs = append(leafSvcs, mustNew(t, Config{Net: n, EpochRecords: 0, Leaf: names[i]}))
	}

	per := (len(recs) + rounds - 1) / rounds
	for lo := 0; lo < len(recs); lo += per {
		hi := lo + per
		if hi > len(recs) {
			hi = len(recs)
		}
		round := recs[lo:hi]
		inRound := map[string]bool{}
		for _, r := range round {
			inRound[r.Source+":"+itoa(r.Seq)] = true
		}
		for i, leaf := range leafSvcs {
			var slice []measure.StreamRecord
			for _, r := range parts[i] {
				if inRound[r.Source+":"+itoa(r.Seq)] {
					slice = append(slice, r)
				}
			}
			if _, err := leaf.Ingest(slice); err != nil {
				t.Fatal(err)
			}
			if _, err := leaf.CloseEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := union.Ingest(round); err != nil {
			t.Fatal(err)
		}
		if _, err := union.CloseEpoch(); err != nil {
			t.Fatal(err)
		}
		perEpoch = append(perEpoch, union.VerdictJSON())
	}
	return leafSvcs, union, perEpoch
}

func itoa(v int64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		if v /= 10; v == 0 {
			break
		}
	}
	return string(b[i:])
}

// TestRootMatchesUnion is the tree-mode determinism contract: the
// root's verdict after folding every leaf's epoch reports is
// byte-identical to a single service that ingested the union of the
// leaf streams with the same epoch boundaries — for every epoch, and
// regardless of the (per-leaf in-order) interleaving of deliveries.
func TestRootMatchesUnion(t *testing.T) {
	const leaves, rounds = 2, 5
	leafSvcs, union, perEpoch := driveTree(t, leaves, rounds)

	root, err := NewRoot(RootConfig{Net: union.net, Leaves: leaves})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave deliveries across leaves at random, preserving each
	// leaf's own order (the shipper's in-order drain guarantee).
	rng := rand.New(rand.NewSource(11))
	queues := make([][]EpochReport, leaves)
	for i, leaf := range leafSvcs {
		queues[i] = leaf.Reports()
		if len(queues[i]) != rounds {
			t.Fatalf("leaf %d queued %d reports, want %d", i, len(queues[i]), rounds)
		}
	}
	folded := 0
	for {
		live := 0
		for _, q := range queues {
			if len(q) > 0 {
				live++
			}
		}
		if live == 0 {
			break
		}
		i := rng.Intn(leaves)
		if len(queues[i]) == 0 {
			continue
		}
		rep := queues[i][0]
		queues[i] = queues[i][1:]
		res, err := root.Deliver(rep)
		if err != nil {
			t.Fatalf("deliver leaf %d epoch %d: %v", i, rep.Epoch, err)
		}
		for ; folded < res.Folded; folded++ {
			// Every newly folded tree epoch must reproduce the union
			// service's verdict for that epoch, byte for byte.
			if got := root.VerdictJSON(); folded == res.Folded-1 && !bytes.Equal(got, perEpoch[folded]) {
				t.Fatalf("tree epoch %d verdict diverged from union:\ngot  %s\nwant %s", folded+1, got, perEpoch[folded])
			}
		}
	}
	if folded != rounds {
		t.Fatalf("root folded %d epochs, want %d", folded, rounds)
	}
	if got, want := root.VerdictJSON(), union.VerdictJSON(); !bytes.Equal(got, want) {
		t.Fatalf("final tree verdict diverged from union:\ngot  %s\nwant %s", got, want)
	}
	st := root.Status()
	if st.Records != union.Status().Records || st.Epochs != rounds || st.Leaves != leaves {
		t.Fatalf("root status inconsistent with union: %+v", st)
	}

	// Idempotent delivery: re-sending an already-folded report is a
	// duplicate ack, and changes nothing.
	rep := leafSvcs[0].Reports()[0]
	res, err := root.Deliver(rep)
	if err != nil || !res.Duplicate {
		t.Fatalf("re-delivery = (%+v, %v), want duplicate ack", res, err)
	}
	if got := root.VerdictJSON(); !bytes.Equal(got, union.VerdictJSON()) {
		t.Fatalf("duplicate delivery changed the verdict")
	}
}

// TestRootRejectsAndGaps pins the delivery failure taxonomy: a
// tampered report is a validation rejection that applies nothing, and
// an epoch skipping ahead of its leaf's high-water mark is a gap (the
// shipper must close it by re-sending the earlier epoch first).
func TestRootRejectsAndGaps(t *testing.T) {
	leafSvcs, union, _ := driveTree(t, 1, 3)
	reports := leafSvcs[0].Reports()

	root, err := NewRoot(RootConfig{Net: union.net, Leaves: 1})
	if err != nil {
		t.Fatal(err)
	}

	tampered := reports[0]
	tampered.Records++ // content no longer matches the seal
	if _, err := root.Deliver(tampered); !errors.Is(err, measure.ErrValidation) {
		t.Fatalf("tampered report = %v, want validation error", err)
	}
	if _, err := root.Deliver(reports[1]); !errors.Is(err, ErrReportGap) {
		t.Fatalf("epoch 2 before epoch 1 = %v, want ErrReportGap", err)
	}
	if st := root.Status(); st.RejectsValidation != 1 || st.Gaps != 1 || st.Epochs != 0 {
		t.Fatalf("counters after rejections: %+v", st)
	}
	for _, rep := range reports {
		if _, err := root.Deliver(rep); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := root.VerdictJSON(), union.VerdictJSON(); !bytes.Equal(got, want) {
		t.Fatalf("verdict after gap recovery diverged:\ngot  %s\nwant %s", got, want)
	}
}

// TestShipperDrainsToRoot runs the real HTTP path: two leaf services,
// two shippers, one root server. The shippers drain the outboxes
// (acking as they go) and the root converges on the union verdict.
func TestShipperDrainsToRoot(t *testing.T) {
	const leaves, rounds = 2, 4
	leafSvcs, union, _ := driveTree(t, leaves, rounds)

	root, err := NewRoot(RootConfig{Net: union.net, Leaves: leaves})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRootServer(root))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, leaves)
	for _, leaf := range leafSvcs {
		sh := &Shipper{S: leaf, URL: ts.URL, Backoff: 10 * time.Millisecond}
		go func() { done <- sh.Run(ctx) }()
	}
	// Wait for the tree to fold every epoch AND for the shippers to ack
	// every report (a cancel racing the final in-flight response would
	// otherwise leave it delivered but unacked).
	drained := func() bool {
		if root.Status().Epochs < rounds {
			return false
		}
		for _, leaf := range leafSvcs {
			if len(leaf.Reports()) > 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(20 * time.Second)
	for !drained() {
		if time.Now().After(deadline) {
			t.Fatalf("tree stuck at %d/%d epochs: %+v", root.Status().Epochs, rounds, root.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	for i := 0; i < leaves; i++ {
		if err := <-done; err != nil {
			t.Fatalf("shipper: %v", err)
		}
	}

	if got, want := root.VerdictJSON(), union.VerdictJSON(); !bytes.Equal(got, want) {
		t.Fatalf("shipped tree verdict diverged from union:\ngot  %s\nwant %s", got, want)
	}
}

// TestRootDurableRestart: a root with a report log survives a restart
// mid-tree. Leaves that already acked (and dropped) their early epochs
// keep shipping from their next unacked epoch — the resumed root's
// per-leaf marks line up, nothing 409s, and the final verdict still
// matches the union service.
func TestRootDurableRestart(t *testing.T) {
	const leaves, rounds = 2, 5
	leafSvcs, union, _ := driveTree(t, leaves, rounds)
	dir := t.TempDir()
	cfg := RootConfig{Net: union.net, NetName: "figure4", Leaves: leaves, Dir: dir}

	root, err := NewRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	queues := make([][]EpochReport, leaves)
	for i, leaf := range leafSvcs {
		queues[i] = leaf.Reports()
	}
	// Deliver the first three epochs from each leaf, acking as a real
	// shipper would — the leaves drop those reports for good.
	for e := 0; e < 3; e++ {
		for i, leaf := range leafSvcs {
			if _, err := root.Deliver(queues[i][e]); err != nil {
				t.Fatalf("deliver leaf %d epoch %d: %v", i, e+1, err)
			}
			leaf.AckReports(e + 1)
		}
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}

	// The log refuses silent adoption and identity drift.
	if _, err := NewRoot(cfg); !errors.Is(err, sweep.ErrValidation) {
		t.Fatalf("adopting a root log without resume = %v, want validation error", err)
	}
	wrong := cfg
	wrong.Leaves = leaves + 1
	wrong.Resume = true
	if _, err := NewRoot(wrong); !errors.Is(err, sweep.ErrValidation) {
		t.Fatalf("resume under a different leaf count = %v, want validation error", err)
	}

	rcfg := cfg
	rcfg.Resume = true
	root2, err := NewRoot(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := root2.Status(); st.Epochs != 3 || st.Leaves != leaves {
		t.Fatalf("resumed root at %+v, want 3 epochs over %d leaves", st, leaves)
	}
	// The leaves only hold epochs 4..rounds now; they must land clean.
	for i, leaf := range leafSvcs {
		for _, rep := range leaf.Reports() {
			if _, err := root2.Deliver(rep); err != nil {
				t.Fatalf("post-restart deliver leaf %d epoch %d: %v", i, rep.Epoch, err)
			}
		}
	}
	if got, want := root2.VerdictJSON(), union.VerdictJSON(); !bytes.Equal(got, want) {
		t.Fatalf("verdict after durable restart diverged:\ngot  %s\nwant %s", got, want)
	}
	// Replayed epochs stay idempotent: a retry of a pre-restart
	// delivery is a duplicate ack, not a gap or a refold.
	res, err := root2.Deliver(queues[0][1])
	if err != nil || !res.Duplicate {
		t.Fatalf("retry of a replayed epoch = (%+v, %v), want duplicate ack", res, err)
	}
	if err := root2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRootLogDamageTaxonomy pins the report log's recovery classes: a
// torn tail past the manifest claim is truncated silently (the leaf
// was never acked and re-sends), while a flipped byte inside the claim
// is unrecoverable corruption — the acked data exists nowhere else.
func TestRootLogDamageTaxonomy(t *testing.T) {
	leafSvcs, union, _ := driveTree(t, 1, 3)
	dir := t.TempDir()
	cfg := RootConfig{Net: union.net, NetName: "figure4", Leaves: 1, Dir: dir}
	root, err := NewRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range leafSvcs[0].Reports() {
		if _, err := root.Deliver(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "root.jsonl")
	good, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: garbage appended past the claim vanishes on resume.
	if err := os.WriteFile(logPath, append(append([]byte{}, good...), "deadbeef torn"...), 0o644); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resume = true
	root2, err := NewRoot(rcfg)
	if err != nil {
		t.Fatalf("resume over a torn tail: %v", err)
	}
	if st := root2.Status(); st.Epochs != 3 {
		t.Fatalf("torn-tail resume folded %d epochs, want 3", st.Epochs)
	}
	if got, want := root2.VerdictJSON(), union.VerdictJSON(); !bytes.Equal(got, want) {
		t.Fatalf("torn-tail resume verdict diverged:\ngot  %s\nwant %s", got, want)
	}
	if err := root2.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, good) {
		t.Fatalf("torn tail not truncated: log is %d bytes, want %d", len(after), len(good))
	}

	// In-claim damage: every line is acked, so a flipped byte is final.
	bad := append([]byte{}, good...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(logPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRoot(rcfg); !errors.Is(err, sweep.ErrCorrupt) {
		t.Fatalf("resume over in-claim damage = %v, want corruption error", err)
	}
}

// TestRootDeliverAfterClose: a closed root logs and acks nothing —
// Deliver returns ErrClosed — so a resume never misses a report a leaf
// saw acked (and dropped). Reads keep answering after Close.
func TestRootDeliverAfterClose(t *testing.T) {
	leafSvcs, union, _ := driveTree(t, 1, 3)
	reports := leafSvcs[0].Reports()
	cfg := RootConfig{Net: union.net, NetName: "figure4", Leaves: 1, Dir: t.TempDir()}
	root, err := NewRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Deliver(reports[0]); err != nil {
		t.Fatal(err)
	}
	want := root.VerdictJSON()
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Deliver(reports[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("deliver after Close = %v, want ErrClosed", err)
	}
	if st := root.Status(); st.Epochs != 1 || !bytes.Equal(root.VerdictJSON(), want) {
		t.Fatalf("closed root changed: %+v", st)
	}
	if err := root.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}

	cfg.Resume = true
	root2, err := NewRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer root2.Close()
	if st := root2.Status(); st.Epochs != 1 {
		t.Fatalf("resumed root at %+v, want the 1 acked epoch", st)
	}
	for _, rep := range reports[1:] {
		if _, err := root2.Deliver(rep); err != nil {
			t.Fatalf("deliver epoch %d after resume: %v", rep.Epoch, err)
		}
	}
	if got, want := root2.VerdictJSON(), union.VerdictJSON(); !bytes.Equal(got, want) {
		t.Fatalf("verdict after resume diverged:\ngot  %s\nwant %s", got, want)
	}
}

// TestRootHTTPReads: the root's read endpoints serve exactly what its
// accessors return.
func TestRootHTTPReads(t *testing.T) {
	leafSvcs, union, _ := driveTree(t, 2, 3)
	root, err := NewRoot(RootConfig{Net: union.net, Leaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range leafSvcs {
		for _, rep := range leaf.Reports() {
			if _, err := root.Deliver(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts := httptest.NewServer(NewRootServer(root))
	defer ts.Close()
	get := func(path, wantType string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), wantType) {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		return body
	}
	if got, want := get("/v1/verdict", "application/json"), append(root.VerdictJSON(), '\n'); !bytes.Equal(got, want) {
		t.Fatalf("GET /v1/verdict:\ngot  %s\nwant %s", got, want)
	}
	if ev := decodeVerdict(t, root.VerdictJSON()); ev.Epoch != 3 {
		t.Fatalf("root verdict at epoch %d, want 3", ev.Epoch)
	}
	if got, want := string(get("/v1/summary", "text/plain")), root.SummaryText(); got != want || !strings.Contains(got, "epoch 3:") {
		t.Fatalf("GET /v1/summary:\ngot  %s\nwant %s", got, want)
	}
	var st RootStatus
	if err := json.Unmarshal(get("/v1/status", "application/json"), &st); err != nil {
		t.Fatal(err)
	}
	if want := root.Status(); st != want {
		t.Fatalf("GET /v1/status = %+v, want %+v", st, want)
	}
}
