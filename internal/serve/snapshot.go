package serve

import (
	"encoding/json"
	"sort"

	"neutrality/internal/measure"
	"neutrality/internal/stats"
)

// The snapshot is the compaction half of the journal story: a single
// JSON document capturing the service's entire folded state, so the
// journal lines that produced it can be truncated away. It must be a
// *complete* capture — resume is snapshot restore + suffix replay, and
// the determinism contract demands the result be byte-identical to a
// process that never restarted. Everything the verdict, the summary
// window, or future folds depend on is here: the integer measurement
// table, the per-source sequence high-water marks (and the holes below
// them), the cumulative floating-point accumulators in their exact
// wire form, the served verdict bytes, the summary window, the
// open epoch's pending records, and — in leaf mode — the unacked
// report outbox (the only copy of snapshot-covered epochs the root has
// not confirmed).
//
// Integrity: the manifest stores the snapshot's SHA-256, and open
// refuses to trust a byte of a snapshot that does not hash to it. A
// snapshot is folded *acknowledged* state, so any damage to it is
// errkind.Corrupt — there is no torn-tail leniency for snapshots (they are
// written to a temp file and renamed, so a torn snapshot can only mean
// post-rename damage).

// snapWire is the snapshot document. Field names are part of the
// on-disk format (FORMAT.md).
type snapWire struct {
	Epoch   int   `json:"epoch"`
	Records int64 `json:"records"`
	Paths   int   `json:"paths"`
	// Seqs are the per-source delivery high-water marks; Holes the
	// never-seen gaps below them (see seqRange).
	Seqs  map[string]int64      `json:"seqs,omitempty"`
	Holes map[string][]seqRange `json:"holes,omitempty"`
	// Sent/Lost are the accumulated measurement table rows.
	Sent [][]int `json:"sent"`
	Lost [][]int `json:"lost"`
	// CumLoss/CumSketch are the cumulative loss-fraction accumulators,
	// in their stats wire forms (exact float64 round trip).
	CumLoss   stats.WelfordWire `json:"cum_loss"`
	CumSketch stats.SketchWire  `json:"cum_sketch"`
	// Verdict is the served EpochVerdict, verbatim; Listing the
	// summary window; Dropped the blocks aged out of it.
	Verdict json.RawMessage `json:"verdict"`
	Listing []string        `json:"listing,omitempty"`
	Dropped int             `json:"dropped,omitempty"`
	// Pending are the open epoch's records (already folded into
	// Sent/Lost), in arrival order.
	Pending []measure.StreamRecord `json:"pending,omitempty"`
	// Outbox is the leaf-mode report outbox: closed epochs not yet
	// acked by the root, sealed exactly as foldEpochLocked queued them.
	// Without it, compacting while the root is unreachable would strand
	// snapshot-covered unshipped reports — journal replay only
	// re-queues post-snapshot epochs, and the root's gap refusal would
	// then wedge the tree permanently.
	Outbox []EpochReport `json:"outbox,omitempty"`
}

// snapshotLocked captures the full service state as a snapshot
// document. Only called right after a successful publish, so the
// verdict bytes and the fold state agree.
func (s *Service) snapshotLocked() ([]byte, error) {
	w := snapWire{
		Epoch:     s.epoch,
		Records:   s.records,
		Paths:     s.net.NumPaths(),
		Sent:      s.meas.Sent,
		Lost:      s.meas.Lost,
		CumLoss:   s.cumLoss.Wire(),
		CumSketch: s.cumSketch.Wire(),
		Verdict:   json.RawMessage(s.verdict),
		Listing:   s.listing,
		Dropped:   s.dropped,
		Pending:   s.pending,
	}
	if len(s.seqs) > 0 {
		w.Seqs = s.seqs
	}
	if len(s.holes) > 0 {
		w.Holes = s.holes
	}
	if len(s.outbox) > 0 {
		w.Outbox = s.outbox
	}
	return json.Marshal(w)
}

// decodeSnapshot parses a hash-verified snapshot document. Parse
// failures are errkind.Corrupt: the hash matched, so the document is what
// was written — if it does not parse, acknowledged state is damaged.
func decodeSnapshot(data []byte) (*snapWire, error) {
	var w snapWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, errCorruptf("serve: snapshot does not parse: %v", err)
	}
	return &w, nil
}

// restoreSnapshot installs a decoded snapshot as the service state,
// validating every semantic invariant first — the bytes hash-verified,
// but the document must also be a state this service could have been
// in (right topology width, consistent table, accumulators in domain).
func (s *Service) restoreSnapshot(w *snapWire) error {
	paths := s.net.NumPaths()
	if w.Paths != paths {
		return errCorruptf("serve: snapshot covers %d paths, topology has %d", w.Paths, paths)
	}
	if w.Epoch < 0 || w.Records < 0 || w.Dropped < 0 {
		return errCorruptf("serve: snapshot counts out of domain (epoch=%d records=%d dropped=%d)", w.Epoch, w.Records, w.Dropped)
	}
	if len(w.Sent) != len(w.Lost) {
		return errCorruptf("serve: snapshot table has %d sent rows, %d lost rows", len(w.Sent), len(w.Lost))
	}
	meas := &measure.Measurements{Sent: w.Sent, Lost: w.Lost}
	for t := range w.Sent {
		if len(w.Sent[t]) != paths || len(w.Lost[t]) != paths {
			return errCorruptf("serve: snapshot table row %d has wrong width", t)
		}
	}
	if err := meas.Validate(); err != nil {
		return errCorruptf("serve: snapshot table: %v", err)
	}
	cumLoss, err := w.CumLoss.Check("snapshot cum_loss")
	if err != nil {
		return errCorruptf("serve: %v", err)
	}
	cumSketch, err := w.CumSketch.Check("snapshot cum_sketch", false)
	if err != nil {
		return errCorruptf("serve: %v", err)
	}
	if len(w.Verdict) == 0 || !json.Valid(w.Verdict) {
		return errCorruptf("serve: snapshot verdict is not valid JSON")
	}
	seqs := make(map[string]int64, len(w.Seqs))
	for src, hwm := range w.Seqs {
		if src == "" || hwm <= 0 {
			return errCorruptf("serve: snapshot sequence mark %q=%d invalid", src, hwm)
		}
		seqs[src] = hwm
	}
	holes := make(map[string][]seqRange, len(w.Holes))
	for src, hs := range w.Holes {
		hwm, ok := seqs[src]
		if !ok {
			return errCorruptf("serve: snapshot holes for unknown source %q", src)
		}
		if !sort.SliceIsSorted(hs, func(i, j int) bool { return hs[i].Lo < hs[j].Lo }) {
			return errCorruptf("serve: snapshot holes for %q out of order", src)
		}
		prev := int64(0)
		for _, h := range hs {
			if h.Lo <= prev || h.Hi < h.Lo || h.Hi >= hwm {
				return errCorruptf("serve: snapshot hole [%d,%d] for %q invalid below mark %d", h.Lo, h.Hi, src, hwm)
			}
			prev = h.Hi
		}
		holes[src] = hs
	}
	for i, r := range w.Pending {
		if err := r.Validate(paths, s.cfg.MaxIntervals); err != nil {
			return errCorruptf("serve: snapshot pending record %d: %v", i, err)
		}
		if r.Seq > seqs[r.Source] {
			return errCorruptf("serve: snapshot pending record %d above its source's sequence mark", i)
		}
	}
	prevEpoch := 0
	for i, rep := range w.Outbox {
		if _, ok := sealedReport(&rep); !ok {
			return errCorruptf("serve: snapshot outbox report %d fails its content hash", i)
		}
		if rep.Leaf != s.cfg.Leaf {
			return errCorruptf("serve: snapshot outbox report %d names leaf %q, config is %q", i, rep.Leaf, s.cfg.Leaf)
		}
		if rep.Epoch <= prevEpoch || rep.Epoch > w.Epoch {
			return errCorruptf("serve: snapshot outbox epoch %d out of order at report %d", rep.Epoch, i)
		}
		prevEpoch = rep.Epoch
	}

	s.meas = meas
	s.seqs = seqs
	s.holes = holes
	s.pending = w.Pending
	s.records = w.Records
	s.epoch = w.Epoch
	s.cumLoss = cumLoss
	s.cumSketch = cumSketch
	s.verdict = append([]byte(nil), w.Verdict...)
	s.listing = w.Listing
	s.dropped = w.Dropped
	s.outbox = append([]EpochReport(nil), w.Outbox...)
	if len(s.outbox) > 0 {
		select {
		case s.reportCh <- struct{}{}:
		default:
		}
	}
	return nil
}
