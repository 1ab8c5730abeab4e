// Package serve is the streaming inference service: the paper's batch
// pipeline (emulate → CSV → infer) inverted into a long-running
// receiver that ingests measurement records from many vantage points,
// folds them into the measurement table online, and re-runs the
// inference incrementally at epoch boundaries.
//
// The contract that shapes everything here is determinism: streaming N
// records in any arrival order within an epoch yields verdicts
// byte-identical to the batch InferMeasured run over the same records.
// Three mechanisms deliver it:
//
//   - The measurement table folds integer packet counts (Sent/Lost
//     increments), which commute — arrival order inside an epoch
//     cannot change the table an epoch closes with.
//   - Floating-point folds do not commute, so the epoch's loss-stat
//     aggregates (sweep.Welford + quantile sketch) are built at close
//     time over the epoch's records in a canonical sort order, never
//     in arrival order, and merged into the cumulative aggregates in
//     epoch order — the same merge laws the distributed sweep relies
//     on.
//   - Epoch boundaries are defined by accepted-record counts (or an
//     explicit CloseEpoch call), not by wall-clock or batch shape, so
//     any chunking of the same stream closes the same epochs.
//
// Delivery is at-least-once, idempotent, and strictly in order per
// source: every record carries a per-source sequence number, the
// service keeps one high-water mark per source, and any record at or
// below the mark is rejected — as a duplicate if that sequence was
// seen, or (counted separately) as out-of-order if it falls in a gap
// the source skipped over, so a gapped sender can detect its own loss.
// Backpressure follows the fleet's ErrNoWork convention: when the
// open-epoch buffer is full the service rejects with ErrBusy ("wait,
// then retry"), which the HTTP layer maps to 429 + Retry-After.
//
// With a journal directory configured, every accepted record and
// epoch-close marker is appended to a checksummed journal — since
// journal format v2 sharded by source hash across JournalShards files,
// compacted on a snapshot cadence — and a restarted service replays it
// to byte-identical verdicts; see journal.go and snapshot.go.
//
// An epoch close runs entirely under the service lock, the same way a
// Root folds: it journals and claims the close marker, folds the epoch
// in canonical order, then publishes — core.Infer over the live table
// through a core.IncrementalObserver that re-normalizes only the rows
// the epoch changed, the verdict, and the summary block (see tally).
// Its cost is O(rows changed + pathsets × intervals/64), not O(service
// lifetime), so concurrent Ingest calls wait out a short close rather
// than racing it. A service can also be one *leaf* of a multi-instance
// tree, shipping every closed epoch's aggregate to a Root; see root.go.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"neutrality/internal/cluster"
	"neutrality/internal/core"
	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/sweep"
)

// ErrBusy reports a full open-epoch buffer: the service is applying
// bounded-memory backpressure and the sender should retry after a
// pause (the HTTP layer answers 429 + Retry-After). Records accepted
// before the buffer filled stay accepted — re-sending the whole batch
// is safe because the sequence high-water marks drop the duplicates.
var ErrBusy = errors.New("serve: epoch buffer full, retry later")

// ErrClosed reports a call that would change a closed Service or Root:
// nothing is applied, journaled or acknowledged (the HTTP layers answer
// 503, which a sender retries). Reads keep working after Close.
var ErrClosed = errors.New("serve: closed")

// BusyError is the concrete ErrBusy rejection: it carries the pending
// count at rejection time so transports can tell the sender how much
// drain it is waiting on. errors.Is(err, ErrBusy) matches it.
type BusyError struct{ Pending int }

func (e *BusyError) Error() string { return fmt.Sprintf("%v (%d pending)", ErrBusy, e.Pending) }
func (e *BusyError) Unwrap() error { return ErrBusy }

// Config parameterizes a Service.
type Config struct {
	// Net is the serving topology; records address its path indices.
	Net *graph.Network
	// NetName names the topology in the journal identity: a resume must
	// give the same name, the empty name included.
	NetName string
	// Opts configures Algorithm 2 over the accumulated table (zero
	// value: measure.DefaultOptions).
	Opts measure.Options
	// Infer configures Algorithm 1 (zero value: core.DefaultConfig).
	Infer core.Config
	// EpochRecords closes an epoch after this many accepted records
	// (default 4096). 0 disables count-based closing — epochs then
	// close only via CloseEpoch (the CLI's wall-clock ticker), and the
	// determinism contract narrows to "same close points".
	EpochRecords int
	// MaxPending caps the open-epoch record buffer; past it Ingest
	// rejects with ErrBusy. Defaults to EpochRecords when count-based
	// closing is on (the buffer never outgrows an epoch), else 65536.
	MaxPending int
	// MaxIntervals caps the interval index a record may address, so a
	// stray record cannot balloon the table (default 1<<20).
	MaxIntervals int
	// Dir is the journal directory; empty runs in-memory only.
	Dir string
	// Resume adopts an existing journal in Dir instead of requiring an
	// empty directory.
	Resume bool
	// JournalShards partitions the journal by source hash into this
	// many journal-NNNN.jsonl files (default 1). Part of the journal
	// identity: a resume must use the shard count the journal was
	// written with. Verdicts are byte-identical for every shard count.
	JournalShards int
	// CompactEvery runs snapshot+truncate compaction every this many
	// closed epochs (0 disables), bounding journal disk usage; see
	// snapshot.go.
	CompactEvery int
	// Leaf, when non-empty, names this instance as one leaf of a
	// multi-instance tree: every closed epoch also queues an
	// EpochReport for shipment to a Root (see root.go, Reports).
	Leaf string
}

func (c Config) withDefaults() Config {
	if c.Opts == (measure.Options{}) {
		c.Opts = measure.DefaultOptions()
	}
	if c.EpochRecords < 0 {
		c.EpochRecords = 0
	}
	if c.EpochRecords == 0 && c.MaxPending <= 0 {
		c.MaxPending = 65536
	}
	if c.MaxPending <= 0 {
		c.MaxPending = c.EpochRecords
	}
	if c.MaxIntervals <= 0 {
		c.MaxIntervals = 1 << 20
	}
	if c.JournalShards <= 0 {
		c.JournalShards = 1
	}
	if c.CompactEvery < 0 {
		c.CompactEvery = 0
	}
	return c
}

// SliceVerdict is one slice's outcome in the epoch verdict.
type SliceVerdict struct {
	// Seq is the slice's link sequence (nslice key order).
	Seq string `json:"seq"`
	// Unsolvability is the slice's pair-estimate spread.
	Unsolvability float64 `json:"unsolvability"`
	// NonNeutral is the classification; Redundant marks sequences
	// removed by the post-pass.
	NonNeutral bool `json:"non_neutral"`
	Redundant  bool `json:"redundant,omitempty"`
	// Confidence is the heuristic decision margin in [0,1]: the
	// distance of the slice's unsolvability from the cluster threshold,
	// normalized by the centroid gap (or by the MinGap fallback when
	// the clustering did not split). It is a margin score, not a
	// calibrated probability.
	Confidence float64 `json:"confidence"`
}

// EpochVerdict is the service's latest inference outcome, marshaled
// canonically (field order below) so byte comparison is meaningful.
type EpochVerdict struct {
	// Epoch counts closed epochs; 0 means no inference has run yet.
	Epoch int `json:"epoch"`
	// Records is the cumulative accepted-record count at the close.
	Records int64 `json:"records"`
	// Intervals and Sources describe the accumulated table.
	Intervals int `json:"intervals"`
	Sources   int `json:"sources"`
	// NonNeutral is the network-level detection verdict; Confidence is
	// the weakest per-slice margin among the candidates (0 with none).
	NonNeutral bool    `json:"non_neutral"`
	Confidence float64 `json:"confidence"`
	// Slices carries the per-slice verdicts in candidate (key) order.
	Slices []SliceVerdict `json:"slices"`
}

// IngestResult reports one Ingest call's effect.
type IngestResult struct {
	// Accepted counts records applied by this call; Duplicates counts
	// records dropped by the per-source sequence high-water marks;
	// OutOfOrder counts rejected records that were never seen — they
	// fall inside a gap the source skipped over, so a sender seeing
	// this non-zero has violated the in-order contract and lost data.
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	OutOfOrder int `json:"out_of_order,omitempty"`
	// Epochs is the total closed-epoch count after the call.
	Epochs int `json:"epochs"`
	// Records is the cumulative accepted-record count after the call.
	Records int64 `json:"records"`
}

// Status is the operational counter snapshot /v1/status serves.
type Status struct {
	Records           int64   `json:"records"`
	Duplicates        int64   `json:"duplicates"`
	RejectsOutOfOrder int64   `json:"rejects_out_of_order"`
	RejectsValidation int64   `json:"rejects_validation"`
	RejectsBusy       int64   `json:"rejects_busy"`
	Epochs            int     `json:"epochs"`
	Pending           int     `json:"pending"`
	Sources           int     `json:"sources"`
	Intervals         int     `json:"intervals"`
	LastInferMillis   float64 `json:"last_infer_ms"`
	TotalInferMillis  float64 `json:"total_infer_ms"`
	// JournalStatus is set for a durable service only; its fields then
	// appear at the top level of the JSON.
	*JournalStatus
}

// JournalStatus is a durable service's journal health: how far the
// journal is from its last compaction.
type JournalStatus struct {
	// SnapshotEpoch is the epoch of the current snapshot (0 = none).
	SnapshotEpoch int `json:"snapshot_epoch"`
	// LinesSinceSnapshot is the current claim's line count summed over
	// the journal shards.
	LinesSinceSnapshot int `json:"journal_lines_since_snapshot"`
}

// seqRange is one never-seen gap [Lo, Hi] below a source's sequence
// high-water mark: the source skipped these sequence numbers. Ranges
// are kept sorted and disjoint; a later record landing inside one is
// rejected as out-of-order (the strict per-source in-order contract),
// not miscounted as a duplicate.
type seqRange struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// Service is the streaming inference state machine. All methods are
// safe for concurrent use.
type Service struct {
	tally // the lock, the table, the counts and the served verdict
	cfg   Config

	seqs    map[string]int64      // per-source delivery high-water marks
	holes   map[string][]seqRange // never-seen gaps below the marks
	pending []measure.StreamRecord

	// closedRows is the table's row count at the last close: every row
	// from it on is new since then. It starts at 0 — also after a
	// snapshot restore, whose first close re-derives every row.
	closedRows int

	counters Status

	// Leaf mode: closed-epoch reports awaiting shipment to the root,
	// in epoch order; reportCh pulses when one is queued.
	outbox   []EpochReport
	reportCh chan struct{}

	compactDue bool // a compaction cadence boundary passed; run after the next successful publish
	replaying  bool // journal replay in progress: no compaction, no re-journal
	closed     bool // Close ran: every write is ErrClosed

	jr *journal // nil when running in-memory
}

// maxSummaryBlocks bounds the per-epoch summary window; older blocks
// age out deterministically (the drop depends only on the epoch count).
const maxSummaryBlocks = 256

// New builds a Service, replaying the journal when Dir is set and
// Resume is on. Journal identity or integrity failures are tagged with
// sweep.ErrValidation / sweep.ErrCorrupt.
func New(cfg Config) (*Service, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("serve: config needs a network: %w", sweep.ErrValidation)
	}
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		seqs:     make(map[string]int64),
		holes:    make(map[string][]seqRange),
		reportCh: make(chan struct{}, 1),
	}
	if err := s.init(cfg.Net, cfg.Opts, cfg.Infer); err != nil {
		return nil, err
	}
	if cfg.Dir != "" {
		jr, snap, entries, claimed, err := openJournal(cfg)
		if err != nil {
			return nil, err
		}
		s.jr = jr
		s.replaying = true
		if snap != nil {
			err = s.restoreSnapshot(snap)
		}
		if err == nil {
			err = s.replayShards(entries, claimed)
		}
		if err == nil {
			err = jr.logs.Flush(s.records, s.epoch)
		}
		if err != nil {
			jr.logs.Close()
			return nil, err
		}
		s.replaying = false
	}
	return s, nil
}

// replayShards merge-replays the recovered journal shards into the
// service state. Each shard holds one source-partition of the record
// stream plus a copy of every epoch-close marker, so the merge is:
// apply every shard's leading records (the fold commutes, and each
// source's order is preserved because a source lives in one shard),
// then close the epoch once *every* shard's cursor sits on the next
// close marker. Each shard's log is then truncated to its adopted
// prefix — everything past it is torn tail or pre-snapshot residue.
//
// Violations inside a shard's claim are ErrCorrupt
// (acknowledged data is damaged); violations in the unclaimed tail
// stop adoption of that shard at that point. A close marker missing
// from some shard's tail discards the marker from the shards that do
// hold it: an incomplete close was never acknowledged, so dropping it
// re-opens the epoch exactly as the sender observed it.
func (s *Service) replayShards(shards [][]journalEntry, claimed []int) error {
	// pos[si] is shard si's replay cursor: the count of its lines
	// adopted so far. Stopping a shard cuts its entries at the cursor.
	pos := make([]int, len(shards))
	paths := s.net.NumPaths()

	stop := func(si int) { shards[si] = shards[si][:pos[si]] }

	for {
		// Apply every shard's leading records up to its next marker.
		for si, sh := range shards {
			for pos[si] < len(sh) && sh[pos[si]].Rec != nil {
				r := sh[pos[si]].Rec
				inClaim := pos[si] < claimed[si]
				if verr := r.Validate(paths, s.cfg.MaxIntervals); verr != nil {
					if inClaim {
						return errCorruptf("serve: journal shard %d record invalid: %v", si, verr)
					}
					stop(si)
					break
				}
				if want := shardOf(r.Source, len(shards)); want != si {
					if inClaim {
						return errCorruptf("serve: journal shard %d holds source %q belonging to shard %d", si, r.Source, want)
					}
					stop(si)
					break
				}
				if r.Seq <= s.seqs[r.Source] {
					if inClaim {
						return errCorruptf("serve: journal replays duplicate %s/%d", r.Source, r.Seq)
					}
					// Tail residue (pre-snapshot bytes after an interrupted
					// truncation) or a torn re-send: never acknowledged
					// under this claim, safe to drop.
					stop(si)
					break
				}
				s.applyLocked(*r)
				pos[si]++
			}
		}

		// An epoch closes only when every shard agrees on the marker.
		next := s.epoch + 1
		all, any := true, false
		for si, sh := range shards {
			if pos[si] >= len(sh) {
				all = false
				continue
			}
			e := sh[pos[si]]
			any = true
			if e.Close != next {
				if pos[si] < claimed[si] {
					return errCorruptf("serve: journal shard %d closes epoch %d after epoch %d", si, e.Close, s.epoch)
				}
				stop(si) // stale or future marker in the tail: residue
				all = false
			}
		}
		if !all {
			if !any {
				break // every shard exhausted or stopped: replay done
			}
			// Some shards hold the next marker, others do not: the close
			// never completed. Inside a claim that is impossible for a
			// consistent claim (claims are taken after all markers
			// flush); in the tail it is an unacked partial close.
			for si, sh := range shards {
				if pos[si] < len(sh) && sh[pos[si]].Close == next {
					if pos[si] < claimed[si] {
						return errCorruptf("serve: journal shard %d claims a close of epoch %d missing from other shards", si, next)
					}
					stop(si)
				}
			}
			break
		}
		// All shards at the marker: adopt it everywhere and fold.
		for si := range pos {
			pos[si]++
		}
		if err := s.foldEpochLocked(); err != nil {
			return err
		}
	}

	// Adopt each shard's replayed prefix: the log is truncated past its
	// last adopted line, and those lines count toward the next claim.
	return s.jr.logs.Adopt(pos)
}

// maxHoleRanges bounds the per-source hole set: a pathologically gappy
// sender would otherwise grow the ranges — and the binary search on
// every below-mark rejection, and every snapshot carrying them —
// without limit. On overflow the two oldest ranges coalesce into one
// spanning range. Sequence numbers between them were genuinely seen,
// so a rejection landing in a coalesced span over-reports as
// out-of-order rather than duplicate — the conservative direction: a
// sender may be told it lost data it did not, never that lost data was
// ingested. The merge depends only on the accepted-record sequence, so
// replay and snapshot restore rebuild the identical set.
const maxHoleRanges = 64

// applyLocked folds one accepted record into the live state. The fold
// is commutative (integer count increments), so within-epoch arrival
// order cannot change the table the close sees. A record that jumps
// the source's sequence forward records the skipped range as a hole,
// so a later below-mark arrival classifies as out-of-order, not
// duplicate.
func (s *Service) applyLocked(r measure.StreamRecord) {
	if hwm := s.seqs[r.Source]; r.Seq > hwm+1 {
		hs := append(s.holes[r.Source], seqRange{Lo: hwm + 1, Hi: r.Seq - 1})
		if len(hs) > maxHoleRanges {
			hs[1].Lo = hs[0].Lo
			hs = hs[1:]
		}
		s.holes[r.Source] = hs
	}
	s.seqs[r.Source] = r.Seq
	s.meas.EnsureIntervals(r.Interval+1, s.net.NumPaths())
	s.meas.Add(r.Interval, graph.PathID(r.Path), r.Sent, r.Lost)
	s.pending = append(s.pending, r)
	s.records++
}

// inHoleLocked reports whether seq falls in one of source's recorded
// gaps — a sequence number the service has provably never accepted.
func (s *Service) inHoleLocked(source string, seq int64) bool {
	hs := s.holes[source]
	// Ranges are sorted by Lo (they are appended with increasing marks).
	i := sort.Search(len(hs), func(i int) bool { return hs[i].Hi >= seq })
	return i < len(hs) && hs[i].Lo <= seq
}

// Ingest validates and applies a batch of stream records. Validation
// is two-phase: the whole batch is checked first, so a 400-class
// rejection (measure.ErrValidation) applies nothing. Application then
// proceeds record by record — records at or below their source's
// high-water mark are rejected (duplicates, or out-of-order when they
// land in a never-seen gap), epochs close inline when the accepted
// count reaches the boundary (the verdict is served before Ingest
// returns), and a full buffer stops the batch with ErrBusy, keeping
// the records already applied (the result reports how many; a full
// retry is idempotent). After Close it applies nothing and returns
// ErrClosed. Ingest copies the records it applies and does not retain
// recs.
func (s *Service) Ingest(recs []measure.StreamRecord) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.resultLocked(0, 0, 0), ErrClosed
	}
	for i, r := range recs {
		if err := r.Validate(s.net.NumPaths(), s.cfg.MaxIntervals); err != nil {
			s.counters.RejectsValidation++
			return s.resultLocked(0, 0, 0), fmt.Errorf("serve: batch record %d: %w", i, err)
		}
	}
	accepted, dups, ooo := 0, 0, 0
	for _, r := range recs {
		if r.Seq <= s.seqs[r.Source] {
			if s.inHoleLocked(r.Source, r.Seq) {
				ooo++
			} else {
				dups++
			}
			continue
		}
		if len(s.pending) >= s.cfg.MaxPending {
			s.counters.RejectsBusy++
			if err := s.flushLocked(); err != nil {
				return s.resultLocked(accepted, dups, ooo), err
			}
			return s.resultLocked(accepted, dups, ooo), &BusyError{Pending: len(s.pending)}
		}
		if s.jr != nil {
			if err := s.jr.appendRecord(&r); err != nil {
				return s.resultLocked(accepted, dups, ooo), err
			}
		}
		s.applyLocked(r)
		accepted++
		if s.cfg.EpochRecords > 0 && len(s.pending) >= s.cfg.EpochRecords {
			if err := s.closeLocked(); err != nil {
				return s.resultLocked(accepted, dups, ooo), err
			}
		}
	}
	res := s.resultLocked(accepted, dups, ooo)
	return res, s.flushLocked()
}

func (s *Service) resultLocked(accepted, dups, ooo int) IngestResult {
	s.counters.Duplicates += int64(dups)
	s.counters.RejectsOutOfOrder += int64(ooo)
	return IngestResult{Accepted: accepted, Duplicates: dups, OutOfOrder: ooo, Epochs: s.epoch, Records: s.records}
}

// flushLocked pushes buffered journal writes to the files and claims
// them before an Ingest acknowledges: an acked record must survive a
// process kill, inside the claim.
func (s *Service) flushLocked() error {
	if s.jr == nil {
		return nil
	}
	return s.jr.logs.Flush(s.records, s.epoch)
}

// CloseEpoch closes the open epoch explicitly (the wall-clock path and
// end-of-stream flush). A service with no pending records is left
// untouched, so idle ticks do not mint empty epochs. After Close it
// returns ErrClosed.
func (s *Service) CloseEpoch() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if len(s.pending) == 0 {
		return false, nil
	}
	return true, s.closeLocked()
}

// closeLocked records the epoch boundary durably, then folds and
// publishes it. The marker is journaled first so a replayed journal
// closes at exactly the same record counts this process did, and it is
// claimed before the fold: the claim then proves the boundary, so a
// restart replays the same epochs.
func (s *Service) closeLocked() error {
	if s.jr != nil {
		if err := s.jr.appendClose(s.epoch + 1); err != nil {
			return err
		}
		if err := s.jr.logs.Flush(s.records, s.epoch+1); err != nil {
			return err
		}
	}
	return s.foldEpochLocked()
}

// canonicalOrder sorts stream records by (interval, path, source, seq).
// The keys are unique after dedup, so the unstable sort fixes the order.
// Less compares through pointers: the records are 56 bytes, and a
// comparator taking them by value (slices.SortFunc) copies two per call.
type canonicalOrder []measure.StreamRecord

func (o canonicalOrder) Len() int      { return len(o) }
func (o canonicalOrder) Swap(i, j int) { o[i], o[j] = o[j], o[i] }
func (o canonicalOrder) Less(i, j int) bool {
	a, b := &o[i], &o[j]
	if a.Interval != b.Interval {
		return a.Interval < b.Interval
	}
	if a.Path != b.Path {
		return a.Path < b.Path
	}
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	return a.Seq < b.Seq
}

// foldEpochLocked folds the open epoch — the canonical-order
// floating-point folds, the leaf report — and publishes it, then runs
// any due compaction. Journal replay enters here directly: its close
// markers are already on disk. Everything the fold produces is a pure
// function of the accepted-record multiset and the epoch partitioning.
func (s *Service) foldEpochLocked() error {
	// Canonical order for the floating-point folds: FP addition does
	// not commute, so the epoch's loss aggregate is built over the
	// sorted records, never in arrival order. The buffer is emptied
	// below, so it is sorted in place.
	epochRecs := s.pending
	sort.Sort(canonicalOrder(epochRecs))
	var epochLoss sweep.Welford
	epochSketch := sweep.NewUnitSketch()
	for _, r := range epochRecs {
		if r.Sent == 0 {
			continue // idle probes carry no loss fraction
		}
		frac := float64(r.Lost) / float64(r.Sent)
		epochLoss.Add(frac)
		epochSketch.Add(frac)
	}

	// The sort puts the epoch's lowest interval first: no earlier row
	// changed since the previous close, and every row from closedRows
	// on is new since then.
	from := s.closedRows
	if len(epochRecs) > 0 {
		from = min(from, epochRecs[0].Interval)
	}
	s.closedRows = s.meas.Intervals()
	ms, err := s.publishLocked(from, len(s.seqs), epochLoss, epochSketch)
	s.counters.LastInferMillis = ms
	s.counters.TotalInferMillis += ms
	if s.cfg.Leaf != "" {
		// Queued even when the publish failed: the report is sealed from
		// the fold, and dropping it would open a permanent epoch gap in
		// the leaf→root tree.
		rep := EpochReport{
			Leaf:       s.cfg.Leaf,
			Epoch:      s.epoch,
			Records:    len(epochRecs),
			Sources:    len(s.seqs),
			Loss:       sweep.WireWelford(epochLoss),
			LossSketch: sweep.WireSketch(epochSketch),
		}
		// The canonical sort groups (interval, path), so the sparse
		// count delta aggregates in one linear pass.
		for _, r := range epochRecs {
			if n := len(rep.Counts); n > 0 && rep.Counts[n-1].Interval == r.Interval && rep.Counts[n-1].Path == r.Path {
				rep.Counts[n-1].Sent += r.Sent
				rep.Counts[n-1].Lost += r.Lost
			} else {
				rep.Counts = append(rep.Counts, PathCount{Interval: r.Interval, Path: r.Path, Sent: r.Sent, Lost: r.Lost})
			}
		}
		sealReport(&rep)
		s.outbox = append(s.outbox, rep)
		select {
		case s.reportCh <- struct{}{}:
		default:
		}
	}
	s.pending = s.pending[:0]
	if s.cfg.CompactEvery > 0 && s.epoch%s.cfg.CompactEvery == 0 {
		s.compactDue = true
	}
	if err != nil {
		// The served verdict stays at the previous epoch's bytes and the
		// closing caller gets the error; compaction stays due and runs
		// after the next successful publish, so a snapshot's verdict
		// bytes always agree with its fold state.
		return err
	}
	if s.compactDue && s.jr != nil && !s.replaying {
		data, err := s.snapshotLocked()
		if err != nil {
			return fmt.Errorf("serve: snapshot marshal: %w", err)
		}
		if err := s.jr.compact(s.epoch, data, s.records, s.epoch); err != nil {
			return err
		}
		s.compactDue = false
	}
	return nil
}

// resolveMinGap applies the cluster fallback default to an inference
// config's MinGap.
func resolveMinGap(cfg core.Config) float64 {
	if cfg.MinGap > 0 {
		return cfg.MinGap
	}
	return cluster.DefaultMinGap
}

// buildVerdict renders an inference result as the epoch verdict,
// including the per-slice confidence margins. It is a pure function of
// its arguments, shared by the Service and the Root.
func buildVerdict(res *core.Result, epoch int, records int64, intervals, sources int, minGap float64) EpochVerdict {
	ev := EpochVerdict{
		Epoch:      epoch,
		Records:    records,
		Intervals:  intervals,
		Sources:    sources,
		NonNeutral: res.NetworkNonNeutral(),
	}
	first := true
	for _, v := range res.Candidates {
		conf := confidence(res.Cluster, v.Unsolvability, minGap)
		ev.Slices = append(ev.Slices, SliceVerdict{
			Seq:           v.SeqNames(),
			Unsolvability: v.Unsolvability,
			NonNeutral:    v.NonNeutral,
			Redundant:     v.Redundant,
			Confidence:    conf,
		})
		if first || conf < ev.Confidence {
			ev.Confidence = conf
			first = false
		}
	}
	return ev
}

// confidence is the heuristic decision margin of one slice: how far
// its unsolvability sits from the decision boundary, normalized by the
// cluster's centroid gap (or, when the clustering did not split, by
// the absolute MinGap threshold the fallback rule uses), clamped to
// [0,1]. A slice right at the boundary scores 0; one a full gap away
// scores 1. It is deterministic — a pure function of the inference
// result — and deliberately not a calibrated probability.
func confidence(cl cluster.Result, unsolv, minGap float64) float64 {
	var margin float64
	if cl.Split && cl.HighCentroid > cl.LowCentroid {
		margin = (unsolv - cl.Threshold) / (cl.HighCentroid - cl.LowCentroid)
	} else {
		margin = (unsolv - minGap) / minGap
	}
	if margin < 0 {
		margin = -margin
	}
	if margin > 1 {
		margin = 1
	}
	return margin
}

// renderEpochSummary renders one closed epoch's summary block. Only
// deterministic quantities appear: operational counters (duplicates,
// latency) live in Status, not here, so the summary stays
// byte-identical across arrival orders, chunkings, and restarts.
func renderEpochSummary(ev EpochVerdict, loss sweep.Welford, sk *sweep.Sketch, cumLoss sweep.Welford, cumSk *sweep.Sketch) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "epoch %d: %d records total, %d intervals, %d sources\n",
		ev.Epoch, ev.Records, ev.Intervals, ev.Sources)
	fmt.Fprintf(&sb, "  epoch loss: n=%d mean=%.5f sd=%.5f p50=%.5f p90=%.5f max=%.5f\n",
		loss.N, loss.Mean, loss.StdDev(), sk.Quantile(0.5), sk.Quantile(0.9), sk.Quantile(1))
	fmt.Fprintf(&sb, "  cumulative loss: n=%d mean=%.5f sd=%.5f p50=%.5f p90=%.5f\n",
		cumLoss.N, cumLoss.Mean, cumLoss.StdDev(), cumSk.Quantile(0.5), cumSk.Quantile(0.9))
	verdict := "neutral"
	if ev.NonNeutral {
		verdict = "NON-NEUTRAL"
	}
	nn := 0
	for _, sv := range ev.Slices {
		if sv.NonNeutral && !sv.Redundant {
			nn++
		}
	}
	fmt.Fprintf(&sb, "  verdict: %s confidence=%.3f (%d non-neutral of %d slices)\n",
		verdict, ev.Confidence, nn, len(ev.Slices))
	return sb.String()
}

// tally is the epoch state a leaf Service and a Root share, all under
// one lock: the accumulated table and its Algorithm 2 cache, the
// cumulative loss accumulators, the epoch and record counts, and the
// served verdict and summary window. Both close an epoch the same way —
// fold it in canonical order, then publishLocked — so the inference
// runs in one place.
type tally struct {
	mu    sync.Mutex
	net   *graph.Network
	infer core.Config // Algorithm 1 (zero value: core.DefaultConfig)

	meas    *measure.Measurements     // accumulated fold of every accepted record
	obs     *core.IncrementalObserver // Algorithm 2 cache over meas
	records int64                     // cumulative accepted records
	epoch   int                       // closed epochs

	// Cumulative loss-fraction aggregates: per-epoch folds (canonical
	// order) merged in epoch order — the sweep merge laws make this
	// deterministic under any within-epoch arrival order.
	cumLoss   sweep.Welford
	cumSketch *sweep.Sketch

	verdict []byte   // latest EpochVerdict, canonical JSON
	listing []string // per-epoch summary blocks (bounded window)
	dropped int      // summary blocks aged out of the window

	// verdictMarshal is a test seam: when non-nil it replaces
	// json.Marshal for the epoch verdict (simulating a marshal failure
	// at publish time).
	verdictMarshal func(EpochVerdict) ([]byte, error)
}

// init sets up an empty tally serving the zero verdict.
func (t *tally) init(net *graph.Network, opts measure.Options, infer core.Config) error {
	t.net = net
	t.infer = infer
	t.meas = measure.NewMeasurements(0, net.NumPaths())
	t.obs = &core.IncrementalObserver{Opts: opts}
	t.cumSketch = sweep.NewUnitSketch()
	v, err := json.Marshal(EpochVerdict{})
	t.verdict = v
	return err
}

func (t *tally) inferConfig() core.Config {
	if t.infer == (core.Config{}) {
		return core.DefaultConfig()
	}
	return t.infer
}

// publishLocked closes one folded epoch: it merges the epoch's loss
// folds into the cumulative ones, counts the epoch, re-runs the
// inference over the live table — Algorithm 2 re-derives only the rows
// from `from` on, which cover every row the epoch changed — and serves
// the new verdict and summary block. It returns the inference time in
// ms. When the verdict does not marshal the epoch still counts, but the
// served verdict and summary stay at the previous epoch's.
func (t *tally) publishLocked(from, sources int, loss sweep.Welford, sk *sweep.Sketch) (float64, error) {
	t.cumLoss.Merge(loss)
	t.cumSketch.Merge(sk) // same unit transform by construction
	t.epoch++

	cfg := t.inferConfig()
	start := time.Now()
	t.obs.Update(t.meas, from)
	res := core.Infer(t.net, t.obs, cfg)
	ms := float64(time.Since(start).Microseconds()) / 1000

	ev := buildVerdict(res, t.epoch, t.records, t.meas.Intervals(), sources, resolveMinGap(cfg))
	marshal := json.Marshal
	if t.verdictMarshal != nil {
		marshal = func(v any) ([]byte, error) { return t.verdictMarshal(v.(EpochVerdict)) }
	}
	vb, err := marshal(ev)
	if err != nil {
		return ms, fmt.Errorf("serve: epoch %d verdict marshal: %w", t.epoch, err)
	}
	t.verdict = vb
	t.listing = append(t.listing, renderEpochSummary(ev, loss, sk, t.cumLoss, t.cumSketch))
	if len(t.listing) > maxSummaryBlocks {
		t.dropped += len(t.listing) - maxSummaryBlocks
		t.listing = t.listing[len(t.listing)-maxSummaryBlocks:]
	}
	return ms, nil
}

// VerdictJSON returns the latest epoch verdict as canonical JSON (the
// zero verdict `{"epoch":0,...}` before any epoch closes). A close
// serves its verdict before the closing call returns, so a caller that
// just ingested past a boundary reads that boundary's verdict.
func (t *tally) VerdictJSON() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]byte(nil), t.verdict...)
}

// SummaryText returns the per-epoch summary window, oldest first. The
// text is a pure function of the accepted records and epoch
// boundaries.
func (t *tally) SummaryText() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sb strings.Builder
	if t.dropped > 0 {
		fmt.Fprintf(&sb, "(%d earlier epochs aged out of the summary window)\n", t.dropped)
	}
	for _, b := range t.listing {
		sb.WriteString(b)
	}
	return sb.String()
}

// Status snapshots the operational counters.
func (s *Service) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.counters
	st.Records = s.records
	st.Epochs = s.epoch
	st.Pending = len(s.pending)
	st.Sources = len(s.seqs)
	st.Intervals = s.meas.Intervals()
	if s.jr != nil {
		st.JournalStatus = &JournalStatus{SnapshotEpoch: s.jr.logs.Gen(), LinesSinceSnapshot: s.jr.logs.Claimed()}
	}
	return st
}

// Reports returns a copy of the unshipped leaf reports, oldest first
// (empty unless Config.Leaf is set). The caller ships them in order
// and calls AckReports with the last epoch the root accepted.
func (s *Service) Reports() []EpochReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]EpochReport(nil), s.outbox...)
}

// AckReports drops queued reports with Epoch <= through.
func (s *Service) AckReports(through int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for i < len(s.outbox) && s.outbox[i].Epoch <= through {
		i++
	}
	s.outbox = append(s.outbox[:0], s.outbox[i:]...)
}

// ReportSignal pulses when a leaf report is queued (coalesced).
func (s *Service) ReportSignal() <-chan struct{} { return s.reportCh }

// Measurements implements measure.Source: it returns a deep copy of
// the accumulated table, so batch tooling can run over a live
// service's data without racing it.
func (s *Service) Measurements() (*measure.Measurements, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := measure.NewMeasurements(s.meas.Intervals(), s.net.NumPaths())
	for t := range s.meas.Sent {
		copy(out.Sent[t], s.meas.Sent[t])
		copy(out.Lost[t], s.meas.Lost[t])
	}
	return out, nil
}

// Close flushes and claims the journal. Afterwards every write
// (Ingest, CloseEpoch) returns ErrClosed; reads keep working.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.jr == nil {
		return nil
	}
	err := s.jr.logs.Flush(s.records, s.epoch)
	if cerr := s.jr.logs.Close(); err == nil {
		err = cerr
	}
	s.jr = nil
	return err
}
