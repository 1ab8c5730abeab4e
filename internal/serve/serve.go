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
// Backpressure mirrors the fleet's ErrNoWork convention: when the
// open-epoch buffer is full the service rejects with ErrBusy ("wait,
// then retry"), which the HTTP layer maps to 429 + Retry-After.
//
// With a journal directory configured, every accepted record and
// epoch-close marker is appended to a checksummed journal — since
// journal format v2 sharded by source hash across JournalShards files,
// compacted on a snapshot cadence — and a restarted service replays it
// to byte-identical verdicts; see journal.go and snapshot.go.
//
// Epoch closes do not stall ingest on inference: the close folds the
// epoch under the lock and hands the table rows the epoch changed to
// the inference side, which — outside the lock, taking turns in epoch
// order — installs them in its mirror of the table, runs core.Infer
// through a core.IncrementalObserver that re-normalizes only those
// rows, and publishes the verdict atomically, so concurrent Ingest
// calls proceed while inference runs. Rows are handed over by
// reference and copied only when a late record lands on one (copy on
// write), so a close copies nothing, and its cost is O(rows changed +
// pathsets × intervals/64), not O(service lifetime). A service can
// also be one *leaf* of a multi-instance tree, shipping every closed
// epoch's aggregate to a Root; see root.go.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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
	// NetName stamps the journal manifest so a resume under a different
	// topology is rejected; empty skips the name check.
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
	mu  sync.Mutex
	pub *sync.Cond // signals verdict publication / epoch settle (on mu)
	cfg Config
	net *graph.Network

	meas    *measure.Measurements // accumulated fold of every accepted record
	seqs    map[string]int64      // per-source delivery high-water marks
	holes   map[string][]seqRange // never-seen gaps below the marks
	pending []measure.StreamRecord
	records int64 // cumulative accepted records

	// Rows of meas below shared are shared with the inference side's
	// mirror: a record landing on one copies the row first, and owned
	// marks the rows copied since the last close.
	shared int
	owned  map[int]bool

	// epoch counts folded (closed) epochs; published counts epochs
	// whose verdict has been installed. They differ only while an
	// inference runs outside the lock (published < epoch).
	epoch     int
	published int

	// Cumulative loss-fraction aggregates: per-epoch folds (canonical
	// order) merged in epoch order — the PR 5 merge laws make this
	// deterministic under any within-epoch arrival order.
	cumLoss   sweep.Welford
	cumSketch *sweep.Sketch

	verdict  []byte   // latest EpochVerdict, canonical JSON
	listing  []string // per-epoch summary blocks (bounded window)
	dropped  int      // summary blocks aged out of the window
	counters Status

	// Leaf mode: closed-epoch reports awaiting shipment to the root,
	// in epoch order; reportCh pulses when one is queued.
	outbox   []EpochReport
	reportCh chan struct{}

	compactDue bool // a compaction cadence boundary passed; run when settled
	replaying  bool // journal replay in progress: no compaction, no re-journal

	// verdictMarshal is a test seam: when non-nil it replaces
	// json.Marshal for the epoch verdict (simulating a marshal failure
	// at publish time).
	verdictMarshal func(EpochVerdict) ([]byte, error)

	jr *journal // nil when running in-memory

	// The inference side: the table as of the last inferred epoch and
	// the per-slice Algorithm 2 cache over it. Only the close whose
	// epoch is next to publish touches them (see finishClose), so they
	// need no lock of their own. Both start empty — also after a
	// snapshot restore, whose first close then hands over every row.
	mirror measure.Measurements
	obs    *core.IncrementalObserver
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
		cfg:       cfg,
		net:       cfg.Net,
		meas:      measure.NewMeasurements(0, cfg.Net.NumPaths()),
		seqs:      make(map[string]int64),
		holes:     make(map[string][]seqRange),
		cumSketch: sweep.NewUnitSketch(),
		reportCh:  make(chan struct{}, 1),
		obs:       &core.IncrementalObserver{Opts: cfg.Opts},
	}
	s.pub = sync.NewCond(&s.mu)
	if v, err := json.Marshal(EpochVerdict{}); err != nil {
		return nil, err
	} else {
		s.verdict = v
	}
	if cfg.Dir != "" {
		jr, snap, shards, err := openJournal(cfg)
		if err != nil {
			return nil, err
		}
		s.jr = jr
		s.replaying = true
		if snap != nil {
			err = s.restoreSnapshot(snap)
		}
		if err == nil {
			err = s.replayShards(shards)
		}
		if err == nil {
			err = jr.flush(s.records, s.epoch)
		}
		if err != nil {
			jr.close()
			return nil, err
		}
		s.replaying = false
	}
	return s, nil
}

// Paths returns the serving topology's path count.
func (s *Service) Paths() int { return s.net.NumPaths() }

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
func (s *Service) replayShards(shards []shardRecovery) error {
	type cursor struct {
		i       int
		stopped bool
	}
	curs := make([]cursor, len(shards))
	paths := s.net.NumPaths()

	stop := func(si int) { curs[si].stopped = true }

	for {
		// Apply every shard's leading records up to its next marker.
		for si := range shards {
			c := &curs[si]
			sh := &shards[si]
			for !c.stopped && c.i < len(sh.entries) && sh.entries[c.i].Rec != nil {
				r := sh.entries[c.i].Rec
				inClaim := c.i < sh.claimed
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
				c.i++
			}
		}

		// An epoch closes only when every shard agrees on the marker.
		next := s.epoch + 1
		all, any := true, false
		for si := range shards {
			c := &curs[si]
			if c.stopped || c.i >= len(shards[si].entries) {
				all = false
				continue
			}
			e := shards[si].entries[c.i]
			any = true
			if e.Close != next {
				if c.i < shards[si].claimed {
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
			for si := range shards {
				c := &curs[si]
				if !c.stopped && c.i < len(shards[si].entries) && shards[si].entries[c.i].Close == next {
					if c.i < shards[si].claimed {
						return errCorruptf("serve: journal shard %d claims a close of epoch %d missing from other shards", si, next)
					}
					stop(si)
				}
			}
			break
		}
		// All shards at the marker: adopt it everywhere and fold.
		for si := range curs {
			curs[si].i++
		}
		job := s.foldEpochLocked()
		if err := s.finishClose(job); err != nil {
			return err
		}
	}

	// Adopt each shard's replayed prefix: truncate the log to the end of
	// its last adopted line, and count those lines toward the claim.
	for si := range shards {
		n := curs[si].i
		keep := int64(0)
		if n > 0 {
			keep = shards[si].ends[n-1]
		}
		if err := s.jr.logs[si].Truncate(keep); err != nil {
			return err
		}
		s.jr.lines[si] = n
	}
	return nil
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
	if t := r.Interval; t < s.shared && !s.owned[t] {
		if s.owned == nil {
			s.owned = make(map[int]bool)
		}
		s.meas.Sent[t] = slices.Clone(s.meas.Sent[t])
		s.meas.Lost[t] = slices.Clone(s.meas.Lost[t])
		s.owned[t] = true
	}
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
// count reaches the boundary (inference runs outside the lock; the
// verdict is published before Ingest returns), and a full buffer stops
// the batch with ErrBusy, keeping the records already applied (the
// result reports how many; a full retry is idempotent). Ingest copies
// the records it applies and does not retain recs.
func (s *Service) Ingest(recs []measure.StreamRecord) (IngestResult, error) {
	s.mu.Lock()
	for i, r := range recs {
		if err := r.Validate(s.net.NumPaths(), s.cfg.MaxIntervals); err != nil {
			s.counters.RejectsValidation++
			res := s.resultLocked(0, 0, 0)
			s.mu.Unlock()
			return res, fmt.Errorf("serve: batch record %d: %w", i, err)
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
			ferr := s.flushLocked()
			res := s.resultLocked(accepted, dups, ooo)
			pending := len(s.pending)
			s.mu.Unlock()
			if ferr != nil {
				return res, ferr
			}
			return res, &BusyError{Pending: pending}
		}
		if s.jr != nil {
			if err := s.jr.appendRecord(&r); err != nil {
				res := s.resultLocked(accepted, dups, ooo)
				s.mu.Unlock()
				return res, err
			}
		}
		s.applyLocked(r)
		accepted++
		if s.cfg.EpochRecords > 0 && len(s.pending) >= s.cfg.EpochRecords {
			job, err := s.closeBeginLocked()
			if err != nil {
				res := s.resultLocked(accepted, dups, ooo)
				s.mu.Unlock()
				return res, err
			}
			// Inference runs without the lock: concurrent Ingest calls
			// proceed into the next epoch meanwhile.
			s.mu.Unlock()
			if err := s.finishClose(job); err != nil {
				s.mu.Lock()
				res := s.resultLocked(accepted, dups, ooo)
				s.mu.Unlock()
				return res, err
			}
			s.mu.Lock()
		}
	}
	res := s.resultLocked(accepted, dups, ooo)
	err := s.flushLocked()
	s.mu.Unlock()
	return res, err
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
	return s.jr.flush(s.records, s.epoch)
}

// CloseEpoch closes the open epoch explicitly (the wall-clock path and
// end-of-stream flush). A service with no pending records is left
// untouched, so idle ticks do not mint empty epochs.
func (s *Service) CloseEpoch() (bool, error) {
	s.mu.Lock()
	if len(s.pending) == 0 {
		s.mu.Unlock()
		return false, nil
	}
	job, err := s.closeBeginLocked()
	if err != nil {
		s.mu.Unlock()
		return true, err
	}
	s.mu.Unlock()
	return true, s.finishClose(job)
}

// closeJob is one folded epoch in flight between closeBeginLocked and
// finishClose: everything the out-of-lock inference and the ordered
// publish need, snapshotted at the close point so later folds cannot
// race it.
type closeJob struct {
	epoch     int
	records   int64
	intervals int
	sources   int
	// sent and lost are the table's rows [from, intervals) at the
	// close — every row added or changed since the previous close —
	// now shared with the inference side.
	from       int
	sent, lost [][]int
	epochLoss  sweep.Welford
	epochSk    *sweep.Sketch
	cumLoss    sweep.Welford // cumulative accumulators *at this epoch*
	cumSk      *sweep.Sketch
	report     *EpochReport // leaf mode: sealed aggregate for the root
}

// closeBeginLocked records the epoch boundary durably, then folds it.
// The marker is journaled first so a replayed journal closes at
// exactly the same record counts this process did.
func (s *Service) closeBeginLocked() (*closeJob, error) {
	if s.jr != nil {
		if err := s.jr.appendClose(s.epoch + 1); err != nil {
			return nil, err
		}
		// The close is claimed before it folds: the claim then proves
		// the boundary, so a restart replays the same epochs.
		if err := s.jr.flush(s.records, s.epoch+1); err != nil {
			return nil, err
		}
	}
	return s.foldEpochLocked(), nil
}

// foldEpochLocked folds the open epoch under the lock: the canonical-
// order floating-point folds, the cumulative merges, the epoch count —
// everything order-sensitive — plus the table rows the epoch changed,
// for the inference to run on outside the lock. Everything here is a
// pure function of the accepted-record multiset and the epoch
// partitioning.
func (s *Service) foldEpochLocked() *closeJob {
	// Canonical order for the floating-point folds: FP addition does
	// not commute, so the epoch's loss aggregate is built over a sorted
	// copy, never in arrival order.
	epochRecs := append([]measure.StreamRecord(nil), s.pending...)
	sort.Slice(epochRecs, func(i, j int) bool {
		a, b := epochRecs[i], epochRecs[j]
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
	})
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
	s.cumLoss.Merge(epochLoss)
	s.cumSketch.Merge(epochSketch) // same unit transform by construction

	s.epoch++
	s.pending = s.pending[:0]

	// The sort puts the epoch's lowest interval first: no earlier row
	// changed since the previous close, and every row from s.shared on
	// is new since then.
	from := s.shared
	if len(epochRecs) > 0 {
		from = min(from, epochRecs[0].Interval)
	}
	T := s.meas.Intervals()
	s.shared = T
	clear(s.owned)
	cumSk := *s.cumSketch // value copy: fixed-size bin array
	job := &closeJob{
		epoch:     s.epoch,
		records:   s.records,
		intervals: T,
		sources:   len(s.seqs),
		from:      from,
		sent:      slices.Clone(s.meas.Sent[from:]),
		lost:      slices.Clone(s.meas.Lost[from:]),
		epochLoss: epochLoss,
		epochSk:   epochSketch,
		cumLoss:   s.cumLoss,
		cumSk:     &cumSk,
	}
	if s.cfg.Leaf != "" {
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
		job.report = &rep
	}
	return job
}

// finishClose runs the inference for one folded epoch *without*
// holding the service lock, then publishes the verdict atomically.
// Inference takes turns in epoch order: a close waits until the
// previous epoch has published, so the mirror table and the observer's
// cache advance one epoch at a time and two closes never mutate them
// concurrently. Settled-state side effects — queueing the leaf report,
// running due compaction — happen inside the publish critical section.
//
// Every path out of the critical section advances s.published and
// broadcasts, including the verdict-marshal failure path: an early
// return that skipped the advance would leave every later epoch's
// publish (and Close) waiting on the condition forever.
func (s *Service) finishClose(job *closeJob) error {
	s.mu.Lock()
	for s.published != job.epoch-1 {
		s.pub.Wait()
	}
	s.mu.Unlock()

	start := time.Now()
	s.mirror.Sent = append(s.mirror.Sent[:job.from], job.sent...)
	s.mirror.Lost = append(s.mirror.Lost[:job.from], job.lost...)
	s.obs.Update(&s.mirror, job.from)
	res := core.Infer(s.net, s.obs, s.inferConfig())
	ms := float64(time.Since(start).Microseconds()) / 1000

	ev := buildVerdict(res, job.epoch, job.records, job.intervals, job.sources, resolveMinGap(s.inferConfig()))
	marshal := json.Marshal
	if s.verdictMarshal != nil {
		marshal = func(v any) ([]byte, error) { return s.verdictMarshal(v.(EpochVerdict)) }
	}
	vb, verr := marshal(ev)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.published = job.epoch
	defer s.pub.Broadcast()
	s.counters.LastInferMillis = ms
	s.counters.TotalInferMillis += ms
	if job.report != nil {
		// Queued even when the publish fails below: the report was
		// sealed at fold time, and dropping it would open a permanent
		// epoch gap in the leaf→root tree.
		s.outbox = append(s.outbox, *job.report)
		select {
		case s.reportCh <- struct{}{}:
		default:
		}
	}
	if s.cfg.CompactEvery > 0 && job.epoch%s.cfg.CompactEvery == 0 {
		s.compactDue = true
	}
	if verr != nil {
		// The served verdict stays at the previous epoch's bytes and the
		// closing caller gets the error; compaction stays due and runs at
		// the next settled publish.
		return fmt.Errorf("serve: epoch %d verdict marshal: %w", job.epoch, verr)
	}
	s.verdict = vb
	s.listing = append(s.listing, renderEpochSummary(ev, job.epochLoss, job.epochSk, job.cumLoss, job.cumSk))
	if len(s.listing) > maxSummaryBlocks {
		s.dropped += len(s.listing) - maxSummaryBlocks
		s.listing = s.listing[len(s.listing)-maxSummaryBlocks:]
	}
	var cerr error
	if s.compactDue && s.jr != nil && !s.replaying && s.published == s.epoch {
		// Settled: every folded epoch is published, so the snapshot's
		// verdict bytes agree with its fold state.
		if cerr = s.compactLocked(); cerr == nil {
			s.compactDue = false
		}
	}
	return cerr
}

// compactLocked captures the snapshot document and runs the journal's
// snapshot+truncate sequence. Caller guarantees settled state.
func (s *Service) compactLocked() error {
	data, err := s.snapshotLocked()
	if err != nil {
		return fmt.Errorf("serve: snapshot marshal: %w", err)
	}
	return s.jr.compact(s.epoch, data, s.records, s.epoch)
}

func (s *Service) inferConfig() core.Config {
	if s.cfg.Infer == (core.Config{}) {
		return core.DefaultConfig()
	}
	return s.cfg.Infer
}

// copyMeasLocked deep-copies the accumulated table (for the
// measure.Source view).
func (s *Service) copyMeasLocked() *measure.Measurements {
	out := measure.NewMeasurements(s.meas.Intervals(), s.net.NumPaths())
	for t := range s.meas.Sent {
		copy(out.Sent[t], s.meas.Sent[t])
		copy(out.Lost[t], s.meas.Lost[t])
	}
	return out
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
// byte-identical across arrival orders, chunkings, and restarts. The
// cumulative accumulators are the values *at that epoch*, so summaries
// published out of the lock cannot see later folds.
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

// VerdictJSON returns the latest epoch verdict as canonical JSON (the
// zero verdict `{"epoch":0,...}` before any epoch closes). Verdicts
// publish in epoch order before the closing call returns, so a caller
// that just ingested past a boundary reads that boundary's verdict.
func (s *Service) VerdictJSON() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.verdict...)
}

// SummaryText returns the per-epoch summary window, oldest first. The
// text is a pure function of the accepted records and epoch
// boundaries.
func (s *Service) SummaryText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sb strings.Builder
	if s.dropped > 0 {
		fmt.Fprintf(&sb, "(%d earlier epochs aged out of the summary window)\n", s.dropped)
	}
	for _, b := range s.listing {
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
		st.JournalStatus = &JournalStatus{SnapshotEpoch: s.jr.snapEpoch, LinesSinceSnapshot: s.jr.claimed}
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
	return s.copyMeasLocked(), nil
}

// Close flushes and claims the journal, waiting for in-flight
// epoch publishes first. The service must not be used afterwards.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.published != s.epoch {
		s.pub.Wait()
	}
	if s.jr == nil {
		return nil
	}
	err := s.jr.flush(s.records, s.epoch)
	if cerr := s.jr.close(); err == nil {
		err = cerr
	}
	s.jr = nil
	return err
}
