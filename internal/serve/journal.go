package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"neutrality/internal/measure"
	"neutrality/internal/sweep"
)

// The ingest journal makes the streaming service checkpointable: every
// accepted record and every epoch-close marker is one framed line
// (shard format v2 — crc32c header, canonical JSON payload; see
// FORMAT.md and sweep.FramePayload), and a manifest claims the durable
// prefix. A restarted service replays the journal through the same
// fold and close logic as live ingest, so it reaches byte-identical
// verdicts.
//
// Since journal format v2 the journal is partitioned by source hash
// into JournalShards files, journal-NNNN.jsonl, each with its own
// append buffer. A record lands in the shard its source hashes to, so
// one source's records stay in one file in delivery order; an
// epoch-close marker is appended to every shard, so each shard is
// independently partitioned into the same epochs and replay can fold
// the shards epoch by epoch — the canonical close-time sort makes the
// fold independent of cross-shard interleaving, which is what keeps
// verdicts byte-identical for every shard count.
//
// Journals no longer grow without bound: at a configurable epoch
// cadence the service writes a hash-verified snapshot of its entire
// folded state (snapshot-NNNNNNNN.json, see snapshot.go), points the
// manifest at it with all shard claims reset to zero, and truncates
// the shard files. The manifest's shard_lines therefore always count
// lines *since the current snapshot*.
//
// Unlike sweep shards, journal records are NOT re-derivable from a
// seed — they are external observations. That changes the recovery
// posture: damage past the manifest claim is a torn tail (bytes with
// no ack behind them) and is truncated, because the sender never got
// an acknowledgement and will retry; damage inside the claim destroys
// acknowledged data that cannot be recomputed, so it is reported as
// sweep.ErrCorrupt rather than silently repaired. A manifest that
// claims more lines than a shard holds — including a deleted shard
// file — is the same class: acknowledged data is gone, ErrCorrupt.
const (
	legacyJournalName = "journal.jsonl" // journal format v1 (PR 9), rejected
	manifestName      = "serve.json"
	// manifestVersion is the journal format version; bumping it
	// invalidates older journals explicitly instead of misreading them.
	// Version 2 introduced sharded journal files and snapshots.
	manifestVersion = 2
)

// journalShardName is the on-disk name of journal shard s.
func journalShardName(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%04d.jsonl", s))
}

// snapshotName is the on-disk name of the snapshot taken at an epoch.
func snapshotName(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%08d.json", epoch))
}

// journalEntry is one journal line: exactly one of Rec (an accepted
// stream record) or Close (an epoch-close marker carrying the 1-based
// epoch number it closes).
type journalEntry struct {
	Rec   *measure.StreamRecord `json:"rec,omitempty"`
	Close int                   `json:"close,omitempty"`
}

// manifest is the journal's durability claim plus the configuration
// identity a resume must match (a journal replayed under a different
// topology, shard layout, or fold parameters would produce a silently
// different service).
type manifest struct {
	Version      int     `json:"version"`
	Net          string  `json:"net"`
	Paths        int     `json:"paths"`
	EpochRecords int     `json:"epoch_records"`
	Shards       int     `json:"shards"`
	Seed         int64   `json:"seed"`
	LossThresh   float64 `json:"loss_threshold"`
	Normalize    bool    `json:"normalize"`
	Smoothing    float64 `json:"smoothing"`
	// Draw is Algorithm 2's discount draw (measure.DrawScheme): the
	// snapshots carry verdict bytes verbatim, so a journal written
	// under another draw would mix two estimators' verdicts.
	Draw string `json:"draw"`
	// Leaf is the tree role the journal was written under: a leaf's
	// snapshots carry its unacked report outbox keyed by this name, so
	// resuming under a different name (or as a non-leaf) would corrupt
	// the tree's per-leaf epoch sequence.
	Leaf string `json:"leaf,omitempty"`
	// ShardLines is the claimed durable line count of each journal
	// shard since the current snapshot; Records and Epochs echo the
	// folded state at the claim for fast inspection.
	ShardLines []int `json:"shard_lines"`
	Records    int64 `json:"records"`
	Epochs     int   `json:"epochs"`
	// SnapshotEpoch names the snapshot file the journal suffix extends
	// (0 = none); SnapshotSHA256 is the content hash the snapshot must
	// verify against before a single byte of it is trusted.
	SnapshotEpoch  int    `json:"snapshot_epoch,omitempty"`
	SnapshotSHA256 string `json:"snapshot_sha256,omitempty"`
}

// journal is the append side: buffered writers over the journal shard
// files plus the checkpoint bookkeeping.
type journal struct {
	dir   string
	files []*os.File
	ws    []*bufio.Writer
	// lines counts durable+buffered lines per shard since the current
	// snapshot (the manifest claim at the next checkpoint).
	lines []int
	// sinceCheckpoint counts lines since the manifest was last
	// rewritten; cadence is cfg.CheckpointEvery.
	sinceCheckpoint int
	every           int
	ident           manifest // identity fields, reused for every claim
	snapEpoch       int      // current snapshot (0 = none)
	snapSum         string
	// broken latches the first write/compaction failure: once the
	// on-disk state may disagree with memory, every further operation
	// refuses rather than acking records into an inconsistent journal.
	broken error
	// fault is a test seam: when non-nil it runs before every line
	// write and its error aborts the append (simulating a failing
	// journal writer mid-batch).
	fault func() error
	// compactHook is a test seam for the compaction kill matrix: when
	// non-nil it runs before each named compaction step and its error
	// aborts the sequence at exactly that point.
	compactHook func(step string) error
}

// errValidationf builds a sweep.ErrValidation-tagged error (config or
// identity problems: retrying the same open cannot succeed).
func errValidationf(format string, args ...any) error {
	return fmt.Errorf(format+" (%w)", append(args, sweep.ErrValidation)...)
}

// errCorruptf builds a sweep.ErrCorrupt-tagged error (acknowledged
// journal data is damaged and cannot be re-derived).
func errCorruptf(format string, args ...any) error {
	return fmt.Errorf(format+" (%w)", append(args, sweep.ErrCorrupt)...)
}

// identity derives the manifest identity block from the config.
func identity(cfg Config) manifest {
	return manifest{
		Version:      manifestVersion,
		Net:          cfg.NetName,
		Paths:        cfg.Net.NumPaths(),
		EpochRecords: cfg.EpochRecords,
		Shards:       cfg.JournalShards,
		Seed:         cfg.Opts.Seed,
		LossThresh:   cfg.Opts.LossThreshold,
		Normalize:    cfg.Opts.Normalize,
		Smoothing:    cfg.Opts.Smoothing,
		Draw:         measure.DrawScheme,
		Leaf:         cfg.Leaf,
	}
}

// shardOf maps a source name to its journal shard: an FNV-1a hash so
// the partition is stable across processes and restarts. The hash is
// computed over the string in place (hash/fnv's New32a, unrolled).
func shardOf(source string, shards int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(source); i++ {
		h ^= uint32(source[i])
		h *= prime32
	}
	return int(h % uint32(shards))
}

// shaSum is the snapshot content hash: SHA-256, lowercase hex.
func shaSum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// shardRecovery is one journal shard's recovered image: the framed
// entries that survived frame-level validation, with the byte offset
// each one ends at (so the semantic replay can pick a truncation
// point), and how many of them sit inside the manifest claim.
type shardRecovery struct {
	entries []journalEntry
	ends    []int64
	claimed int
}

// recovered is everything openJournal hands the service to replay: the
// decoded snapshot (nil when the manifest names none) and each shard's
// recovered entries.
type recovered struct {
	snap   *snapWire
	shards []shardRecovery
}

// openJournal opens (or creates) the sharded journal in cfg.Dir and
// returns the append handle plus the recovered snapshot and per-shard
// entries. Frame-level validation happens here (claimed lines must
// verify — anything else is ErrCorrupt; tail lines are adopted until
// the first invalid one); the semantic epoch-merge replay and the
// final truncation decision belong to the service, which calls
// (*journal).adopt with the outcome.
func openJournal(cfg Config) (*journal, *recovered, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(cfg.Dir, legacyJournalName)); err == nil {
		return nil, nil, errValidationf("serve: %s holds a format-v1 journal (%s); v1 predates sharding and snapshots and cannot be adopted — re-ingest from the senders", cfg.Dir, legacyJournalName)
	}
	ident := identity(cfg)
	shards := cfg.JournalShards

	// Manifest: identity + claims. Read before the shard files so a
	// claim over a missing file classifies as the corruption it is.
	var m manifest
	mExists := false
	mdata, err := os.ReadFile(filepath.Join(cfg.Dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, nil, fmt.Errorf("serve: reading manifest: %w", err)
	default:
		mExists = true
		if err := json.Unmarshal(mdata, &m); err != nil {
			return nil, nil, errCorruptf("serve: manifest does not parse: %v", err)
		}
		if m.Version != manifestVersion {
			return nil, nil, errValidationf("serve: journal format version %d, this build writes %d; the journal cannot be adopted", m.Version, manifestVersion)
		}
		if m.Net != ident.Net || m.Paths != ident.Paths ||
			m.EpochRecords != ident.EpochRecords || m.Shards != ident.Shards ||
			m.Seed != ident.Seed || m.LossThresh != ident.LossThresh ||
			m.Normalize != ident.Normalize || m.Smoothing != ident.Smoothing ||
			m.Leaf != ident.Leaf || m.Draw != ident.Draw {
			return nil, nil, errValidationf("serve: journal identity mismatch: journal is (net=%q paths=%d epoch=%d shards=%d seed=%d leaf=%q draw=%q), config is (net=%q paths=%d epoch=%d shards=%d seed=%d leaf=%q draw=%q)",
				m.Net, m.Paths, m.EpochRecords, m.Shards, m.Seed, m.Leaf, m.Draw,
				ident.Net, ident.Paths, ident.EpochRecords, ident.Shards, ident.Seed, ident.Leaf, ident.Draw)
		}
		if len(m.ShardLines) != shards {
			return nil, nil, errCorruptf("serve: manifest claims %d shard counts for %d shards", len(m.ShardLines), shards)
		}
		for s, n := range m.ShardLines {
			if n < 0 {
				return nil, nil, errCorruptf("serve: manifest claims %d lines for shard %d", n, s)
			}
		}
	}

	images := make([][]byte, shards)
	dataExists := false
	for s := 0; s < shards; s++ {
		data, err := os.ReadFile(journalShardName(cfg.Dir, s))
		switch {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			return nil, nil, fmt.Errorf("serve: reading journal shard %d: %w", s, err)
		default:
			images[s] = data
			if len(data) > 0 {
				dataExists = true
			}
		}
	}
	snapFiles, err := filepath.Glob(filepath.Join(cfg.Dir, "snapshot-*.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: listing snapshots: %w", err)
	}
	if (mExists || dataExists || len(snapFiles) > 0) && !cfg.Resume {
		return nil, nil, errValidationf("serve: %s already holds a journal; pass resume to adopt it", cfg.Dir)
	}

	rec := &recovered{shards: make([]shardRecovery, shards)}

	// Snapshot: the manifest names exactly one; any other snapshot file
	// is an orphan from an interrupted compaction (either a newer one
	// whose manifest rename never happened, or an older one whose
	// cleanup was cut short) and is removed.
	current := ""
	if m.SnapshotEpoch > 0 {
		current = snapshotName(cfg.Dir, m.SnapshotEpoch)
		sdata, err := os.ReadFile(current)
		if err != nil {
			return nil, nil, errCorruptf("serve: manifest names snapshot epoch %d but %v", m.SnapshotEpoch, err)
		}
		if got := shaSum(sdata); got != m.SnapshotSHA256 {
			return nil, nil, errCorruptf("serve: snapshot %d content hash %.12s…, manifest claims %.12s…", m.SnapshotEpoch, got, m.SnapshotSHA256)
		}
		snap, err := decodeSnapshot(sdata)
		if err != nil {
			return nil, nil, err
		}
		if snap.Epoch != m.SnapshotEpoch {
			return nil, nil, errCorruptf("serve: snapshot file for epoch %d records epoch %d", m.SnapshotEpoch, snap.Epoch)
		}
		rec.snap = snap
	}
	for _, f := range snapFiles {
		if f != current {
			os.Remove(f) // best-effort orphan cleanup
		}
	}

	for s := 0; s < shards; s++ {
		sh, err := recoverShard(images[s], m.ShardLines, s)
		if err != nil {
			return nil, nil, err
		}
		rec.shards[s] = sh
	}

	jr := &journal{
		dir:       cfg.Dir,
		files:     make([]*os.File, shards),
		ws:        make([]*bufio.Writer, shards),
		lines:     make([]int, shards),
		every:     cfg.CheckpointEvery,
		ident:     ident,
		snapEpoch: m.SnapshotEpoch,
		snapSum:   m.SnapshotSHA256,
	}
	for s := 0; s < shards; s++ {
		f, err := os.OpenFile(journalShardName(cfg.Dir, s), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			jr.closeFile()
			return nil, nil, fmt.Errorf("serve: opening journal shard %d: %w", s, err)
		}
		jr.files[s] = f
	}
	return jr, rec, nil
}

// recoverShard frame-validates one shard image. Lines within the claim
// must verify — a parse failure, a partial line, or a file that ends
// early (including a missing file read as empty) all mean acknowledged
// data is gone, ErrCorrupt. Past the claim, valid lines are adopted
// until the first invalid one; the rest is torn tail.
func recoverShard(data []byte, claims []int, s int) (shardRecovery, error) {
	claim := 0
	if claims != nil {
		claim = claims[s]
	}
	var sh shardRecovery
	sh.claimed = claim
	off := int64(0)
	for len(sh.entries) < claim || off < int64(len(data)) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			if len(sh.entries) < claim {
				return sh, errCorruptf("serve: journal shard %d truncated inside the claimed %d lines (%d survive)", s, claim, len(sh.entries))
			}
			break
		}
		line := data[off : off+int64(nl)]
		e, perr := parseEntry(line)
		if perr != nil {
			if len(sh.entries) < claim {
				return sh, errCorruptf("serve: journal shard %d line %d (within the claimed %d): %v", s, len(sh.entries)+1, claim, perr)
			}
			break // torn tail: the adopt step truncates here
		}
		off += int64(nl) + 1
		sh.entries = append(sh.entries, e)
		sh.ends = append(sh.ends, off)
	}
	return sh, nil
}

// recordPrefix and recordSuffix bracket a record entry's payload:
// json.Marshal of journalEntry{Rec: r} is exactly
// recordPrefix + json.Marshal(r) + recordSuffix.
const recordPrefix, recordSuffix = `{"rec":`, `}`

// parseEntry validates one framed journal line: frame CRC, decodable
// JSON, exactly one of rec/close set, and byte-for-byte canonical form
// (so replayed bytes are exactly what a re-serialization would write).
// A record entry is decoded by the StreamRecord codec and is canonical
// when the codec re-encodes it to the same bytes; anything else,
// including every close marker, takes the encoding/json path. Both
// accept exactly the payloads json.Marshal(journalEntry) writes.
func parseEntry(line []byte) (journalEntry, error) {
	payload, err := sweep.UnframePayload(line)
	if err != nil {
		return journalEntry{}, err
	}
	if body, ok := bytes.CutPrefix(payload, []byte(recordPrefix)); ok && bytes.HasSuffix(body, []byte(recordSuffix)) {
		body = body[:len(body)-len(recordSuffix)]
		r, err := measure.DecodeStreamRecord(body)
		if err != nil {
			return journalEntry{}, fmt.Errorf("entry does not parse: %v", err)
		}
		var buf [128]byte
		if !bytes.Equal(measure.AppendStreamRecordJSON(buf[:0], &r), body) {
			return journalEntry{}, fmt.Errorf("entry is not in canonical form")
		}
		return journalEntry{Rec: &r}, nil
	}
	var e journalEntry
	if err := json.Unmarshal(payload, &e); err != nil {
		return journalEntry{}, fmt.Errorf("entry does not parse: %v", err)
	}
	if (e.Rec == nil) == (e.Close == 0) {
		return journalEntry{}, fmt.Errorf("entry is neither a record nor a close marker")
	}
	canon, err := json.Marshal(e)
	if err != nil || !bytes.Equal(canon, payload) {
		return journalEntry{}, fmt.Errorf("entry is not in canonical form")
	}
	return e, nil
}

// adopt finalizes recovery: each shard file is truncated to the byte
// offset of its last semantically adopted line (dropping torn tails
// and pre-snapshot residue) and the append side picks up from there.
func (j *journal) adopt(keeps []int64, counts []int) error {
	for s, f := range j.files {
		if err := f.Truncate(keeps[s]); err != nil {
			return fmt.Errorf("serve: dropping shard %d torn tail: %w", s, err)
		}
		if _, err := f.Seek(keeps[s], io.SeekStart); err != nil {
			return fmt.Errorf("serve: seeking journal shard %d: %w", s, err)
		}
		j.ws[s] = bufio.NewWriter(f)
		j.lines[s] = counts[s]
	}
	return nil
}

// appendRecord buffers one accepted record into the shard its source
// hashes to, encoded and framed straight into that shard's write
// buffer. The bytes are json.Marshal(journalEntry{Rec: r}) framed by
// sweep.FramePayload. Durability comes at the next flush — Ingest
// flushes before acknowledging.
func (j *journal) appendRecord(r *measure.StreamRecord) error {
	if j.broken != nil {
		return j.broken
	}
	s := shardOf(r.Source, len(j.ws))
	line := sweep.AppendFrame(j.ws[s].AvailableBuffer(), func(b []byte) []byte {
		b = append(b, recordPrefix...)
		b = measure.AppendStreamRecordJSON(b, r)
		return append(b, recordSuffix...)
	})
	return j.writeLine(s, line)
}

// appendClose buffers the marker closing epoch into every shard (each
// shard partitions into the same epochs).
func (j *journal) appendClose(epoch int) error {
	if j.broken != nil {
		return j.broken
	}
	payload, err := json.Marshal(journalEntry{Close: epoch})
	if err != nil {
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	line := sweep.FramePayload(payload)
	for s := range j.ws {
		if err := j.writeLine(s, line); err != nil {
			return err
		}
	}
	return nil
}

func (j *journal) writeLine(s int, line []byte) error {
	if j.fault != nil {
		if err := j.fault(); err != nil {
			return fmt.Errorf("serve: journal write: %w", err)
		}
	}
	if _, err := j.ws[s].Write(line); err != nil {
		j.broken = fmt.Errorf("serve: journal write: %w", err)
		return j.broken
	}
	j.lines[s]++
	j.sinceCheckpoint++
	return nil
}

// flush pushes buffered lines to the files and, on the checkpoint
// cadence, rewrites the manifest claim with the folded state.
func (j *journal) flush(records int64, epochs int) error {
	if j.broken != nil {
		return j.broken
	}
	for s, w := range j.ws {
		if err := w.Flush(); err != nil {
			j.broken = fmt.Errorf("serve: journal shard %d flush: %w", s, err)
			return j.broken
		}
	}
	if j.sinceCheckpoint >= j.every {
		return j.checkpoint(records, epochs)
	}
	return nil
}

// checkpoint claims everything flushed so far: the manifest is written
// to a temp file and renamed over the old one, so a kill leaves either
// the previous claim or the new one, never a torn manifest.
func (j *journal) checkpoint(records int64, epochs int) error {
	if j.broken != nil {
		return j.broken
	}
	for s, w := range j.ws {
		if err := w.Flush(); err != nil {
			j.broken = fmt.Errorf("serve: journal shard %d flush: %w", s, err)
			return j.broken
		}
	}
	if err := j.writeManifest(records, epochs); err != nil {
		j.broken = err
		return err
	}
	j.sinceCheckpoint = 0
	return nil
}

func (j *journal) writeManifest(records int64, epochs int) error {
	m := j.ident
	m.ShardLines = append([]int(nil), j.lines...)
	m.Records = records
	m.Epochs = epochs
	m.SnapshotEpoch = j.snapEpoch
	m.SnapshotSHA256 = j.snapSum
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: manifest marshal: %w", err)
	}
	data = append(data, '\n')
	tmp := filepath.Join(j.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("serve: manifest write: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, manifestName)); err != nil {
		return fmt.Errorf("serve: manifest rename: %w", err)
	}
	return nil
}

// compact runs the snapshot + truncate sequence. The step order is the
// whole crash-safety argument, so it is spelled out:
//
//  1. snapshot: write the full-state snapshot to a temp file and
//     rename it into place. A kill here leaves an orphan snapshot the
//     manifest never names; open removes it.
//  2. manifest: atomically rename a manifest naming the snapshot with
//     every shard claim reset to zero. This is the commit point: from
//     here the journal bytes are pre-snapshot residue. A kill after it
//     leaves residue on disk, which recovery detects (stale sequence
//     numbers / stale close markers behind a zero claim) and truncates.
//  3. truncate-NNNN: per shard, drop the buffered writer state and
//     truncate the file to zero. A kill between shards leaves a mix of
//     empty and residue shards — each recovers independently.
//  4. cleanup: remove the previous snapshot file. A kill before this
//     leaves an orphan the next open removes.
//
// Any failure latches the journal broken: memory and disk may disagree
// past this point, so no further record may be acked.
func (j *journal) compact(epoch int, snapData []byte, records int64, epochs int) error {
	if j.broken != nil {
		return j.broken
	}
	fail := func(err error) error {
		j.broken = err
		return err
	}
	if err := j.hook("snapshot"); err != nil {
		return fail(err)
	}
	snap := snapshotName(j.dir, epoch)
	if err := os.WriteFile(snap+".tmp", snapData, 0o644); err != nil {
		return fail(fmt.Errorf("serve: snapshot write: %w", err))
	}
	if err := os.Rename(snap+".tmp", snap); err != nil {
		return fail(fmt.Errorf("serve: snapshot rename: %w", err))
	}

	if err := j.hook("manifest"); err != nil {
		return fail(err)
	}
	oldEpoch := j.snapEpoch
	j.snapEpoch, j.snapSum = epoch, shaSum(snapData)
	for s := range j.lines {
		j.lines[s] = 0
	}
	// The writers may hold buffered pre-snapshot lines; they are
	// residue now — drop them rather than flushing them to disk.
	for s, f := range j.files {
		j.ws[s].Reset(f)
	}
	if err := j.writeManifest(records, epochs); err != nil {
		return fail(err)
	}

	for s, f := range j.files {
		if err := j.hook(fmt.Sprintf("truncate-%04d", s)); err != nil {
			return fail(err)
		}
		if err := f.Truncate(0); err != nil {
			return fail(fmt.Errorf("serve: truncating journal shard %d: %w", s, err))
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fail(fmt.Errorf("serve: seeking journal shard %d: %w", s, err))
		}
		j.ws[s].Reset(f)
	}

	if err := j.hook("cleanup"); err != nil {
		return fail(err)
	}
	if oldEpoch > 0 {
		os.Remove(snapshotName(j.dir, oldEpoch)) // best-effort
	}
	j.sinceCheckpoint = 0
	return nil
}

func (j *journal) hook(step string) error {
	if j.compactHook == nil {
		return nil
	}
	return j.compactHook(step)
}

// closeFile closes the journal shard files (flushing first).
func (j *journal) closeFile() error {
	var err error
	for _, w := range j.ws {
		if w == nil {
			continue
		}
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
	}
	for _, f := range j.files {
		if f == nil {
			continue
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
