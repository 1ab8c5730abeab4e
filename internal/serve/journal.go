package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"neutrality/internal/durable"
	"neutrality/internal/measure"
	"neutrality/internal/sweep"
)

// The ingest journal makes the streaming service checkpointable: every
// accepted record and every epoch-close marker is one framed line
// (the durable line frame — crc32c header, canonical JSON payload; see
// FORMAT.md and internal/durable), and a claim covers the durable
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
// the shard files. Claims therefore always count lines *since the
// current snapshot*.
//
// Since journal format v3 the claim is append-only: every flush that
// follows an append — so every ack, and every epoch close — appends
// one framed claim line to claims.jsonl naming the snapshot epoch and
// each shard's line count. The manifest, serve.json, holds the
// identity, the snapshot pointer and a base claim, and is rewritten
// only when the journal is created (or a v2 journal is first resumed)
// and at the compaction commit point. The effective claim is the last
// claim line naming the manifest's snapshot epoch, else the base
// claim.
//
// Unlike sweep shards, journal records are NOT re-derivable from a
// seed — they are external observations — so recovery is
// durable.Recover's as is: a torn tail past the claim is truncated
// (the sender got no ack and retries), while damage inside it,
// including a claim over a short or deleted shard file, is
// sweep.ErrCorrupt rather than silently repaired.
const (
	legacyJournalName = "journal.jsonl" // journal format v1, rejected
	manifestName      = "serve.json"
	claimLogName      = "claims.jsonl"
	// manifestVersion is the journal format version; bumping it
	// invalidates older journals explicitly instead of misreading them.
	// Version 2 introduced sharded journal files and snapshots, version 3
	// the claim log. A v2 journal is a v3 journal without a claim log,
	// so it is still adopted.
	manifestVersion = 3
	manifestV2      = 2
)

// shardFile is the file name of journal shard s.
func shardFile(s int) string { return fmt.Sprintf("journal-%04d.jsonl", s) }

// snapshotFile is the file name of the snapshot taken at an epoch.
func snapshotFile(epoch int) string { return fmt.Sprintf("snapshot-%08d.json", epoch) }

// journalEntry is one journal line: exactly one of Rec (an accepted
// stream record) or Close (an epoch-close marker carrying the 1-based
// epoch number it closes).
type journalEntry struct {
	Rec   *measure.StreamRecord `json:"rec,omitempty"`
	Close int                   `json:"close,omitempty"`
}

// manifest is the journal's base claim and snapshot pointer plus the
// configuration identity a resume must match (a journal replayed under a different
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
	// ShardLines is the base claim: the durable line count of each
	// journal shard since the current snapshot, which claim-log lines
	// naming the same snapshot supersede. Records and Epochs echo the
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

// claim is one claim-log line: the mutable part of the manifest. Its
// JSON is written by appendClaim, byte-equal to json.Marshal(claim).
type claim struct {
	SnapshotEpoch int   `json:"snapshot_epoch"`
	ShardLines    []int `json:"shard_lines"`
	Records       int64 `json:"records"`
	Epochs        int   `json:"epochs"`
}

// journal is the append side: one durable log per journal shard plus
// the claim log. A write failure breaks dir, so every later operation
// refuses instead of acking into a damaged journal.
type journal struct {
	dir    *durable.Dir
	logs   []*durable.Log
	claims *durable.Log
	// lines counts durable+buffered lines per shard since the current
	// snapshot (the claim the next flush appends); claimed is their sum
	// at the last claim, so a flush with nothing new appends none.
	lines     []int
	claimed   int
	ident     manifest // identity fields, reused for every manifest write
	snapEpoch int      // current snapshot (0 = none)
	snapSum   string
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
// point), and how many of them sit inside the effective claim.
type shardRecovery struct {
	entries []journalEntry
	ends    []int64
	claimed int
}

// openJournal opens (or creates) the sharded journal in cfg.Dir and
// returns the append handle, the decoded snapshot (nil when the
// manifest names none) and each shard's entries, frame-validated by
// durable.Recover against the effective claim. The semantic
// epoch-merge replay, and truncating each shard to what it adopts,
// belong to the service.
func openJournal(cfg Config) (*journal, *snapWire, []shardRecovery, error) {
	dir, err := durable.Open(cfg.Dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	if _, err := os.Stat(dir.Path(legacyJournalName)); err == nil {
		return nil, nil, nil, errValidationf("serve: %s holds a format-v1 journal (%s); v1 predates sharding and snapshots and cannot be adopted — re-ingest from the senders", cfg.Dir, legacyJournalName)
	}
	ident := identity(cfg)
	shards := cfg.JournalShards

	// Manifest: identity + base claim. Read before the shard files so a
	// claim over a missing file classifies as the corruption it is.
	var m manifest
	mExists := false
	mdata, err := os.ReadFile(dir.Path(manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, nil, nil, fmt.Errorf("serve: reading manifest: %w", err)
	default:
		mExists = true
		if err := json.Unmarshal(mdata, &m); err != nil {
			return nil, nil, nil, errCorruptf("serve: manifest does not parse: %v", err)
		}
		if m.Version != manifestVersion && m.Version != manifestV2 {
			return nil, nil, nil, errValidationf("serve: journal format version %d, this build reads %d and %d; the journal cannot be adopted", m.Version, manifestV2, manifestVersion)
		}
		if m.Net != ident.Net || m.Paths != ident.Paths ||
			m.EpochRecords != ident.EpochRecords || m.Shards != ident.Shards ||
			m.Seed != ident.Seed || m.LossThresh != ident.LossThresh ||
			m.Normalize != ident.Normalize || m.Smoothing != ident.Smoothing ||
			m.Leaf != ident.Leaf || m.Draw != ident.Draw {
			return nil, nil, nil, errValidationf("serve: journal identity mismatch: journal is (net=%q paths=%d epoch=%d shards=%d seed=%d leaf=%q draw=%q), config is (net=%q paths=%d epoch=%d shards=%d seed=%d leaf=%q draw=%q)",
				m.Net, m.Paths, m.EpochRecords, m.Shards, m.Seed, m.Leaf, m.Draw,
				ident.Net, ident.Paths, ident.EpochRecords, ident.Shards, ident.Seed, ident.Leaf, ident.Draw)
		}
	}

	images := make([][]byte, shards+1) // the shards, then the claim log
	dataExists := false
	for s := range images {
		name := claimLogName
		if s < shards {
			name = shardFile(s)
		}
		data, err := os.ReadFile(dir.Path(name))
		switch {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			return nil, nil, nil, fmt.Errorf("serve: reading %s: %w", name, err)
		default:
			images[s] = data
			if len(data) > 0 {
				dataExists = true
			}
		}
	}
	snapFiles, err := filepath.Glob(dir.Path("snapshot-*.json"))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: listing snapshots: %w", err)
	}
	if (mExists || dataExists || len(snapFiles) > 0) && !cfg.Resume {
		return nil, nil, nil, errValidationf("serve: %s already holds a journal; pass resume to adopt it", cfg.Dir)
	}
	if !mExists && len(images[shards]) > 0 {
		return nil, nil, nil, errCorruptf("serve: %s holds claims but no manifest", claimLogName)
	}

	// The effective claim: the last intact claim line if it extends the
	// manifest's snapshot, else the manifest's base claim. Lines naming
	// an older snapshot are left over from a compaction killed before it
	// truncated the claim log.
	c := claim{SnapshotEpoch: m.SnapshotEpoch, ShardLines: m.ShardLines, Records: m.Records, Epochs: m.Epochs}
	if !mExists {
		c.ShardLines = make([]int, shards)
	}
	var last *claim
	claimEnds, err := durable.Recover(images[shards], 0, func(payload []byte) error {
		lc, err := parseClaim(payload)
		if err == nil {
			last = &lc
		}
		return err
	})
	if err != nil {
		return nil, nil, nil, errCorruptf("serve: %s %v", claimLogName, err)
	}
	claimKeep := int64(0)
	if last != nil {
		if last.SnapshotEpoch > m.SnapshotEpoch {
			return nil, nil, nil, errCorruptf("serve: %s claims snapshot epoch %d past the manifest's %d", claimLogName, last.SnapshotEpoch, m.SnapshotEpoch)
		}
		if last.SnapshotEpoch == m.SnapshotEpoch {
			c, claimKeep = *last, claimEnds[len(claimEnds)-1]
		}
	}
	if len(c.ShardLines) != shards {
		return nil, nil, nil, errCorruptf("serve: journal claims %d shard counts for %d shards", len(c.ShardLines), shards)
	}
	for s, n := range c.ShardLines {
		if n < 0 {
			return nil, nil, nil, errCorruptf("serve: journal claims %d lines for shard %d", n, s)
		}
	}

	recs := make([]shardRecovery, shards)
	var snap *snapWire

	// Snapshot: the manifest names exactly one; any other snapshot file
	// is an orphan from an interrupted compaction (either a newer one
	// whose manifest rename never happened, or an older one whose
	// cleanup was cut short) and is removed.
	current := ""
	if m.SnapshotEpoch > 0 {
		current = dir.Path(snapshotFile(m.SnapshotEpoch))
		sdata, err := os.ReadFile(current)
		if err != nil {
			return nil, nil, nil, errCorruptf("serve: manifest names snapshot epoch %d but %v", m.SnapshotEpoch, err)
		}
		if got := shaSum(sdata); got != m.SnapshotSHA256 {
			return nil, nil, nil, errCorruptf("serve: snapshot %d content hash %.12s…, manifest claims %.12s…", m.SnapshotEpoch, got, m.SnapshotSHA256)
		}
		if snap, err = decodeSnapshot(sdata); err != nil {
			return nil, nil, nil, err
		}
		if snap.Epoch != m.SnapshotEpoch {
			return nil, nil, nil, errCorruptf("serve: snapshot file for epoch %d records epoch %d", m.SnapshotEpoch, snap.Epoch)
		}
	}
	for _, f := range snapFiles {
		if f != current {
			os.Remove(f) // best-effort orphan cleanup
		}
	}

	claimed := 0
	for s := 0; s < shards; s++ {
		sh := &recs[s]
		sh.claimed = c.ShardLines[s]
		claimed += sh.claimed
		sh.ends, err = durable.Recover(images[s], sh.claimed, func(payload []byte) error {
			e, err := parseEntry(payload)
			if err == nil {
				sh.entries = append(sh.entries, e)
			}
			return err
		})
		if err != nil {
			return nil, nil, nil, errCorruptf("serve: journal shard %d %v", s, err)
		}
	}

	jr := &journal{
		dir:       dir,
		logs:      make([]*durable.Log, shards),
		lines:     make([]int, shards),
		claimed:   claimed,
		ident:     ident,
		snapEpoch: m.SnapshotEpoch,
		snapSum:   m.SnapshotSHA256,
	}
	// A new journal, or a v2 one, gets a v3 manifest before its first
	// claim line, so an older build refuses the directory.
	if !mExists || m.Version == manifestV2 {
		if err := jr.writeManifest(c); err != nil {
			return nil, nil, nil, err
		}
	}
	for s := range jr.logs {
		if jr.logs[s], err = dir.OpenLog(shardFile(s)); err != nil {
			jr.close()
			return nil, nil, nil, fmt.Errorf("serve: opening journal shard %d: %w", s, err)
		}
	}
	if jr.claims, err = dir.OpenLog(claimLogName); err == nil && claimKeep < int64(len(images[shards])) {
		err = jr.claims.Truncate(claimKeep)
	}
	if err != nil {
		jr.close()
		return nil, nil, nil, fmt.Errorf("serve: opening claim log: %w", err)
	}
	return jr, snap, recs, nil
}

// appendClaim appends c's canonical JSON to b: exactly
// json.Marshal(c), without reflection.
func appendClaim(b []byte, c *claim) []byte {
	b = append(b, `{"snapshot_epoch":`...)
	b = strconv.AppendInt(b, int64(c.SnapshotEpoch), 10)
	b = append(b, `,"shard_lines":[`...)
	for i, n := range c.ShardLines {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	b = append(b, `],"records":`...)
	b = strconv.AppendInt(b, c.Records, 10)
	b = append(b, `,"epochs":`...)
	b = strconv.AppendInt(b, int64(c.Epochs), 10)
	return append(b, '}')
}

// parseClaim decodes one claim-log payload and requires the canonical
// form appendClaim writes.
func parseClaim(payload []byte) (claim, error) {
	var c claim
	if err := json.Unmarshal(payload, &c); err != nil {
		return claim{}, fmt.Errorf("claim does not parse: %v", err)
	}
	if !bytes.Equal(appendClaim(nil, &c), payload) {
		return claim{}, fmt.Errorf("claim is not in canonical form")
	}
	return c, nil
}

// recordPrefix and recordSuffix bracket a record entry's payload:
// json.Marshal of journalEntry{Rec: r} is exactly
// recordPrefix + json.Marshal(r) + recordSuffix.
const recordPrefix, recordSuffix = `{"rec":`, `}`

// parseEntry validates one journal line's payload: decodable JSON,
// exactly one of rec/close set, and byte-for-byte canonical form
// (so replayed bytes are exactly what a re-serialization would write).
// A record entry is decoded by the StreamRecord codec and is canonical
// when the codec re-encodes it to the same bytes; anything else,
// including every close marker, takes the encoding/json path. Both
// accept exactly the payloads json.Marshal(journalEntry) writes.
func parseEntry(payload []byte) (journalEntry, error) {
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

// appendRecord buffers one accepted record into the shard its source
// hashes to, encoded and framed straight into that shard's write
// buffer. The bytes are json.Marshal(journalEntry{Rec: r}) in the
// durable line frame. Durability comes at the next flush — Ingest
// flushes before acknowledging.
func (j *journal) appendRecord(r *measure.StreamRecord) error {
	s := shardOf(r.Source, len(j.logs))
	_, err := j.logs[s].Append(func(b []byte) []byte {
		b = append(b, recordPrefix...)
		b = measure.AppendStreamRecordJSON(b, r)
		return append(b, recordSuffix...)
	})
	if err != nil {
		return err
	}
	j.lines[s]++
	return nil
}

// appendClose buffers the marker closing epoch into every shard (each
// shard partitions into the same epochs).
func (j *journal) appendClose(epoch int) error {
	payload, err := json.Marshal(journalEntry{Close: epoch})
	if err != nil {
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	for s, l := range j.logs {
		if _, err := l.Append(func(b []byte) []byte { return append(b, payload...) }); err != nil {
			return err
		}
		j.lines[s]++
	}
	return nil
}

// flush pushes buffered lines to the shard files and then, if any
// line was appended since the last claim, claims them by appending one
// line to the claim log: every ack the caller sends after flush
// returns sits inside a claim. The claim follows every shard's flush,
// so it never splits a close marker across shards.
func (j *journal) flush(records int64, epochs int) error {
	lines := 0
	for s, l := range j.logs {
		if err := l.Flush(); err != nil {
			return err
		}
		lines += j.lines[s]
	}
	if lines == j.claimed {
		return nil
	}
	c := claim{SnapshotEpoch: j.snapEpoch, ShardLines: j.lines, Records: records, Epochs: epochs}
	if _, err := j.claims.Append(func(b []byte) []byte { return appendClaim(b, &c) }); err != nil {
		return err
	}
	if err := j.claims.Flush(); err != nil {
		return err
	}
	j.claimed = lines
	return nil
}

// writeManifest atomically replaces serve.json: the identity, the
// snapshot pointer and c as the base claim.
func (j *journal) writeManifest(c claim) error {
	m := j.ident
	m.ShardLines = c.ShardLines
	m.Records = c.Records
	m.Epochs = c.Epochs
	m.SnapshotEpoch = c.SnapshotEpoch
	m.SnapshotSHA256 = j.snapSum
	return j.dir.WriteJSON(manifestName, m)
}

// compact runs the snapshot + truncate sequence. The step order is the
// whole crash-safety argument, so it is spelled out:
//
//  1. snapshot: write the full-state snapshot atomically. A kill here
//     leaves an orphan snapshot the manifest never names; open removes
//     it.
//  2. manifest: atomically replace the manifest with one naming the
//     snapshot with every shard claim reset to zero. This is the commit
//     point: from here the journal bytes are pre-snapshot residue. A
//     kill after it leaves residue on disk, which recovery detects
//     (stale sequence numbers / stale close markers behind a zero
//     claim) and truncates.
//  3. truncate: per shard, drop the buffered (now residue) lines and
//     truncate the file to zero, then the claim log. A kill between
//     shards leaves a mix of empty and residue shards — each recovers
//     independently; claim lines left behind name the old snapshot and
//     are ignored.
//  4. cleanup: remove the previous snapshot file. A kill before this
//     leaves an orphan the next open removes.
//
// Any failure breaks the journal's Dir: memory and disk may disagree
// past this point, so no further record may be acked.
func (j *journal) compact(epoch int, snapData []byte, records int64, epochs int) error {
	if err := j.dir.WriteAtomic(snapshotFile(epoch), snapData); err != nil {
		return err
	}
	oldEpoch := j.snapEpoch
	j.snapEpoch, j.snapSum = epoch, shaSum(snapData)
	clear(j.lines)
	j.claimed = 0
	if err := j.writeManifest(claim{SnapshotEpoch: epoch, ShardLines: j.lines, Records: records, Epochs: epochs}); err != nil {
		return err
	}
	for _, l := range j.logs {
		if err := l.Truncate(0); err != nil {
			return err
		}
	}
	if err := j.claims.Truncate(0); err != nil {
		return err
	}
	if oldEpoch > 0 {
		if err := j.dir.Remove(snapshotFile(oldEpoch)); err != nil {
			return err
		}
	}
	return nil
}

// close flushes and closes the journal shard logs and the claim log.
func (j *journal) close() error {
	var err error
	for _, l := range append(slices.Clip(j.logs), j.claims) {
		if l == nil {
			continue
		}
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
