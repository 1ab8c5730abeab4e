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
	"reflect"
	"strings"

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
// The journal is partitioned by source hash into JournalShards files,
// journal-NNNN.jsonl. A record lands in the shard its source hashes
// to, so one source's records stay in one file in delivery order; an
// epoch-close marker is appended to every shard, so each shard is
// independently partitioned into the same epochs and replay can fold
// the shards epoch by epoch — the canonical close-time sort makes the
// fold independent of cross-shard interleaving, which is what keeps
// verdicts byte-identical for every shard count.
//
// The shards are one durable.ClaimedLogs set: every flush that follows
// an append — so every ack, and every epoch close — appends a claim
// line to claims.jsonl naming the snapshot epoch and each shard's line
// count. At a configurable epoch cadence the service writes a
// hash-verified snapshot of its folded state (snapshot-NNNNNNNN.json,
// see snapshot.go), points the manifest at it with a zero base claim,
// and truncates the shards and the claim log, so claims count lines
// since the current snapshot. The manifest, serve.json, holds the
// identity, the snapshot pointer and the base claim, and is rewritten
// only when the journal is created (or a v2 journal is first resumed)
// and at that compaction commit point.
//
// Unlike sweep shards, journal records are NOT re-derivable from a
// seed — they are external observations — so a torn tail past the
// claim is truncated (the sender got no ack and retries), while damage
// inside it, including a claim over a short or deleted shard file, is
// sweep.ErrCorrupt rather than silently repaired.
const (
	legacyJournalName = "journal.jsonl" // journal format v1, rejected
	manifestName      = "serve.json"
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

// journalIdentity is the configuration a resume must match: a journal
// replayed under a different topology, shard layout, or fold
// parameters would produce a silently different service.
type journalIdentity struct {
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
}

// manifest is serve.json: the identity, the base claim and the
// snapshot pointer.
type manifest struct {
	Version int `json:"version"`
	journalIdentity
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

// journal is the append side: the shards as one claimed log set, whose
// generation is the snapshot epoch. A write failure breaks dir, so
// every later operation refuses instead of acking into a damaged
// journal.
type journal struct {
	dir     *durable.Dir
	logs    *durable.ClaimedLogs
	ident   journalIdentity
	snapSum string // the current snapshot's content hash
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

// readManifest decodes the JSON manifest name into m and reports
// whether it exists; one that does not parse is ErrCorrupt.
func readManifest(dir *durable.Dir, name string, m any) (bool, error) {
	data, err := os.ReadFile(dir.Path(name))
	switch {
	case errors.Is(err, os.ErrNotExist):
		return false, nil
	case err != nil:
		return false, fmt.Errorf("serve: reading %s: %w", name, err)
	}
	if err := json.Unmarshal(data, m); err != nil {
		return false, errCorruptf("serve: %s does not parse: %v", name, err)
	}
	return true, nil
}

// identityDiff names every field in which an identity read from disk
// differs from the configured one, with both values, or returns "".
// Both must be the same struct type.
func identityDiff(disk, config any) string {
	dv, cv := reflect.ValueOf(disk), reflect.ValueOf(config)
	var diffs []string
	for i := 0; i < dv.NumField(); i++ {
		if a, b := dv.Field(i).Interface(), cv.Field(i).Interface(); a != b {
			name, _, _ := strings.Cut(dv.Type().Field(i).Tag.Get("json"), ",")
			diffs = append(diffs, fmt.Sprintf("%s is %#v on disk, %#v in the config", name, a, b))
		}
	}
	return strings.Join(diffs, "; ")
}

// identity derives the journal identity from the config.
func identity(cfg Config) journalIdentity {
	return journalIdentity{
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

// openJournal opens (or creates) the sharded journal in cfg.Dir and
// returns the journal, the decoded snapshot (nil when the manifest
// names none), each shard's entries, frame-validated against the
// effective claim, and how many of them that claim covers. The semantic epoch-merge replay, and adopting each
// shard's replayed prefix (journal.logs.Adopt), belong to the service.
func openJournal(cfg Config) (*journal, *snapWire, [][]journalEntry, []int, error) {
	dir, err := durable.Open(cfg.Dir)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	if _, err := os.Stat(dir.Path(legacyJournalName)); err == nil {
		return nil, nil, nil, nil, errValidationf("serve: %s holds a format-v1 journal (%s); v1 predates sharding and snapshots and cannot be adopted — re-ingest from the senders", cfg.Dir, legacyJournalName)
	}
	ident := identity(cfg)
	shards := cfg.JournalShards

	// Manifest: identity + base claim. Read before the shard files so a
	// claim over a missing file classifies as the corruption it is.
	var m manifest
	mExists, err := readManifest(dir, manifestName, &m)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if mExists {
		if m.Version != manifestVersion && m.Version != manifestV2 {
			return nil, nil, nil, nil, errValidationf("serve: journal format version %d, this build reads %d and %d; the journal cannot be adopted", m.Version, manifestV2, manifestVersion)
		}
		if diff := identityDiff(m.journalIdentity, ident); diff != "" {
			return nil, nil, nil, nil, errValidationf("serve: journal identity mismatch: %s", diff)
		}
	}

	names := make([]string, shards)
	for s := range names {
		names[s] = shardFile(s)
	}
	logs, err := dir.ReadClaimed(names...)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("serve: %w", err)
	}
	snapFiles, err := filepath.Glob(dir.Path("snapshot-*.json"))
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("serve: listing snapshots: %w", err)
	}
	if (mExists || !logs.Empty() || len(snapFiles) > 0) && !cfg.Resume {
		return nil, nil, nil, nil, errValidationf("serve: %s already holds a journal; pass resume to adopt it", cfg.Dir)
	}
	var base *durable.Claim
	if mExists {
		base = &durable.Claim{SnapshotEpoch: m.SnapshotEpoch, ShardLines: m.ShardLines, Records: m.Records, Epochs: m.Epochs}
	}
	entries := make([][]journalEntry, shards)
	c, err := logs.Recover(base, func(s int, payload []byte) error {
		e, err := parseEntry(payload)
		if err == nil {
			entries[s] = append(entries[s], e)
		}
		return err
	})
	if err != nil {
		return nil, nil, nil, nil, errCorruptf("serve: journal %v", err)
	}

	// Snapshot: the manifest names exactly one; any other snapshot file
	// is an orphan from an interrupted compaction (either a newer one
	// whose manifest rename never happened, or an older one whose
	// cleanup was cut short) and is removed.
	var snap *snapWire
	current := ""
	if m.SnapshotEpoch > 0 {
		current = dir.Path(snapshotFile(m.SnapshotEpoch))
		sdata, err := os.ReadFile(current)
		if err != nil {
			return nil, nil, nil, nil, errCorruptf("serve: manifest names snapshot epoch %d but %v", m.SnapshotEpoch, err)
		}
		if got := shaSum(sdata); got != m.SnapshotSHA256 {
			return nil, nil, nil, nil, errCorruptf("serve: snapshot %d content hash %.12s…, manifest claims %.12s…", m.SnapshotEpoch, got, m.SnapshotSHA256)
		}
		if snap, err = decodeSnapshot(sdata); err != nil {
			return nil, nil, nil, nil, err
		}
		if snap.Epoch != m.SnapshotEpoch {
			return nil, nil, nil, nil, errCorruptf("serve: snapshot file for epoch %d records epoch %d", m.SnapshotEpoch, snap.Epoch)
		}
	}
	for _, f := range snapFiles {
		if f != current {
			os.Remove(f) // best-effort orphan cleanup
		}
	}

	jr := &journal{dir: dir, logs: logs, ident: ident, snapSum: m.SnapshotSHA256}
	// A new journal, or a v2 one, gets a v3 manifest before its first
	// claim line, so an older build refuses the directory.
	if !mExists || m.Version == manifestV2 {
		if err := jr.writeManifest(c); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return jr, snap, entries, c.ShardLines, nil
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
	return j.logs.Append(shardOf(r.Source, j.ident.Shards), func(b []byte) []byte {
		b = append(b, recordPrefix...)
		b = measure.AppendStreamRecordJSON(b, r)
		return append(b, recordSuffix...)
	})
}

// appendClose buffers the marker closing epoch into every shard (each
// shard partitions into the same epochs).
func (j *journal) appendClose(epoch int) error {
	payload, err := json.Marshal(journalEntry{Close: epoch})
	if err != nil {
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	for s := 0; s < j.ident.Shards; s++ {
		if err := j.logs.Append(s, func(b []byte) []byte { return append(b, payload...) }); err != nil {
			return err
		}
	}
	return nil
}

// writeManifest atomically replaces serve.json: the identity, the
// snapshot pointer and c as the base claim.
func (j *journal) writeManifest(c durable.Claim) error {
	return j.dir.WriteJSON(manifestName, manifest{
		Version:         manifestVersion,
		journalIdentity: j.ident,
		ShardLines:      c.ShardLines,
		Records:         c.Records,
		Epochs:          c.Epochs,
		SnapshotEpoch:   c.SnapshotEpoch,
		SnapshotSHA256:  j.snapSum,
	})
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
//     truncate the file to zero, then the claim log (logs.Reset). A
//     kill between shards leaves a mix of empty and residue shards —
//     each recovers independently; claim lines left behind name the
//     old snapshot and are ignored.
//  4. cleanup: remove the previous snapshot file. A kill before this
//     leaves an orphan the next open removes.
//
// Any failure breaks the journal's Dir: memory and disk may disagree
// past this point, so no further record may be acked.
func (j *journal) compact(epoch int, snapData []byte, records int64, epochs int) error {
	if err := j.dir.WriteAtomic(snapshotFile(epoch), snapData); err != nil {
		return err
	}
	oldEpoch := j.logs.Gen()
	j.snapSum = shaSum(snapData)
	if err := j.writeManifest(durable.Claim{SnapshotEpoch: epoch, ShardLines: make([]int, j.ident.Shards), Records: records, Epochs: epochs}); err != nil {
		return err
	}
	if err := j.logs.Reset(epoch); err != nil {
		return err
	}
	if oldEpoch > 0 {
		if err := j.dir.Remove(snapshotFile(oldEpoch)); err != nil {
			return err
		}
	}
	return nil
}
