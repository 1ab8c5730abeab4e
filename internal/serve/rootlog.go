package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"neutrality/internal/durable"
)

// The root's durable side: an append-only log of every accepted leaf
// epoch report, so a restarted root resumes with its per-leaf epoch
// high-water marks and fold state intact and running leaves simply
// continue shipping from their next unacked epoch — no full-tree
// restart, no permanent 409 wedge against leaves that already acked
// and dropped their reports.
//
// Since report-log format v2 it is the ingest journal's claimed log
// set with one log: one framed line per accepted report in root.jsonl,
// and a claim line in claims.jsonl covering it, both flushed BEFORE a
// delivery is acked — a leaf that sees 200 may drop its only other
// copy. The manifest, root.json, holds the identity and a base claim
// and is written only when the log is created or a v1 log is first
// resumed. Damage inside the claim is therefore errkind.Corrupt; lines past
// it were never acked, so replay adopts them only while they extend
// the fold cleanly and truncates the rest (the leaf re-sends).
//
// Unlike the ingest journal the log has no compaction: it grows one
// small aggregate line per leaf-epoch, orders of magnitude slower
// than raw ingest, so snapshotting it is not worth the machinery yet.
const (
	rootLogName      = "root.jsonl"
	rootManifestName = "root.json"
	// rootLogVersion is the report-log format version, independent of
	// the ingest journal's manifestVersion. Version 2 added the claim
	// log; a v1 log is a v2 log without one, so it is still adopted.
	rootLogVersion = 2
	rootLogV1      = 1
)

// rootLogIdentity is the configuration a resume must match.
type rootLogIdentity struct {
	Net        string  `json:"net"`
	Paths      int     `json:"paths"`
	Leaves     int     `json:"leaves"`
	Seed       int64   `json:"seed"`
	LossThresh float64 `json:"loss_threshold"`
	Normalize  bool    `json:"normalize"`
	Smoothing  float64 `json:"smoothing"`
}

// rootManifest is root.json: the identity and the base claim.
type rootManifest struct {
	Version int `json:"version"`
	rootLogIdentity
	// Lines is the base claim, the durable line count of root.jsonl,
	// which claim-log lines supersede. Records and Epochs echo the
	// folded state at the claim for fast inspection.
	Lines   int   `json:"lines"`
	Records int64 `json:"records"`
	Epochs  int   `json:"epochs"`
}

// rootIdentity derives the report-log identity from the config.
func rootIdentity(cfg RootConfig) rootLogIdentity {
	return rootLogIdentity{
		Net:        cfg.NetName,
		Paths:      cfg.Net.NumPaths(),
		Leaves:     cfg.Leaves,
		Seed:       cfg.Opts.Seed,
		LossThresh: cfg.Opts.LossThreshold,
		Normalize:  cfg.Opts.Normalize,
		Smoothing:  cfg.Opts.Smoothing,
	}
}

// openLog opens (or creates) the report log in cfg.Dir and replays it
// through the same admission as live shipment, rebuilding the per-leaf
// marks and the fold to the exact pre-restart state. Claimed lines
// were acked (the leaf may have dropped its copy), so a claimed line
// that fails to replay is errkind.Corrupt; past the claim, replay stops at
// the first line that does not extend the fold cleanly — a duplicate
// or a gap included — since it was never acked and the leaf re-sends
// it.
func (r *Root) openLog() error {
	dir, err := durable.Open(r.cfg.Dir)
	if err != nil {
		return fmt.Errorf("serve: root log dir: %w", err)
	}
	ident := rootIdentity(r.cfg)
	var m rootManifest
	mExists, err := readManifest(dir, rootManifestName, &m)
	if err != nil {
		return err
	}
	if mExists {
		if m.Version != rootLogVersion && m.Version != rootLogV1 {
			return errValidationf("serve: root log format version %d, this build reads %d and %d; the log cannot be adopted", m.Version, rootLogV1, rootLogVersion)
		}
		if diff := identityDiff(m.rootLogIdentity, ident); diff != "" {
			return errValidationf("serve: root log identity mismatch: %s", diff)
		}
	}

	logs, err := dir.ReadClaimed(rootLogName)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if (mExists || !logs.Empty()) && !r.cfg.Resume {
		return errValidationf("serve: %s already holds a root log; pass resume to adopt it", r.cfg.Dir)
	}
	var base *durable.Claim
	if mExists {
		base = &durable.Claim{ShardLines: []int{m.Lines}, Records: m.Records, Epochs: m.Epochs}
	}
	adopted := 0
	c, err := logs.Recover(base, func(_ int, payload []byte) error {
		var rep EpochReport
		if err := json.Unmarshal(payload, &rep); err != nil {
			return fmt.Errorf("report does not parse: %v", err)
		}
		line, dup, err := r.admitLocked(&rep)
		if err == nil && !bytes.Equal(line, payload) {
			err = fmt.Errorf("report is not in canonical form")
		}
		if err == nil && dup {
			err = fmt.Errorf("leaf %q logged epoch %d twice", rep.Leaf, rep.Epoch)
		}
		if err == nil {
			err = r.acceptLocked(rep)
		}
		if err == nil {
			adopted++
		}
		return err
	})
	if err != nil {
		return errCorruptf("serve: root log %v", err)
	}
	// A new log, or a v1 one, gets a v2 manifest before its first claim
	// line, so an older build refuses the directory.
	if !mExists || m.Version == rootLogV1 {
		m = rootManifest{Version: rootLogVersion, rootLogIdentity: ident, Lines: c.ShardLines[0], Records: c.Records, Epochs: c.Epochs}
		if err := dir.WriteJSON(rootManifestName, m); err != nil {
			return err
		}
	}
	// Adoption drops the torn tail and claims the replayed lines: their
	// state is folded in, so from here they answer duplicate acks and
	// must be durable.
	if err = logs.Adopt([]int{adopted}); err == nil {
		err = logs.Flush(r.records, r.epoch)
	}
	if err != nil {
		logs.Close()
		return err
	}
	r.log = logs
	return nil
}
