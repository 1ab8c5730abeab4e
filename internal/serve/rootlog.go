package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"neutrality/internal/durable"
)

// The root's durable side: an append-only log of every accepted leaf
// epoch report, so a restarted root resumes with its per-leaf epoch
// high-water marks and fold state intact and running leaves simply
// continue shipping from their next unacked epoch — no full-tree
// restart, no permanent 409 wedge against leaves that already acked
// and dropped their reports.
//
// Like the ingest journal it is an internal/durable log: one framed
// line per accepted report, and a manifest (root.json) whose claim
// advances BEFORE a delivery is acked — a leaf that sees 200 may drop
// its only other copy. Damage inside the claim is therefore ErrCorrupt;
// lines past it were never acked, so replay adopts them only while
// they extend the fold cleanly and truncates the rest (the leaf
// re-sends).
//
// Unlike the ingest journal the log has no compaction: it grows one
// small aggregate line per leaf-epoch, orders of magnitude slower
// than raw ingest, so snapshotting it is not worth the machinery yet.
const (
	rootLogName      = "root.jsonl"
	rootManifestName = "root.json"
	// rootLogVersion is the report-log format version, independent of
	// the ingest journal's manifestVersion.
	rootLogVersion = 1
)

// rootManifest is the report log's durability claim plus the
// configuration identity a resume must match.
type rootManifest struct {
	Version    int     `json:"version"`
	Net        string  `json:"net"`
	Paths      int     `json:"paths"`
	Leaves     int     `json:"leaves"`
	Seed       int64   `json:"seed"`
	LossThresh float64 `json:"loss_threshold"`
	Normalize  bool    `json:"normalize"`
	Smoothing  float64 `json:"smoothing"`
	// Lines is the claimed durable line count — every acknowledged
	// delivery is inside it. Records and Epochs echo the folded state
	// at the claim for fast inspection.
	Lines   int   `json:"lines"`
	Records int64 `json:"records"`
	Epochs  int   `json:"epochs"`
}

// withClaim returns m carrying the given claim.
func (m rootManifest) withClaim(lines int, records int64, epochs int) rootManifest {
	m.Lines, m.Records, m.Epochs = lines, records, epochs
	return m
}

// rootIdentity derives the manifest identity block from the config.
func rootIdentity(cfg RootConfig) rootManifest {
	return rootManifest{
		Version:    rootLogVersion,
		Net:        cfg.NetName,
		Paths:      cfg.Net.NumPaths(),
		Leaves:     cfg.Leaves,
		Seed:       cfg.Opts.Seed,
		LossThresh: cfg.Opts.LossThreshold,
		Normalize:  cfg.Opts.Normalize,
		Smoothing:  cfg.Opts.Smoothing,
	}
}

// rootLog is the append side of the report log. Any write failure
// breaks dir: once disk may disagree with memory, no further delivery
// may be acked.
type rootLog struct {
	dir   *durable.Dir
	log   *durable.Log
	lines int // the claim: the manifest's until replay adopts
	ident rootManifest
}

// openRootLog opens (or creates) the report log in cfg.Dir and returns
// the append handle plus the frame-validated reports and the byte
// offset each line ends at. Lines within the manifest claim must
// verify — anything else is ErrCorrupt; past the claim, lines are
// recovered until the first invalid one. The semantic replay (and the
// final adoption/truncation decision) belongs to NewRoot.
func openRootLog(cfg RootConfig) (*rootLog, []EpochReport, []int64, error) {
	dir, err := durable.Open(cfg.Dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: root log dir: %w", err)
	}
	ident := rootIdentity(cfg)

	var m rootManifest
	mExists := false
	mdata, err := os.ReadFile(dir.Path(rootManifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, nil, nil, fmt.Errorf("serve: reading root manifest: %w", err)
	default:
		mExists = true
		if err := json.Unmarshal(mdata, &m); err != nil {
			return nil, nil, nil, errCorruptf("serve: root manifest does not parse: %v", err)
		}
		if m.Version != rootLogVersion {
			return nil, nil, nil, errValidationf("serve: root log format version %d, this build writes %d; the log cannot be adopted", m.Version, rootLogVersion)
		}
		if m.withClaim(0, 0, 0) != ident {
			return nil, nil, nil, errValidationf("serve: root log identity mismatch: log is (net=%q paths=%d leaves=%d seed=%d), config is (net=%q paths=%d leaves=%d seed=%d)",
				m.Net, m.Paths, m.Leaves, m.Seed, ident.Net, ident.Paths, ident.Leaves, ident.Seed)
		}
		if m.Lines < 0 {
			return nil, nil, nil, errCorruptf("serve: root manifest claims %d lines", m.Lines)
		}
	}

	data, err := os.ReadFile(dir.Path(rootLogName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("serve: reading root log: %w", err)
	}
	if (mExists || len(data) > 0) && !cfg.Resume {
		return nil, nil, nil, errValidationf("serve: %s already holds a root log; pass resume to adopt it", cfg.Dir)
	}

	var reports []EpochReport
	ends, err := durable.Recover(data, m.Lines, func(payload []byte) error {
		rep, err := parseReport(payload)
		if err == nil {
			reports = append(reports, rep)
		}
		return err
	})
	if err != nil {
		return nil, nil, nil, errCorruptf("serve: root log %v", err)
	}

	log, err := dir.OpenLog(rootLogName)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: opening root log: %w", err)
	}
	return &rootLog{dir: dir, log: log, lines: m.Lines, ident: ident}, reports, ends, nil
}

// parseReport validates one report line's payload: decodable JSON, a
// verifying content seal, and byte-for-byte canonical form.
func parseReport(payload []byte) (EpochReport, error) {
	var rep EpochReport
	if err := json.Unmarshal(payload, &rep); err != nil {
		return EpochReport{}, fmt.Errorf("report does not parse: %v", err)
	}
	canon, err := json.Marshal(rep)
	if err != nil || !bytes.Equal(canon, payload) {
		return EpochReport{}, fmt.Errorf("report is not in canonical form")
	}
	if !verifyReport(rep) {
		return EpochReport{}, fmt.Errorf("report fails its content hash")
	}
	return rep, nil
}

// append writes one accepted report durably: the framed line, then the
// manifest claiming it — both before the delivery is acknowledged.
// Reports are rare (one per leaf-epoch), so the per-delivery manifest
// replacement is cheap.
func (l *rootLog) append(rep EpochReport, records int64, epochs int) error {
	payload, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("serve: root log marshal: %w", err)
	}
	if _, err := l.log.Append(func(b []byte) []byte { return append(b, payload...) }); err != nil {
		return err
	}
	if err := l.log.Flush(); err != nil {
		return err
	}
	l.lines++
	return l.writeManifest(records, epochs)
}

// writeManifest claims the current line count, replacing the manifest
// atomically so a kill leaves either the previous claim or the new one.
func (l *rootLog) writeManifest(records int64, epochs int) error {
	return l.dir.WriteJSON(rootManifestName, l.ident.withClaim(l.lines, records, epochs))
}
