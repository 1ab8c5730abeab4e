package sweep

import (
	"context"
	"fmt"
	"os"
	"sort"

	"neutrality/internal/durable"
	"neutrality/internal/errkind"
	"neutrality/internal/grid"
)

// ShardStatus is one shard's verification outcome.
type ShardStatus struct {
	// Shard is the shard index.
	Shard int
	// Missing reports that the shard file does not exist at all.
	Missing bool
	// HashOK reports that the SHA-256 over the claimed prefix matches
	// the manifest's shard_sha256 (the fast, whole-prefix check).
	HashOK bool
	// Records is the number of valid records the content scan kept.
	Records int
	// Quarantine are the global cell indices whose records are
	// damaged (failed CRC, missing, displaced) and would be re-derived
	// by Repair.
	Quarantine []int
	// TailBytes counts trailing bytes past the kept region — a torn
	// tail or past-frontier residue. Harmless on an in-progress
	// directory (resume truncates it); on a completed one it means the
	// file grew beyond its claim.
	TailBytes int64
}

// VerifyReport is the outcome of a read-only integrity scrub of one
// sweep directory.
type VerifyReport struct {
	// Dir is the directory that was verified.
	Dir string
	// Info is the directory's validated manifest.
	Info *ManifestInfo
	// Shards holds one status per shard.
	Shards []ShardStatus
	// Quarantine are all damaged global cells across shards,
	// ascending.
	Quarantine []int
	// Clean reports a fully intact directory: every shard's claimed
	// prefix verified against its content hash (or record-by-record)
	// with nothing quarantined.
	Clean bool
}

// Err returns nil for a clean report, or an errkind.Corrupt-tagged error
// naming the damage for a dirty one — the shape CLI and orchestration
// callers branch on.
func (rep *VerifyReport) Err() error {
	if rep.Clean {
		return nil
	}
	bad := 0
	for _, s := range rep.Shards {
		if len(s.Quarantine) > 0 || !s.HashOK {
			bad++
		}
	}
	return errkind.Errorf(errkind.Corrupt, "sweep: verify: %s: %d of %d shards damaged, %d cells quarantined — re-run with -repair to re-derive them", rep.Dir, bad, len(rep.Shards), len(rep.Quarantine))
}

// Verify walks dir's artifacts — manifest, per-shard content hashes,
// per-record CRC framing — and reports every integrity violation
// without mutating anything. The grid must be the one the directory
// was recorded for (fingerprint-checked); seeds are validated from the
// manifest's base seed. An unreadable or corrupt manifest fails with
// errkind.Corrupt (there is no identity to verify records against); use
// Repair with RepairOptions.Expect to rebuild one.
func Verify(g *grid.Grid, dir string) (*VerifyReport, error) {
	if err := Validate(g); err != nil {
		return nil, err
	}
	mdata, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, errkind.Errorf(errkind.Corrupt, "sweep: verify: %s holds no readable manifest: %w", dir, err)
	}
	m, err := parseManifest(mdata)
	if err != nil {
		return nil, errkind.Errorf(errkind.Corrupt, "sweep: verify: corrupt manifest in %s: %w", dir, err)
	}
	if m.Fingerprint != g.Fingerprint() {
		return nil, errkind.Errorf(errkind.Validation, "sweep: verify: %s was recorded for spec %s (fingerprint %.12s…), not this spec (%.12s…)",
			dir, m.Name, m.Fingerprint, g.Fingerprint())
	}
	rng := m.rng()
	spec := scanSpec{g: g, baseSeed: m.BaseSeed, rng: rng, shards: m.Shards}
	rep := &VerifyReport{Dir: dir, Clean: true}
	rep.Info = manifestInfo(m)
	for s := 0; s < m.Shards; s++ {
		st := ShardStatus{Shard: s}
		data, err := os.ReadFile(shardPath(dir, s))
		switch {
		case os.IsNotExist(err):
			st.Missing = true
		case err != nil:
			return nil, fmt.Errorf("sweep: verify: %w", err)
		}
		claimed := linesOf(m.Completed, s, m.Shards)
		sc := scanShard(spec, s, data, claimed, m.ShardSums[s])
		// Re-derive HashOK independently of the scan's fast path so
		// the report says which check failed: the prefix hash can
		// mismatch while every record still parses (e.g. a manifest
		// from a different frontier).
		st.HashOK = claimedPrefixHashOK(data, sc, claimed, m.ShardSums[s])
		for _, j := range sc.quarantine {
			cell := spec.cellOf(s, j)
			st.Quarantine = append(st.Quarantine, cell)
			rep.Quarantine = append(rep.Quarantine, cell)
		}
		for _, span := range sc.slots {
			if span != (frameSpan{}) {
				st.Records++
			}
		}
		if n := len(sc.slots); n > 0 && !sc.dirty {
			st.TailBytes = int64(len(data)) - sc.slots[n-1].end
		} else if n == 0 && !sc.dirty {
			st.TailBytes = int64(len(data))
		}
		if len(st.Quarantine) > 0 || !st.HashOK {
			rep.Clean = false
		}
		rep.Shards = append(rep.Shards, st)
	}
	// Verification is positional over shards, so the global quarantine
	// needs a final sort to read in cell order.
	sort.Ints(rep.Quarantine)
	return rep, nil
}

// claimedPrefixHashOK checks the manifest's shard_sha256 directly
// against the image's claimed prefix, using the scan's slot spans to
// find where that prefix ends.
func claimedPrefixHashOK(data []byte, sc shardScan, claimed int, want string) bool {
	if claimed == 0 {
		return durable.SHA256Hex(nil) == want
	}
	if sc.dirty || len(sc.slots) < claimed {
		return false
	}
	return durable.SHA256Hex(data[:sc.slots[claimed-1].end]) == want
}

// RepairOptions configure Repair.
type RepairOptions struct {
	// Workers bounds the repair pool (0 = one per CPU).
	Workers int
	// Expect supplies the directory's identity when its manifest is
	// itself destroyed: the shard count, base seed, cell range, and
	// completed frontier to rebuild against. Ignored when the
	// directory holds a valid manifest (the manifest wins — it is the
	// durable identity). Fingerprint and Cells are taken from the
	// grid.
	Expect *ManifestInfo
}

// RepairReport is the outcome of a Repair.
type RepairReport struct {
	// Repaired are the global cells that were re-derived from their
	// seeds and spliced back.
	Repaired []int
	// ManifestRebuilt reports that the manifest itself was destroyed
	// and reconstructed from RepairOptions.Expect.
	ManifestRebuilt bool
	// Completed is the directory's frontier after repair.
	Completed int
	// Range is the cell range the directory covers.
	Range grid.Range
}

// Repair converges dir on a state indistinguishable from an
// uncorrupted run: damaged records are re-derived through the ordinary
// per-cell executor (byte-identical by construction, since every
// record is a pure function of (grid, cell, seed)), spliced back
// atomically, torn tails truncated, and the manifest rewritten with
// fresh content hashes. A directory whose manifest is destroyed is
// repaired against RepairOptions.Expect; without it, Repair fails
// (there is nothing trustworthy to repair toward). Repairing an
// incomplete directory repairs its claimed prefix only — resuming the
// sweep remains Run's job.
func Repair(ctx context.Context, g *grid.Grid, dir string, opt RepairOptions) (*RepairReport, error) {
	if err := Validate(g); err != nil {
		return nil, err
	}
	rep := &RepairReport{}
	var m *manifest
	mdata, err := os.ReadFile(manifestPath(dir))
	if err == nil {
		m, err = parseManifest(mdata)
	}
	if m == nil {
		// Destroyed manifest: rebuild the identity from Expect. The
		// claim drives quarantining, so every cell Expect claims that
		// the shards cannot prove is re-derived.
		e := opt.Expect
		if e == nil {
			return nil, errkind.Errorf(errkind.Corrupt, "sweep: repair: %s holds no valid manifest (%v) and no expected identity was supplied", dir, err)
		}
		if e.Shards < 1 || e.Shards > 4096 {
			return nil, errkind.Errorf(errkind.Validation, "sweep: repair: expected identity has %d shards (outside [1,4096])", e.Shards)
		}
		rng := e.Range
		if rng == (grid.Range{}) {
			rng = g.FullRange()
		}
		if rng.Lo < 0 || rng.Hi > g.Cells() || rng.Hi < rng.Lo || (rng.Lo%e.Shards != 0 && rng.Lo != g.Cells()) {
			return nil, errkind.Errorf(errkind.Validation, "sweep: repair: expected range [%d,%d) is not a shard-aligned range of the %d-cell grid", rng.Lo, rng.Hi, g.Cells())
		}
		completed := e.Completed
		if completed < 0 || completed > rng.Len() {
			return nil, errkind.Errorf(errkind.Validation, "sweep: repair: expected frontier %d outside range [%d,%d)", completed, rng.Lo, rng.Hi)
		}
		m = &manifest{
			Version:     manifestVersion,
			Name:        g.Name,
			Fingerprint: g.Fingerprint(),
			Cells:       g.Cells(),
			Shards:      e.Shards,
			BaseSeed:    e.BaseSeed,
			Completed:   completed,
		}
		if !e.Partition.IsZero() || rng != g.FullRange() {
			m.Range = &manifestRange{K: e.Partition.K, N: e.Partition.N, Lo: rng.Lo, Hi: rng.Hi}
		}
		rep.ManifestRebuilt = true
	}
	if m.Fingerprint != g.Fingerprint() {
		return nil, errkind.Errorf(errkind.Validation, "sweep: repair: %s was recorded for spec %s (fingerprint %.12s…), not this spec (%.12s…)",
			dir, m.Name, m.Fingerprint, g.Fingerprint())
	}
	if !rep.ManifestRebuilt {
		if err := m.checkDraw("sweep: repair", dir); err != nil {
			return nil, err
		}
	}
	// At, not Open: Repair may run on a fleet staging copy, where a
	// concurrent upload's temp file is not a leftover.
	st := &store{dir: durable.At(dir), g: g, shards: m.Shards, rng: m.rng(), baseSeed: m.BaseSeed}
	if m.Range != nil {
		st.part = Partition{K: m.Range.K, N: m.Range.N}
	}
	if err := st.recover(m); err != nil {
		return nil, err
	}
	rep.Repaired = append(rep.Repaired, st.plan.quarantine...)
	if err := st.heal(ctx, opt.Workers); err != nil {
		return nil, err
	}
	st.closeFiles()
	rep.Completed = st.completed
	rep.Range = st.rng
	return rep, nil
}

// manifestInfo converts the internal manifest into its exported view.
func manifestInfo(m *manifest) *ManifestInfo {
	info := &ManifestInfo{
		Name:        m.Name,
		Fingerprint: m.Fingerprint,
		Cells:       m.Cells,
		Shards:      m.Shards,
		BaseSeed:    m.BaseSeed,
		Completed:   m.Completed,
		Range:       m.rng(),
	}
	if m.Range != nil {
		info.Partition = Partition{K: m.Range.K, N: m.Range.N}
	}
	return info
}
