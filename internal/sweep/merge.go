package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"

	"neutrality/internal/durable"
	"neutrality/internal/errkind"
	"neutrality/internal/grid"
)

// partDir is one verified partition directory of a merge.
type partDir struct {
	dir string
	m   *manifest
	rng grid.Range
}

// Merge reconstitutes a single-run sweep directory from partition
// directories produced by Options.Partition runs of the same
// fingerprinted grid. It verifies that every partition matches the
// spec (fingerprint, shards, base seed), is complete, and that the
// ranges are disjoint and cover every cell — incomplete partitions
// are reported with their resumable frontier, coverage gaps with the
// missing cell range — then concatenates (or, for a single source,
// hard-links) the shard files in range order into out, writes the
// merged manifest, and replays the merged records in cell order into
// a fresh aggregate.
//
// The result is byte-identical to what a single-process run of the
// same (grid, shards, seed) would have produced: the shard files by
// the shard-alignment invariant, the manifest because merged and
// full-run manifests share the rangeless form, and the aggregate
// Summary because replaying in cell order is exactly the single run's
// fold.
func Merge(g *grid.Grid, dirs []string, out string) (*Result, error) {
	if err := Validate(g); err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("sweep: merge needs at least one partition directory")
	}
	cells := g.Cells()

	parts := make([]partDir, 0, len(dirs))
	for _, dir := range dirs {
		mdata, err := os.ReadFile(manifestPath(dir))
		if err != nil {
			return nil, fmt.Errorf("sweep: merge: %s holds no sweep manifest: %w", dir, err)
		}
		m, err := parseManifest(mdata)
		if err != nil {
			return nil, errkind.Errorf(errkind.Validation, "sweep: merge: corrupt manifest in %s: %w", dir, err)
		}
		if m.Fingerprint != g.Fingerprint() {
			return nil, errkind.Errorf(errkind.Validation, "sweep: merge: %s was recorded for spec %s (fingerprint %.12s…), not this spec (%.12s…)",
				dir, m.Name, m.Fingerprint, g.Fingerprint())
		}
		if m.Cells != cells {
			return nil, errkind.Errorf(errkind.Validation, "sweep: merge: %s records %d cells, spec has %d", dir, m.Cells, cells)
		}
		if err := m.checkDraw("sweep: merge", dir); err != nil {
			return nil, err
		}
		parts = append(parts, partDir{dir: dir, m: m, rng: m.rng()})
	}
	shards, baseSeed := parts[0].m.Shards, parts[0].m.BaseSeed
	for _, p := range parts[1:] {
		if p.m.Shards != shards || p.m.BaseSeed != baseSeed {
			return nil, errkind.Errorf(errkind.Validation, "sweep: merge: %s was recorded with shards=%d seed=%d, %s with shards=%d seed=%d",
				parts[0].dir, shards, baseSeed, p.dir, p.m.Shards, p.m.BaseSeed)
		}
	}

	// Completeness per partition: an unfinished partition has a
	// resumable frontier — report it instead of merging a hole.
	for _, p := range parts {
		if p.m.Completed != p.rng.Len() {
			return nil, errkind.Errorf(errkind.Incomplete, "sweep: merge: %s is incomplete: %d of %d cells done, resumable frontier at cell %d — finish it with -resume before merging",
				p.dir, p.m.Completed, p.rng.Len(), p.rng.Lo+p.m.Completed)
		}
	}

	// Coverage: ranges must tile [0, cells) exactly — no gaps, no
	// overlaps. Gaps are resumable frontiers of partitions not yet
	// run; overlaps would double cells.
	sort.Slice(parts, func(i, j int) bool { return parts[i].rng.Lo < parts[j].rng.Lo })
	cursor := 0
	for _, p := range parts {
		switch {
		case p.rng.Lo > cursor:
			return nil, errkind.Errorf(errkind.Incomplete, "sweep: merge: cells [%d,%d) are covered by no partition directory — run that partition (or resume it) before merging", cursor, p.rng.Lo)
		case p.rng.Lo < cursor:
			return nil, errkind.Errorf(errkind.Validation, "sweep: merge: %s overlaps cells [%d,%d) already covered by an earlier partition", p.dir, p.rng.Lo, cursor)
		}
		cursor = p.rng.Hi
	}
	if cursor != cells {
		return nil, errkind.Errorf(errkind.Incomplete, "sweep: merge: cells [%d,%d) are covered by no partition directory — run that partition before merging", cursor, cells)
	}

	// Assemble the output directory, verifying every source shard's
	// bytes against its manifest's content hash on the way through —
	// a corrupt partition must surface as errkind.Corrupt (so the caller
	// can repair or re-speculate it) before anything is hard-linked,
	// not as a mystery in the replay below.
	dir, err := durable.Open(out)
	if err != nil {
		return nil, fmt.Errorf("sweep: merge: %w", err)
	}
	if _, err := os.Stat(manifestPath(out)); err == nil {
		return nil, errkind.Errorf(errkind.Validation, "sweep: merge: %s already contains a sweep; use a fresh directory", out)
	}
	sums := make([]string, shards)
	for s := 0; s < shards; s++ {
		sum, err := assembleShard(parts, out, s)
		if err != nil {
			return nil, err
		}
		sums[s] = sum
	}

	// Replay the merged records in cell order — validating every
	// record's slot along the way — into a fresh aggregate: the exact
	// fold a single-process run performs, so the Summary is
	// bit-identical to it (not merely up to merge rounding).
	agg := NewAgg(g)
	st := &store{dir: dir, g: g, shards: shards, rng: g.FullRange(), baseSeed: baseSeed, completed: cells}
	if err := st.replay(agg.Add); err != nil {
		return nil, err
	}

	// The manifest is the commit point (same invariant as the store's
	// checkpoint: it never claims records the files do not validly
	// hold), so it is written only after the replay has proven every
	// merged record sits in its slot — a failed merge leaves shard
	// fragments but nothing that reads as a complete sweep.
	m := &manifest{
		Version:     manifestVersion,
		Name:        g.Name,
		Fingerprint: g.Fingerprint(),
		Cells:       cells,
		Shards:      shards,
		BaseSeed:    baseSeed,
		Completed:   cells,
		PerShard:    make([]int, shards),
		ShardSums:   sums,
	}
	for s := 0; s < shards; s++ {
		m.PerShard[s] = linesOf(cells, s, shards)
	}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	return &Result{Agg: agg, Total: cells, Resumed: cells, Range: g.FullRange()}, nil
}

// assembleShard builds out's shard s from the partitions' shard-s
// files, in range order, returning the merged file's SHA-256. Every
// source's bytes are hashed against its manifest's shard_sha256 on
// the way through — a mismatch fails with errkind.Corrupt before the
// manifest commit point, and a hard link is only taken after the
// source it aliases has verified. With a single source the file is
// hard-linked (falling back to a copy across filesystems); otherwise
// the pieces are concatenated.
func assembleShard(parts []partDir, out string, s int) (string, error) {
	dst := shardPath(out, s)
	// A retried merge may find dst left over from a failed attempt —
	// possibly as a hard link to a SOURCE shard file. Remove the name
	// first: truncating it in place (O_TRUNC) would otherwise destroy
	// the partition's own records through the shared inode.
	if err := os.Remove(dst); err != nil && !os.IsNotExist(err) {
		return "", fmt.Errorf("sweep: merge: %w", err)
	}
	if len(parts) == 1 {
		p := parts[0]
		src := shardPath(p.dir, s)
		data, err := os.ReadFile(src)
		if err != nil {
			return "", fmt.Errorf("sweep: merge: %w", err)
		}
		sum := durable.SHA256Hex(data)
		if sum != p.m.ShardSums[s] {
			return "", errkind.Errorf(errkind.Corrupt, "sweep: merge: %s shard %d content hash %.12s… does not match its manifest's %.12s… — repair the partition (neutrality verify -repair) before merging", p.dir, s, sum, p.m.ShardSums[s])
		}
		if err := os.Link(src, dst); err == nil {
			return sum, nil
		}
		// Cross-device (or an fs without hard links): fall through to
		// the copy path below.
	}
	f, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("sweep: merge: %w", err)
	}
	merged := sha256.New()
	for _, p := range parts {
		src, err := os.Open(shardPath(p.dir, s))
		if err != nil {
			f.Close()
			return "", fmt.Errorf("sweep: merge: %w", err)
		}
		part := sha256.New()
		_, err = io.Copy(io.MultiWriter(f, merged, part), src)
		src.Close()
		if err != nil {
			f.Close()
			return "", fmt.Errorf("sweep: merge: %w", err)
		}
		if sum := hex.EncodeToString(part.Sum(nil)); sum != p.m.ShardSums[s] {
			f.Close()
			return "", errkind.Errorf(errkind.Corrupt, "sweep: merge: %s shard %d content hash %.12s… does not match its manifest's %.12s… — repair the partition (neutrality verify -repair) before merging", p.dir, s, sum, p.m.ShardSums[s])
		}
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("sweep: merge: %w", err)
	}
	return hex.EncodeToString(merged.Sum(nil)), nil
}
