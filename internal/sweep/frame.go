package sweep

import (
	"bytes"
	"encoding/json"

	"neutrality/internal/durable"
	"neutrality/internal/grid"
)

// Shard framing (artifact format v2): every shard line is a durable
// line frame around the canonical json.Marshal of the Record, so
// recovery can quarantine exactly the damaged cells and re-derive them
// from (fingerprint, seed). The manifest also records a SHA-256 per
// shard over the claimed prefix, so an intact shard verifies with one
// hash pass instead of a record-by-record parse. See FORMAT.md.

// frameSpan is the byte range [off, end) of one kept line inside a
// shard image. The zero span marks a quarantined slot.
type frameSpan struct{ off, end int64 }

// scanSpec carries the identity a content scan validates records
// against.
type scanSpec struct {
	g        *grid.Grid
	baseSeed int64
	rng      grid.Range
	shards   int
}

// cellOf maps shard s's slot j back to its global cell index.
func (spec scanSpec) cellOf(s, j int) int {
	return spec.rng.Lo + j*spec.shards + s
}

// parseSlot validates one framed line as the record of some slot of
// shard s: frame CRC, decodable JSON, cell inside the range and owned
// by this shard, seed derived from the cell, and byte-for-byte
// canonical form (so every accepted record round-trips exactly —
// which is what lets a repaired cell splice back byte-identically).
func (spec scanSpec) parseSlot(s int, line []byte) (int, bool) {
	payload, err := durable.Unframe(line)
	if err != nil {
		return 0, false
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return 0, false
	}
	if r.Cell < spec.rng.Lo || r.Cell >= spec.rng.Hi {
		return 0, false
	}
	local := r.Cell - spec.rng.Lo
	if local%spec.shards != s {
		return 0, false
	}
	if r.Seed != cellSeed(spec.g, spec.baseSeed, r.Cell) {
		return 0, false
	}
	canon, err := json.Marshal(r)
	if err != nil || !bytes.Equal(canon, payload) {
		return 0, false
	}
	return local / spec.shards, true
}

// shardScan is the outcome of content-scanning one shard image.
type shardScan struct {
	// slots[j] is the byte span of the valid line occupying slot j; a
	// zero span marks a quarantined slot (always below the claim).
	slots []frameSpan
	// quarantine lists the quarantined slot indices, ascending.
	quarantine []int
	// keep is how many leading bytes survive when the image is clean
	// (dirty == false): everything past it is a torn tail or
	// past-frontier residue that plain truncation removes.
	keep int64
	// dirty marks an image whose kept region cannot be produced by
	// truncation alone — mid-file corruption, missing or duplicated
	// records — so the shard must be rebuilt from slots plus repaired
	// records.
	dirty bool
}

// scanShard content-scans shard s's image. claimed is the number of
// lines the manifest claims for this shard (its durable prefix);
// wantSum, when non-empty, is the manifest's SHA-256 over exactly that
// prefix, enabling a fast path that adopts a matching prefix without
// parsing a single record.
//
// The scan distinguishes the two damage classes the format is built
// around:
//
//   - Inside the claim, an anomaly is mid-file corruption: the damaged
//     slot is quarantined (to be re-derived from its seed) and the
//     scan continues, so one flipped byte costs one record, not the
//     shard. A valid line whose cell belongs to a later slot fills
//     that slot and quarantines the skipped ones, so even a deleted
//     line stays localized.
//   - At or past the claim, an anomaly is a torn tail — bytes a kill
//     cut mid-write, with no durability promise behind them — and ends
//     the scan; those cells re-execute through the ordinary stream.
//
// Recovery therefore never invents a record: every kept byte either
// hashed against the manifest, or parsed as a canonically-framed
// record of its own slot.
func scanShard(spec scanSpec, s int, data []byte, claimed int, wantSum string) shardScan {
	var sc shardScan
	// Positional line boundaries. Bytes after the last newline can
	// never be a complete record.
	var lines []frameSpan
	var off int64
	for {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		lines = append(lines, frameSpan{off, off + int64(nl) + 1})
		off += int64(nl) + 1
	}

	start, cursor := 0, 0
	if wantSum != "" && claimed > 0 && len(lines) >= claimed {
		if prefix := lines[claimed-1].end; durable.SHA256Hex(data[:prefix]) == wantSum {
			// Fast path: the content hash proves the claimed prefix
			// bit for bit; adopt it without parsing.
			sc.slots = append(sc.slots, lines[:claimed]...)
			start, cursor = claimed, claimed
		}
	}

scan:
	for _, ln := range lines[start:] {
		slot, ok := spec.parseSlot(s, data[ln.off:ln.end-1])
		switch {
		case !ok:
			if cursor >= claimed {
				break scan
			}
			sc.quarantine = append(sc.quarantine, cursor)
			sc.slots = append(sc.slots, frameSpan{})
			sc.dirty = true
			cursor++
		case slot < cursor:
			// Duplicate or regression: the slot is already decided.
			if cursor >= claimed {
				break scan
			}
			sc.dirty = true
		case slot > cursor:
			// Gap: slots [cursor, slot) have no surviving line. Within
			// the claim they are quarantined and this line keeps its
			// own slot; a gap reaching past the claim ends the scan
			// (the missing cells simply re-execute).
			if slot > claimed {
				break scan
			}
			for cursor < slot {
				sc.quarantine = append(sc.quarantine, cursor)
				sc.slots = append(sc.slots, frameSpan{})
				cursor++
			}
			sc.dirty = true
			sc.slots = append(sc.slots, ln)
			cursor++
		default: // slot == cursor
			sc.slots = append(sc.slots, ln)
			cursor++
		}
	}

	// Claimed slots the image never resolved (file ended early, or a
	// whole-shard deletion left nothing at all).
	for cursor < claimed {
		sc.quarantine = append(sc.quarantine, cursor)
		sc.slots = append(sc.slots, frameSpan{})
		sc.dirty = true
		cursor++
	}
	if !sc.dirty {
		if n := len(sc.slots); n > 0 {
			sc.keep = sc.slots[n-1].end
		}
	}
	return sc
}
