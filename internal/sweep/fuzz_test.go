package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"neutrality/internal/durable"
	"neutrality/internal/grid"
)

// Fuzz targets for the artifact path every distributed sweep rests
// on: manifest JSON, shard crash recovery, and the v2 framing
// verifier. The shared contract: arbitrary bytes never panic,
// anything accepted satisfies the documented invariants, and recovery
// never invents a record that was not durably written.

// emptySum is SHA-256 of the empty string — the shard_sha256 of a
// shard with no claimed records.
var emptySum = durable.SHA256Hex(nil)

// FuzzManifestJSON: parseManifest accepts only manifests whose
// version, frontier, per-shard counts, sums, and range are mutually
// consistent — the invariants openStore and Merge later rely on
// without re-checking.
func FuzzManifestJSON(f *testing.F) {
	f.Add([]byte(`{"version":2,"name":"micro","fingerprint":"abc","cells":12,"shards":2,"base_seed":7,"completed":5,"per_shard":[3,2],"shard_sha256":["` + emptySum + `","` + emptySum + `"]}`))
	f.Add([]byte(`{"version":2,"name":"p","fingerprint":"abc","cells":12,"shards":3,"base_seed":7,"completed":3,"per_shard":[1,1,1],"shard_sha256":["` + emptySum + `","` + emptySum + `","` + emptySum + `"],"range":{"k":2,"n":4,"lo":3,"hi":6}}`))
	f.Add([]byte(`{"version":2,"name":"tolerant","fingerprint":"abc","cells":1,"shards":1,"completed":0,"per_shard":[0],"shard_sha256":["` + emptySum + `"],"a_future_minor_field":true}`))
	f.Add([]byte(`{"version":3,"name":"future","cells":1,"shards":1,"completed":0,"per_shard":[0],"shard_sha256":["` + emptySum + `"]}`))
	f.Add([]byte(`{"name":"legacy-v1","fingerprint":"abc","cells":12,"shards":2,"base_seed":7,"completed":5,"per_shard":[3,2]}`))
	f.Add([]byte(`{"version":2,"name":"bad","cells":-5,"shards":0,"completed":9,"per_shard":[]}`))
	f.Add([]byte(`{"version":2,"cells":4,"shards":1,"completed":9,"per_shard":[9],"shard_sha256":["` + emptySum + `"]}`))
	f.Add([]byte(`{"version":2,"cells":4,"shards":1,"completed":2,"per_shard":[2],"shard_sha256":["NOTHEX"],"range":{"k":1,"n":2,"lo":3,"hi":1}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		// Accepted: every invariant a consumer assumes must hold.
		if m.Version != manifestVersion {
			t.Fatalf("accepted foreign format version: %+v", m)
		}
		if m.Cells < 0 || m.Shards < 1 || m.Shards > 4096 || len(m.PerShard) != m.Shards {
			t.Fatalf("accepted inconsistent layout: %+v", m)
		}
		if len(m.ShardSums) != m.Shards {
			t.Fatalf("accepted sum/shard count mismatch: %+v", m)
		}
		for _, sum := range m.ShardSums {
			if !durable.IsSHA256Hex(sum) {
				t.Fatalf("accepted malformed shard sum: %+v", m)
			}
		}
		rng := m.rng()
		if rng.Lo < 0 || rng.Hi < rng.Lo || rng.Hi > m.Cells {
			t.Fatalf("accepted out-of-bounds range: %+v", m)
		}
		if m.Completed < 0 || m.Completed > rng.Len() {
			t.Fatalf("accepted frontier outside range: %+v", m)
		}
		sum := 0
		for s, c := range m.PerShard {
			if c != linesOf(m.Completed, s, m.Shards) {
				t.Fatalf("accepted per-shard count inconsistent with frontier: %+v", m)
			}
			sum += c
		}
		if sum != m.Completed {
			t.Fatalf("accepted per-shard counts not summing to frontier: %+v", m)
		}
	})
}

// fuzzRecoveryGrid is the fixed spec behind the shard fuzz targets: a
// cheap single-shard 12-cell grid. Recovery with a zero claim and
// read-only verification never emulate, so fuzz iterations stay fast.
func fuzzRecoveryGrid() *grid.Grid {
	return grid.New("fuzz-recovery", grid.Base{ScaleFactor: 0.05, DurationSec: 10}).
		Add("diff", grid.Str("police")).
		Add("rate", grid.Num(0.2), grid.Num(0.4)).
		Add("dfrac", grid.Nums(0.3, 0.7)...).
		Add("rep", grid.Nums(0, 1, 2)...)
}

// FuzzShardRecovery feeds arbitrary bytes in as a crashed sweep's
// shard file and runs the recovery assessment plus the truncate-only
// heal path (the manifest claims nothing, so nothing is ever
// quarantined and no cell is emulated). The contract: no panic;
// recovery with an empty claim only ever truncates — the recovered
// file is a byte prefix of the crash image, so a record can never be
// invented; and every record the replay yields sits in its documented
// slot or the resume fails with an error.
func FuzzShardRecovery(f *testing.F) {
	fg := fuzzRecoveryGrid()
	valid, _, err := RunCell(context.Background(), fg, 0, cellSeed(fg, 7, 0))
	if err != nil {
		f.Fatal(err)
	}
	line := recordLines([]Record{valid})
	f.Add([]byte(line))                                        // one complete framed record
	f.Add([]byte(line + line[:len(line)/2]))                   // torn mid-record
	f.Add([]byte(`{"cell":0,"seed":1}` + "\n" + `{"cell":5}`)) // unframed v1-style lines
	f.Add([]byte("00000000 {}\n"))                             // framed shape, wrong crc
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("garbage with no newline"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzRecoveryGrid()
		dir := t.TempDir()
		m := &manifest{
			Version: manifestVersion,
			Name:    g.Name, Fingerprint: g.Fingerprint(), Cells: g.Cells(),
			Shards: 1, BaseSeed: 7, Completed: 0, PerShard: []int{0},
			ShardSums: []string{emptySum},
		}
		if err := writeManifest(durable.At(dir), m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardPath(dir, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := openStore(g, Options{Dir: dir, BaseSeed: 7, Resume: true}, 1, g.FullRange())
		if err != nil {
			return // recovery refused the image: fine, as long as no panic
		}
		defer st.closeFiles()
		if len(st.plan.quarantine) > 0 {
			t.Fatalf("zero-claim recovery quarantined cells %v", st.plan.quarantine)
		}
		if err := st.heal(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		recovered, err := os.ReadFile(shardPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, recovered) {
			t.Fatalf("recovery rewrote bytes instead of truncating:\n%q\nfrom\n%q", recovered, data)
		}
		replayed := 0
		if err := st.replay(func(r Record) {
			if r.Cell != replayed {
				t.Fatalf("replay yielded cell %d in slot %d", r.Cell, replayed)
			}
			replayed++
		}); err != nil {
			return // corrupt record within the frontier: error, not invention
		}
		if replayed != st.completed {
			t.Fatalf("replayed %d records for frontier %d", replayed, st.completed)
		}
	})
}

// FuzzShardVerify drives arbitrary shard images through the v2
// framing reader with a full claim (every slot of the 12-cell
// single-shard grid). The contract: never panics; every accepted
// record round-trips byte-exactly through unframe + canonical
// re-marshal; and corruption is always localized — the quarantined
// slots and the kept valid slots exactly partition the claim, so one
// damaged line can never poison its neighbours.
func FuzzShardVerify(f *testing.F) {
	g := fuzzRecoveryGrid()
	// A pristine reference image, built once from real records.
	var recs []Record
	for i := 0; i < g.Cells(); i++ {
		r, _, err := RunCell(context.Background(), g, i, cellSeed(g, 7, i))
		if err != nil {
			f.Fatal(err)
		}
		recs = append(recs, r)
	}
	pristine := []byte(recordLines(recs))
	flipped := bytes.Clone(pristine)
	flipped[len(flipped)/2] ^= 0x20
	noNewline := bytes.Replace(pristine, []byte("\n"), []byte(" "), 1)
	f.Add(pristine)
	f.Add(flipped)
	f.Add(pristine[:2*len(pristine)/3]) // truncated mid-claim
	f.Add(noNewline)                    // two records merged into one line
	f.Add(append(bytes.Clone(pristine), pristine...))
	f.Add([]byte{})
	f.Add([]byte("not a framed line\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := scanSpec{g: g, baseSeed: 7, rng: g.FullRange(), shards: 1}
		claimed := g.Cells()
		sc := scanShard(spec, 0, data, claimed, durable.SHA256Hex(pristine))

		// Localization: quarantined and valid slots partition the claim.
		if len(sc.slots) < claimed {
			t.Fatalf("full-claim scan covered %d of %d slots", len(sc.slots), claimed)
		}
		qset := map[int]bool{}
		for _, j := range sc.quarantine {
			if j < 0 || j >= claimed || qset[j] {
				t.Fatalf("quarantine slot %d out of claim or duplicated: %v", j, sc.quarantine)
			}
			qset[j] = true
		}
		for j := 0; j < claimed; j++ {
			span := sc.slots[j]
			if (span == frameSpan{}) != qset[j] {
				t.Fatalf("slot %d: span %+v vs quarantined=%v", j, span, qset[j])
			}
			if span == (frameSpan{}) {
				continue
			}
			// Round-trip: an accepted line re-frames to exactly its
			// own bytes, so a repair splice is byte-identical.
			if span.off < 0 || span.end > int64(len(data)) || span.end <= span.off {
				t.Fatalf("slot %d: span %+v outside %d-byte image", j, span, len(data))
			}
			line := data[span.off : span.end-1]
			payload, err := durable.Unframe(line)
			if err != nil {
				t.Fatalf("slot %d: kept line fails its own frame: %v", j, err)
			}
			var r Record
			if err := json.Unmarshal(payload, &r); err != nil {
				t.Fatalf("slot %d: kept line fails to decode: %v", j, err)
			}
			round, err := frameRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(round, data[span.off:span.end]) {
				t.Fatalf("slot %d: accepted record does not round-trip:\n%q\nvs\n%q", j, round, data[span.off:span.end])
			}
			if r.Cell != j {
				t.Fatalf("slot %d holds cell %d", j, r.Cell)
			}
		}

		// The pristine image must verify clean end to end.
		if bytes.Equal(data, pristine) && (sc.dirty || len(sc.quarantine) > 0) {
			t.Fatalf("pristine image flagged: dirty=%v quarantine=%v", sc.dirty, sc.quarantine)
		}

		// And the read-only scrub over a directory holding this image
		// must agree with the scan without panicking or mutating.
		dir := t.TempDir()
		m := &manifest{
			Version: manifestVersion,
			Name:    g.Name, Fingerprint: g.Fingerprint(), Cells: g.Cells(),
			Shards: 1, BaseSeed: 7, Completed: claimed, PerShard: []int{claimed},
			ShardSums: []string{durable.SHA256Hex(pristine)},
		}
		if err := writeManifest(durable.At(dir), m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardPath(dir, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Verify(g, dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Quarantine) != len(sc.quarantine) {
			t.Fatalf("Verify quarantined %v, scan %v", rep.Quarantine, sc.quarantine)
		}
		after, err := os.ReadFile(shardPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data) {
			t.Fatal("Verify mutated the shard image")
		}
	})
}
