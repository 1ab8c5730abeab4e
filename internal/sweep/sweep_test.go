package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neutrality/internal/durable"
	"neutrality/internal/emu"
	"neutrality/internal/errkind"
	"neutrality/internal/grid"
	"neutrality/internal/lab"
	"neutrality/internal/stats"
	"neutrality/internal/topo"
	"neutrality/internal/workload"
)

// microGrid is the execution-test grid: 12 topology-A cells at a very
// reduced operating point, a few milliseconds per cell.
func microGrid() *grid.Grid {
	return grid.New("micro", grid.Base{ScaleFactor: 0.05, DurationSec: 10}).
		Add("diff", grid.Str("police")).
		Add("rate", grid.Num(0.2).WithLabel("20%"), grid.Num(0.4).WithLabel("40%")).
		Add("dfrac", grid.Nums(0.3, 0.7)...).
		Add("rep", grid.Nums(0, 1, 2)...)
}

// frameRecord renders r as one framed shard line, as the shard writer
// and a repair splice write it.
func frameRecord(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	return durable.FramePayload(payload), err
}

// recordLines renders records exactly as the shard writer does: one
// CRC-framed line per record.
func recordLines(recs []Record) string {
	var sb strings.Builder
	for _, r := range recs {
		line, _ := frameRecord(r)
		sb.Write(line)
	}
	return sb.String()
}

// TestRunDeterministicAcrossWorkers: records and the aggregate summary
// are byte-identical for every worker count, and records arrive sorted
// by their documented key (cell index) even with a wide pool.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	g := microGrid()
	run := func(workers int) ([]Record, string) {
		var recs []Record
		res, err := Run(context.Background(), g, Options{
			Workers: workers, BaseSeed: 7,
			OnRecord: func(r Record) { recs = append(recs, r) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs, res.Agg.Summary()
	}
	refRecs, refSum := run(1)
	if len(refRecs) != g.Cells() {
		t.Fatalf("emitted %d records for %d cells", len(refRecs), g.Cells())
	}
	for i, r := range refRecs {
		if r.Cell != i {
			t.Fatalf("record %d carries cell %d: not sorted by cell", i, r.Cell)
		}
		if r.Events == 0 {
			t.Fatalf("cell %d did no emulation work", i)
		}
	}
	for _, workers := range []int{4, 0} {
		recs, sum := run(workers)
		if recordLines(recs) != recordLines(refRecs) {
			t.Fatalf("workers=%d records diverged from workers=1", workers)
		}
		if sum != refSum {
			t.Fatalf("workers=%d summary diverged:\n%s\nvs\n%s", workers, sum, refSum)
		}
	}
	if !strings.Contains(refSum, "by rate:") || !strings.Contains(refSum, "20%") {
		t.Fatalf("summary missing rate marginal:\n%s", refSum)
	}
}

// readDir returns every sweep artifact in dir keyed by file name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestPersistedShardsByteIdentical: the shard files and manifest of a
// persisted sweep are byte-identical across worker counts, and the
// shard partition is by cell index mod shards.
func TestPersistedShardsByteIdentical(t *testing.T) {
	g := microGrid()
	runTo := func(dir string, workers int) {
		if _, err := Run(context.Background(), g, Options{
			Workers: workers, Shards: 3, BaseSeed: 7, Dir: dir,
		}); err != nil {
			t.Fatal(err)
		}
	}
	dir1, dir4 := t.TempDir(), t.TempDir()
	runTo(dir1, 1)
	runTo(dir4, 4)
	files1, files4 := readDir(t, dir1), readDir(t, dir4)
	if len(files1) != 4 { // 3 shards + manifest
		t.Fatalf("unexpected artifacts: %v", files1)
	}
	for name, data := range files1 {
		if files4[name] != data {
			t.Fatalf("%s differs between workers=1 and workers=4", name)
		}
	}
	// Shard 1 must hold cells 1, 4, 7, 10, each as a framed line whose
	// CRC verifies.
	var cells []int
	for _, line := range strings.Split(strings.TrimSpace(files1["shard-0001.jsonl"]), "\n") {
		payload, err := durable.Unframe([]byte(line))
		if err != nil {
			t.Fatalf("shard line %q: %v", line, err)
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatal(err)
		}
		cells = append(cells, r.Cell)
	}
	if fmt.Sprint(cells) != "[1 4 7 10]" {
		t.Fatalf("shard 1 holds cells %v", cells)
	}
	var m manifest
	if err := json.Unmarshal([]byte(files1["manifest.json"]), &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != manifestVersion || m.Completed != 12 || m.Fingerprint != g.Fingerprint() || fmt.Sprint(m.PerShard) != "[4 4 4]" {
		t.Fatalf("manifest: %+v", m)
	}
	// The recorded shard sums must match the files on disk.
	for s := 0; s < 3; s++ {
		if got := durable.SHA256Hex([]byte(files1[fmt.Sprintf("shard-%04d.jsonl", s)])); got != m.ShardSums[s] {
			t.Fatalf("shard %d sum %s, manifest records %s", s, got, m.ShardSums[s])
		}
	}
}

// TestResumeAfterInterrupt: a sweep cancelled mid-run checkpoints its
// completed prefix; resuming completes it, and every artifact ends up
// byte-identical to an uninterrupted run. This is the mid-sweep-kill
// acceptance criterion.
func TestResumeAfterInterrupt(t *testing.T) {
	g := microGrid()
	want := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Workers: 2, Shards: 3, BaseSeed: 7, Dir: want}); err != nil {
		t.Fatal(err)
	}

	// The interrupt is built deterministically. A cancel from OnRecord
	// races the workers (with 12 tiny cells the whole grid can finish
	// before it is observed), so instead a finished sweep is cut back
	// to a 5-cell frontier (see cutClaim) and resumed under an
	// already-cancelled context, which replays the claim and stops.
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Workers: 2, Shards: 3, BaseSeed: 7, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	cutClaim(t, dir, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, g, Options{Workers: 2, Shards: 3, BaseSeed: 7, Dir: dir, Resume: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}

	res, err := Run(context.Background(), g, Options{
		Workers: 2, Shards: 3, BaseSeed: 7, Dir: dir, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 5 {
		t.Fatalf("resumed %d cells, want 5", res.Resumed)
	}
	if res.Agg.Cells() != g.Cells() {
		t.Fatalf("aggregated %d cells", res.Agg.Cells())
	}
	got, ref := readDir(t, dir), readDir(t, want)
	for name, data := range ref {
		if got[name] != data {
			t.Fatalf("%s differs between resumed and uninterrupted sweep", name)
		}
	}

	// Resuming a finished sweep is a no-op that replays everything.
	res, err = Run(context.Background(), g, Options{Workers: 2, Shards: 3, BaseSeed: 7, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != g.Cells() || res.Agg.Cells() != g.Cells() {
		t.Fatalf("no-op resume: resumed=%d aggregated=%d", res.Resumed, res.Agg.Cells())
	}
}

// TestResumeRecoversPartialLine: damage inside the manifest's claim —
// two complete records gone and half a record of garbage in their
// place — is quarantined and re-derived, converging back to the
// byte-identical artifacts rather than merely truncating to the
// damage point.
func TestResumeRecoversPartialLine(t *testing.T) {
	g := microGrid()
	want := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: want}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	// Simulate the damage: drop the last two complete records from
	// shard 0 (cells 8 and 10, both inside the completed claim) and
	// append half an unframed record.
	path := filepath.Join(dir, "shard-0000.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	trunc := strings.Join(lines[:len(lines)-2], "") + `{"cell":8,"seed":42,"ax`
	if err := os.WriteFile(path, []byte(trunc), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired != 2 { // cells 8 and 10 re-derived from their seeds
		t.Fatalf("repaired %d cells, want 2", res.Repaired)
	}
	if res.Resumed != 10 {
		t.Fatalf("resumed %d cells, want 10", res.Resumed)
	}
	got, ref := readDir(t, dir), readDir(t, want)
	for name, data := range ref {
		if got[name] != data {
			t.Fatalf("%s differs after mid-claim repair", name)
		}
	}
}

// TestResumeRemovesLeftoverTemps: temp files a kill left between a
// write and its rename — a manifest, a repair splice — do not outlive
// the next resume of the sweep directory.
func TestResumeRemovesLeftoverTemps(t *testing.T) {
	g := microGrid()
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"manifest.json.tmp", "shard-0001.jsonl.tmp", "manifest.json.5678.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: dir, Resume: true}); err != nil {
		t.Fatal(err)
	}
	temps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) > 0 {
		t.Fatalf("resume left temp files behind: %v", temps)
	}
}

// TestResumeRecoversEmptyShard: a whole shard file emptied out from
// under a completed sweep quarantines every record it claimed; repair
// re-derives all of them and the directory converges back to byte
// identity (the other shard is untouched).
func TestResumeRecoversEmptyShard(t *testing.T) {
	g := microGrid()
	want := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: want}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired != 6 { // shard 0's six even cells re-derived
		t.Fatalf("repaired %d cells, want 6", res.Repaired)
	}
	if res.Resumed != 6 {
		t.Fatalf("resumed %d cells, want 6", res.Resumed)
	}
	got, ref := readDir(t, dir), readDir(t, want)
	for name, data := range ref {
		if got[name] != data {
			t.Fatalf("%s differs after empty-shard repair", name)
		}
	}
}

// TestResumeRecoversDeletedShard: deleting a shard file outright is
// the same damage class as emptying it — every claimed record of the
// shard is re-derived and the file rebuilt.
func TestResumeRecoversDeletedShard(t *testing.T) {
	g := microGrid()
	want := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 3, BaseSeed: 7, Dir: want}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 3, BaseSeed: 7, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "shard-0001.jsonl")); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), g, Options{Shards: 3, BaseSeed: 7, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired != 4 || res.Resumed != 8 {
		t.Fatalf("repaired=%d resumed=%d, want 4/8", res.Repaired, res.Resumed)
	}
	got, ref := readDir(t, dir), readDir(t, want)
	for name, data := range ref {
		if got[name] != data {
			t.Fatalf("%s differs after deleted-shard repair", name)
		}
	}
}

// assertRefused fails unless err is an errkind.Validation naming field.
func assertRefused(t *testing.T, what string, err error, field string) {
	t.Helper()
	if !errors.Is(err, errkind.Validation) || !strings.Contains(err.Error(), field) {
		t.Fatalf("%s: err = %v, want an errkind.Validation naming %q", what, err, field)
	}
}

// TestResumeValidation: resume, Resumable and Replay refuse a
// directory that differs from the request in exactly one field — the
// spec, the sharding or the base seed — naming that field, and resume
// refuses a directory that already holds a sweep when resume was not
// requested.
func TestResumeValidation(t *testing.T) {
	g := microGrid()
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), g, Options{Shards: 2, BaseSeed: 7, Dir: dir}); err == nil ||
		!strings.Contains(err.Error(), "already contains a sweep") {
		t.Fatalf("overwrite err = %v", err)
	}
	g2 := microGrid()
	g2.Base.DurationSec = 11
	for _, c := range []struct {
		field  string
		g      *grid.Grid
		shards int
		seed   int64
	}{
		{"fingerprint", g2, 2, 7},
		{"shards is 2 on disk, 3 expected", g, 3, 7},
		{"base seed is 7 on disk, 8 expected", g, 2, 8},
	} {
		_, err := Run(context.Background(), c.g, Options{Shards: c.shards, BaseSeed: c.seed, Dir: dir, Resume: true})
		assertRefused(t, "resume", err, c.field)
		want := Identity{Shards: c.shards, BaseSeed: c.seed, Range: c.g.FullRange()}
		_, err = Resumable(c.g, dir, want)
		assertRefused(t, "resumable", err, c.field)
		_, err = Replay(c.g, dir, want)
		assertRefused(t, "replay", err, c.field)
	}
}

// TestCellReproducibleInIsolation: any cell re-run alone yields the
// record the full sweep produced — the (baseSeed, cellIndex) seed
// derivation contract.
func TestCellReproducibleInIsolation(t *testing.T) {
	g := microGrid()
	var recs []Record
	if _, err := Run(context.Background(), g, Options{BaseSeed: 7,
		OnRecord: func(r Record) { recs = append(recs, r) }}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5, 11} {
		r, _, err := RunCell(context.Background(), g, i, cellSeed(g, 7, i))
		if err != nil {
			t.Fatal(err)
		}
		if recordLines([]Record{r}) != recordLines([]Record{recs[i]}) {
			t.Fatalf("cell %d re-run diverged", i)
		}
	}
}

// TestRunCellMatchesRun: RunCell under the cell's derived seed returns
// the record Run writes for that cell — one executor for both. Cell 0
// of the demo grid runs on topology A, cell 999 on topology B.
func TestRunCellMatchesRun(t *testing.T) {
	g := DemoGrid()
	for _, k := range []int{1, 1000} {
		var got []Record
		if _, err := Run(context.Background(), g, Options{
			Shards: 1, BaseSeed: 1, Partition: Partition{K: k, N: 1000},
			OnRecord: func(r Record) { got = append(got, r) },
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("partition %d/1000 ran %d cells, want 1", k, len(got))
		}
		i := got[0].Cell
		r, run, err := RunCell(context.Background(), g, i, cellSeed(g, 1, i))
		if err != nil {
			t.Fatal(err)
		}
		if recordLines([]Record{r}) != recordLines(got) {
			t.Fatalf("cell %d: RunCell record\n%s differs from Run's\n%s", i, recordLines([]Record{r}), recordLines(got))
		}
		if run == nil || run.Sim.Processed != r.Events {
			t.Fatalf("cell %d: RunCell's run does not match its record", i)
		}
	}
}

// TestTableTwoGridsRun: every Table 2 set grid is a valid sweep spec,
// the nine cover the paper's 34 experiments, and set 4's third cell
// materializes 30 % policing of c2 with the same flow sizes for both
// classes.
func TestTableTwoGridsRun(t *testing.T) {
	base := grid.Base{ScaleFactor: 0.1, DurationSec: 180}
	total := 0
	for set := 1; set <= 9; set++ {
		g, err := lab.TableTwoGrid(set, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g); err != nil {
			t.Fatalf("set %d: %v", set, err)
		}
		total += g.Cells()
	}
	if total != 34 {
		t.Fatalf("Table 2 grids cover %d cells, want the paper's 34", total)
	}

	g, _ := lab.TableTwoGrid(4, base)
	sc, err := materialize(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var policed []*emu.Differentiation
	for _, l := range sc.exp.Links {
		if l.Diff != nil {
			policed = append(policed, l.Diff)
		}
	}
	if len(policed) != 1 || policed[0].Kind != emu.Police || policed[0].Rate[topo.C2] != 0.3 || len(policed[0].Rate) != 1 {
		t.Fatalf("set 4 cell 2 differentiation: %+v", policed)
	}
	// 40 Mb at 10 % scale: every slot of every path draws the sizes of
	// a 4 Mb Pareto mean.
	want := draws(workload.ParetoSize(4))
	for _, load := range sc.exp.Loads {
		for _, slot := range load.Slots {
			if got := draws(slot.Size); got != want {
				t.Fatalf("path %d flow sizes %v, want %v", load.Path, got, want)
			}
		}
	}
}

// draws returns the first sizes gen yields from a fixed stream.
func draws(gen workload.SizeGen) [8]int {
	var out [8]int
	rng := stats.NewRand(1)
	for i := range out {
		out[i] = gen(rng)
	}
	return out
}

// TestValidateRejects: bad axes fail before anything runs.
func TestValidateRejects(t *testing.T) {
	base := grid.Base{ScaleFactor: 0.05, DurationSec: 5}
	cases := []struct {
		name string
		g    *grid.Grid
		want string
	}{
		{"unknown axis", grid.New("g", base).Add("zap", grid.Num(1)), "unknown axis"},
		{"bad topo", grid.New("g", base).Add("topo", grid.Str("c")), "topo"},
		{"bad diff", grid.New("g", base).Add("diff", grid.Str("throttle")), "diff"},
		{"rate range", grid.New("g", base).Add("rate", grid.Num(1.5)), "(0,1)"},
		{"dfrac range", grid.New("g", base).Add("dfrac", grid.Num(0)), "(0,1)"},
		{"bad normalize", grid.New("g", base).Add("normalize", grid.Str("yes")), "normalize"},
		{"bad cca", grid.New("g", base).Add("c2cca", grid.Str("bbr")), "congestion controller"},
		{"bad flows", grid.New("g", base).Add("flows", grid.Num(2.5)), "integer"},
		{"string rtt", grid.New("g", base).Add("rtt", grid.Str("fast")), "numeric"},
	}
	for _, tc := range cases {
		err := Validate(tc.g)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestMaterializeCellErrors: cross-axis constraints surface with clear
// errors when the offending cell materializes.
func TestMaterializeCellErrors(t *testing.T) {
	base := grid.Base{ScaleFactor: 0.05, DurationSec: 5}
	cases := []struct {
		name string
		g    *grid.Grid
		want string
	}{
		{"police without rate", grid.New("g", base).Add("diff", grid.Str("police")), "needs a rate"},
		{"topo b shaped", grid.New("g", base).Add("topo", grid.Str("b")).Add("diff", grid.Str("shape")).Add("rate", grid.Num(0.3)), "diff=police"},
		{"topo b per-class knob", grid.New("g", base).Add("topo", grid.Str("b")).Add("rate", grid.Num(0.3)).Add("c2mb", grid.Num(10)), "no topology-B counterpart"},
	}
	for _, tc := range cases {
		if err := Validate(tc.g); err != nil {
			t.Fatalf("%s: Validate = %v", tc.name, err)
		}
		_, err := materialize(tc.g, 0, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestMaterializeScenarioShape: spot-check that axis values land on
// the right knobs for both topologies.
func TestMaterializeScenarioShape(t *testing.T) {
	g := grid.New("g", grid.Base{ScaleFactor: 0.1, DurationSec: 20}).
		Add("topo", grid.Strs("a", "b")...).
		Add("diff", grid.Str("police")).
		Add("rate", grid.Num(0.25)).
		Add("dfrac", grid.Num(0.25)).
		Add("lossthr", grid.Num(0.05))
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	sa, err := materialize(g, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sa.exp.Seed != 42 || len(sa.truth) != 1 || sa.opts.LossThreshold != 0.05 {
		t.Fatalf("topology A scenario: %+v", sa)
	}
	if sa.exp.Duration != 20 {
		t.Fatalf("duration %v", sa.exp.Duration)
	}
	sb, err := materialize(g, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.truth) != 3 { // topology B's three policers
		t.Fatalf("topology B truth links: %d", len(sb.truth))
	}
}

// TestDemoGrid: the demonstration grid is valid, has at least the
// 1,000 cells the acceptance criterion demands, and both topologies'
// corner cells materialize.
func TestDemoGrid(t *testing.T) {
	g := DemoGrid()
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	if g.Cells() < 1000 {
		t.Fatalf("demo grid has %d cells, want >= 1000", g.Cells())
	}
	for _, i := range []int{0, g.Cells() - 1} {
		if _, err := materialize(g, i, 1); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
}

// TestDemoGridFull optionally runs the whole 1,000-cell demonstration
// grid (SWEEP_DEMO_FULL=1); by default it runs a 3-shard slice of the
// topology-A half to keep the suite fast while still driving the
// executor through a three-digit cell count.
func TestDemoGridFull(t *testing.T) {
	g := DemoGrid()
	if os.Getenv("SWEEP_DEMO_FULL") == "" {
		g.Axes[0].Values = g.Axes[0].Values[:1] // topology A only
		g.Axes[4].Values = g.Axes[4].Values[:1] // one replica
		g.Base.ScaleFactor, g.Base.DurationSec = 0.05, 5
		if g.Cells() != 100 {
			t.Fatalf("sliced demo grid has %d cells", g.Cells())
		}
	}
	dir := t.TempDir()
	res, err := Run(context.Background(), g, Options{Shards: 3, BaseSeed: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Cells() != g.Cells() {
		t.Fatalf("aggregated %d of %d cells", res.Agg.Cells(), g.Cells())
	}
	sum := res.Agg.Summary()
	for _, want := range []string{"by rate:", "by dfrac:", "non-neutral verdicts"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestReplayMatchesRun: Replay of a partition directory rebuilds the
// aggregate its run produced, Summary byte for byte, reads the
// directory without changing it, and refuses a torn shard
// (errkind.Corrupt) and a directory recorded for another spec
// (errkind.Validation).
func TestReplayMatchesRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p2")
	res, err := Run(context.Background(), microGrid(), Options{
		Workers: 2, Shards: 2, BaseSeed: 7, Partition: Partition{K: 2, N: 2}, Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := readDir(t, dir)
	id := Identity{Shards: 2, BaseSeed: 7, Range: res.Range}
	agg, err := Replay(microGrid(), dir, id)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Cells() != res.Range.Len() || agg.Summary() != res.Agg.Summary() {
		t.Fatalf("replayed %d cells:\n%s\nrun folded %d:\n%s", agg.Cells(), agg.Summary(), res.Range.Len(), res.Agg.Summary())
	}
	if !maps.Equal(readDir(t, dir), before) {
		t.Fatal("Replay changed the directory")
	}

	other := microGrid().Add("extra", grid.Num(1))
	if _, err := Replay(other, dir, id); !errors.Is(err, errkind.Validation) {
		t.Fatalf("replay under another spec: %v", err)
	}
	shard := filepath.Join(dir, shardFile(1))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(microGrid(), dir, id); !errors.Is(err, errkind.Corrupt) {
		t.Fatalf("replay of a torn shard: %v", err)
	}
}
