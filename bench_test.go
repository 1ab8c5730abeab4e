package neutrality_test

// One benchmark per table and figure of the paper's evaluation (Section 6),
// plus the ablations and baselines called out in DESIGN.md. Each bench runs
// the corresponding experiment at the bench-friendly scale (10 Mbps, 30 Mbps
// for topology B, 180 s — same load shape as the paper's 100 Mbps, 10 min)
// and prints the same rows/series the paper reports. The full-scale
// versions are produced by `go run ./cmd/experiments -full`.
//
// Reported metrics:
//   - agreement_pct: fraction of experiments whose verdict matches the
//     paper's label (Figure 8 sets).
//   - fn_pct / fp_pct / granularity: the Section 6.4 quality metrics.
//   - events_per_sec: emulation events processed (Sim.Processed) per
//     wall-clock second (Figure 8 sets) — the event-engine throughput.
//
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"neutrality"
	"neutrality/internal/figures"
	"neutrality/internal/fleet"
	"neutrality/internal/measure"
	"neutrality/internal/serve"
	"neutrality/internal/sweep"
)

// printOnce deduplicates figure output across -benchtime iterations.
// sync.Map keeps the dedup safe now that the figure sweeps fan their
// experiments across the internal/runner worker pool: the pool runs
// inside each figures call and returns before printing, so `once` is
// only ever called from the bench goroutine, and the map also tolerates
// concurrent benchmarks (CI runs this file under -race).
var printOnce sync.Map

func once(key string, f func() string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(f())
	}
}

func benchFig8(b *testing.B, set int) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		rs, err := figures.Fig8(figures.Exec{}, figures.Quick, 1, set)
		if err != nil {
			b.Fatal(err)
		}
		r := rs[0]
		events += r.Events
		b.ReportMetric(float64(r.Agreement)/float64(len(r.Rows))*100, "agreement_pct")
		once(fmt.Sprintf("fig8-%d", set), r.String)
		// Sets 1–3 are neutral: any disagreement is a false positive and
		// fails the bench. Sets 4–8 must agree everywhere; set 9's R=0.5
		// corner is the documented divergence, so it may disagree on at
		// most that one experiment.
		//
		// Set 8's 4/4 holds at Algorithm 2 seed 1 (measure.DefaultOptions),
		// the seed every output here is byte-identical at. It is one
		// lucky realization: with the same sampler, 14 of 16 alternative
		// seeds (1–16) gave 3/4, missing the 200 ms row, whose noise-free
		// expected unsolvability (0.093) sits below cluster.DefaultMinGap
		// (0.1). Any change to Algorithm 2's draws — a different sampler
		// or seed derivation — will likely fail this target without
		// making inference worse; re-evaluate set 8 across seeds then
		// rather than tuning until it passes.
		minAgreement := len(r.Rows)
		if set == 9 {
			minAgreement = len(r.Rows) - 1
		}
		if r.Agreement < minAgreement {
			b.Fatalf("set %d agreement %d/%d below target:\n%s", set, r.Agreement, len(r.Rows), r)
		}
	}
	// Emulation throughput: total discrete events processed (Sim.Processed
	// summed over the set's experiments) per wall-clock second of bench
	// time — the engine-level speed the allocation work targets.
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)/sec, "events_per_sec")
	}
}

// BenchmarkTable1Defaults prints the Table 1 parameter grid (the defaults
// every other experiment inherits). The one-time print runs before the
// timer starts, so the timed loop, whose B/op CI gates, measures
// figures.Table1 alone.
func BenchmarkTable1Defaults(b *testing.B) {
	once("table1", figures.Table1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(figures.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3Workload prints the topology-B traffic mix.
func BenchmarkTable3Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := figures.Table3()
		if len(s) == 0 {
			b.Fatal("empty table")
		}
		once("table3", func() string { return s })
	}
}

// Figure 8: one bench per experiment set (Table 2 sets 1–9).

func BenchmarkFig8Set1(b *testing.B) { benchFig8(b, 1) }
func BenchmarkFig8Set2(b *testing.B) { benchFig8(b, 2) }
func BenchmarkFig8Set3(b *testing.B) { benchFig8(b, 3) }
func BenchmarkFig8Set4(b *testing.B) { benchFig8(b, 4) }
func BenchmarkFig8Set5(b *testing.B) { benchFig8(b, 5) }
func BenchmarkFig8Set6(b *testing.B) { benchFig8(b, 6) }
func BenchmarkFig8Set7(b *testing.B) { benchFig8(b, 7) }
func BenchmarkFig8Set8(b *testing.B) { benchFig8(b, 8) }
func BenchmarkFig8Set9(b *testing.B) { benchFig8(b, 9) }

// BenchmarkFig10 regenerates both halves of Figure 10 (topology B:
// ground-truth link boxplots and inferred sequence boxplots) and asserts
// the Section 6.4 headline: zero false positives, zero false negatives.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig10(figures.Exec{}, figures.QuickB, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("fig10", r.String)
		b.ReportMetric(r.Metrics.FalseNegativeRate*100, "fn_pct")
		b.ReportMetric(r.Metrics.FalsePositiveRate*100, "fp_pct")
		b.ReportMetric(r.Metrics.Granularity, "granularity")
		b.ReportMetric(float64(r.Sequences), "sequences")
		if r.Metrics.FalseNegativeRate != 0 || r.Metrics.FalsePositiveRate != 0 {
			b.Fatalf("quality off target:\n%s", r)
		}
	}
}

// BenchmarkFig11 regenerates the queue-occupancy traces of a busy neutral
// link vs a policing link and asserts the paper's point: both queues are
// active — congestion alone does not reveal differentiation.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig11(figures.Exec{}, figures.QuickB, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("fig11", r.String)
		if r.NeutralSummary.Max == 0 || r.PolicerSummary.Max == 0 {
			b.Fatalf("expected both queues to be occupied:\n%s", r)
		}
	}
}

// Section 6.5 robustness sweeps.

func BenchmarkLossThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.LossThresholdSweep(figures.Exec{}, figures.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("sweep-loss", r.String)
		if !r.Stable {
			b.Fatalf("verdict unstable across loss thresholds:\n%s", r)
		}
	}
}

func BenchmarkIntervalSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.IntervalSweep(figures.Exec{}, figures.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("sweep-interval", r.String)
		if !r.Stable {
			b.Fatalf("verdict unstable across intervals:\n%s", r)
		}
	}
}

// Ablations (design choices from DESIGN.md).

func BenchmarkAblationNormalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.AblationNormalization(figures.Exec{}, figures.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("ablation-norm", r.String)
		if !r.Pass {
			b.Fatalf("normalization ablation failed:\n%s", r)
		}
	}
}

func BenchmarkAblationClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.AblationClustering(figures.Exec{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("ablation-cluster", r.String)
		if !r.Pass {
			b.Fatalf("clustering ablation failed:\n%s", r)
		}
	}
}

func BenchmarkAblationPairObservations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := figures.AblationPairObservations()
		once("ablation-pairs", r.String)
		if !r.Pass {
			b.Fatalf("pair-observation ablation failed:\n%s", r)
		}
	}
}

func BenchmarkAblationDelayMetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.AblationDelayMetric(figures.Exec{}, figures.Quick, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("ablation-delay", r.String)
		if !r.Pass {
			b.Fatalf("delay-metric extension failed:\n%s", r)
		}
	}
}

// Baselines.

func BenchmarkBaselineBooleanTomography(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.BaselineComparison(1)
		if err != nil {
			b.Fatal(err)
		}
		once("baseline", r.String)
		if !r.Pass {
			b.Fatalf("baseline comparison failed:\n%s", r)
		}
	}
}

// Sweep orchestration engine.

// BenchmarkSweepGrid drives a small in-memory grid (the rate × dfrac
// plane on the policed dumbbell) through the full sweep engine —
// lazy cell expansion, the streaming executor, online aggregation —
// and reports sweep_cells_per_sec, the engine-level throughput the
// benchjson baseline gates alongside events_per_sec.
func BenchmarkSweepGrid(b *testing.B) {
	g := neutrality.NewGrid("bench-sweep", neutrality.GridBase{
		ScaleFactor: 0.05,
		DurationSec: 10,
	})
	g.Add("diff", neutrality.GridStr("police"))
	g.Add("rate", neutrality.GridNum(0.2), neutrality.GridNum(0.3), neutrality.GridNum(0.4))
	g.Add("dfrac", neutrality.GridNum(0.3), neutrality.GridNum(0.5), neutrality.GridNum(0.7))
	b.ReportAllocs()
	cells := 0
	for i := 0; i < b.N; i++ {
		res, err := neutrality.RunSweep(context.Background(), g, neutrality.SweepOptions{BaseSeed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Agg.Cells() != g.Cells() {
			b.Fatalf("aggregated %d of %d cells", res.Agg.Cells(), g.Cells())
		}
		cells += res.Total
		once("sweep-grid", res.Agg.Summary)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cells)/sec, "sweep_cells_per_sec")
	}
}

// BenchmarkDemoCells is the event engine's stage bench at the scale the
// sweep benchmark workload runs: eight fixed cells of the 1,000-cell
// demo grid (partition 63 of 125 at four shards, cells 496–503: four on
// the dumbbell topology A and four on the backbone topology B, 5% scale,
// 30 emulated seconds each) through sweep.Run on one worker, in memory.
// events_per_sec is the emulated events of those cells per wall-clock
// second — nearly all of it lab.RunCtx → emu.Sim.RunCtx.
func BenchmarkDemoCells(b *testing.B) {
	g := sweep.DemoGrid()
	opt := sweep.Options{Workers: 1, Shards: 4, BaseSeed: 1, Partition: sweep.Partition{K: 63, N: 125}}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		opt.OnRecord = func(r sweep.Record) { events += r.Events }
		res, err := sweep.Run(context.Background(), g, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Total != 8 {
			b.Fatalf("ran %d cells, want 8", res.Total)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)/sec, "events_per_sec")
	}
}

// BenchmarkSweepMerge measures the distributed-sweep merge path:
// partition directories are built once (outside the timer), then each
// iteration verifies, concatenates, and replays them into a fresh
// merged directory. sweep_merge_cells_per_sec is the merge-side
// throughput the benchjson baseline gates — it bounds how fast a
// fleet's results can be reassembled, so it must not silently regress.
func BenchmarkSweepMerge(b *testing.B) {
	g := neutrality.NewGrid("bench-merge", neutrality.GridBase{
		ScaleFactor: 0.05,
		DurationSec: 10,
	})
	g.Add("diff", neutrality.GridStr("police"))
	g.Add("rate", neutrality.GridNum(0.2), neutrality.GridNum(0.3), neutrality.GridNum(0.4))
	g.Add("dfrac", neutrality.GridNum(0.3), neutrality.GridNum(0.5), neutrality.GridNum(0.7))
	g.Add("rep", neutrality.GridNum(0), neutrality.GridNum(1))
	const parts, shards = 3, 2
	base := b.TempDir()
	dirs := make([]string, parts)
	for k := 1; k <= parts; k++ {
		dirs[k-1] = filepath.Join(base, fmt.Sprintf("part-%d", k))
		if _, err := neutrality.RunSweep(context.Background(), g, neutrality.SweepOptions{
			Shards: shards, BaseSeed: 1, Dir: dirs[k-1],
			Partition: neutrality.SweepPartition{K: k, N: parts},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	cells := 0
	for i := 0; i < b.N; i++ {
		out := filepath.Join(base, fmt.Sprintf("merged-%d", i))
		res, err := neutrality.MergeSweep(g, dirs, out)
		if err != nil {
			b.Fatal(err)
		}
		if res.Agg.Cells() != g.Cells() {
			b.Fatalf("merged %d of %d cells", res.Agg.Cells(), g.Cells())
		}
		cells += res.Total
		once("sweep-merge", res.Agg.Summary)
		b.StopTimer()
		if err := os.RemoveAll(out); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cells)/sec, "sweep_merge_cells_per_sec")
	}
}

// BenchmarkFleetLocal runs the whole fault-tolerant fleet path in one
// process — orchestrator, leased assignment over the local transport,
// N in-process workers executing resumable sweep partitions, and the
// byte-identical merge commit — on the demonstration grid.
// fleet_cells_per_sec is the end-to-end fleet throughput the benchjson
// baseline gates: it bounds how much the robustness layer (leases,
// heartbeats, checkpoint directories, uploads, the staged-copy scrub)
// costs over the raw sweep engine.
func BenchmarkFleetLocal(b *testing.B) {
	g := sweep.DemoGrid()
	const workers = 4
	sweepWorkers := (runtime.NumCPU() + workers - 1) / workers
	b.ReportAllocs()
	cells := 0
	for i := 0; i < b.N; i++ {
		root := b.TempDir()
		res, err := fleet.RunLocal(context.Background(), g, fleet.LocalOptions{
			Parts: 2 * workers, Workers: workers, SweepWorkers: sweepWorkers,
			Shards: 4, BaseSeed: 1,
			Dir: filepath.Join(root, "work"), Out: filepath.Join(root, "merged"),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Agg.Cells() != g.Cells() {
			b.Fatalf("fleet result: %d cells, grid has %d", res.Agg.Cells(), g.Cells())
		}
		cells += res.Cells
		once("fleet-local", func() string { return res.Summary })
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cells)/sec, "fleet_cells_per_sec")
	}
}

// plantedFigure4Table samples `intervals` intervals of Figure 4 with an
// l1 violation (c2 congests 70% of the time, c1 5%, every other link 2%)
// and turns them into packet counts — the service benches' input.
func plantedFigure4Table(intervals int) (*neutrality.Network, *neutrality.Measurements) {
	n := neutrality.Figure4()
	perf := neutrality.NewPerf(n.NumLinks(), n.NumClasses())
	for l := 0; l < n.NumLinks(); l++ {
		perf.SetNeutral(neutrality.LinkID(l), 0.02)
	}
	l1, _ := n.LinkByName("l1")
	perf.Set(l1.ID, neutrality.C1, 0.05)
	perf.Set(l1.ID, neutrality.C2, 0.7)
	states := neutrality.NewSampler(n, perf, 11).SampleIntervals(intervals)
	return n, neutrality.SyntheticMeasurements(states, neutrality.DefaultSyntheticOptions())
}

// BenchmarkServeIngest measures the streaming inference service's
// ingest path end to end: per-record validation, sequence dedup,
// journal append + flush (durable ack), the online fold into the
// measurement table, and one epoch close — loss-stat folding plus a
// full inference re-run — per iteration. ingest_records_per_sec is
// the sustained record throughput the benchjson baseline gates: it
// bounds what the streaming layer costs over the batch pipeline, so
// `neutrality serve` keeps absorbing real measurement streams.
func BenchmarkServeIngest(b *testing.B) {
	const intervals = 1024
	n, meas := plantedFigure4Table(intervals)
	recs := make([]measure.StreamRecord, 0, intervals*n.NumPaths())
	seq := int64(0)
	for t := 0; t < intervals; t++ {
		for p := 0; p < n.NumPaths(); p++ {
			seq++
			recs = append(recs, measure.StreamRecord{
				Source: "bench", Seq: seq, Interval: t, Path: p,
				Sent: meas.Sent[t][p], Lost: meas.Lost[t][p],
			})
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, err := serve.New(serve.Config{
			Net: n, EpochRecords: len(recs), Dir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		// One batch per 256 records: the chunked shape a real sender
		// produces, with a durable journal flush per ack.
		for lo := 0; lo < len(recs); lo += 256 {
			hi := lo + 256
			if hi > len(recs) {
				hi = len(recs)
			}
			res, err := svc.Ingest(recs[lo:hi])
			if err != nil {
				b.Fatal(err)
			}
			records += res.Accepted
		}
		b.StopTimer()
		var ev serve.EpochVerdict
		if err := json.Unmarshal(svc.VerdictJSON(), &ev); err != nil {
			b.Fatal(err)
		}
		if ev.Epoch != 1 || !ev.NonNeutral {
			b.Fatalf("bench stream verdict off target: %+v", ev)
		}
		if err := svc.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(records)/sec, "ingest_records_per_sec")
	}
}

// normalizeSink keeps BenchmarkNormalize's result live.
var normalizeSink *measure.Processor

// BenchmarkNormalize measures Algorithm 2 alone: measure.NewProcessor
// (per-interval hypergeometric discounting to the minimum per-path
// count, then the congestion-free bitsets) over all four Figure 4
// paths of a fixed table of T intervals. intervals_per_sec is its
// throughput; an epoch close pays this per re-derived row and slice.
func BenchmarkNormalize(b *testing.B) {
	for _, T := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			n, meas := plantedFigure4Table(T)
			paths := make([]neutrality.PathID, n.NumPaths())
			for i := range paths {
				paths[i] = neutrality.PathID(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				normalizeSink = measure.NewProcessor(meas, paths, measure.DefaultOptions())
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(T)*float64(b.N)/sec, "intervals_per_sec")
			}
		})
	}
}

// BenchmarkEpochClose measures one in-memory leaf epoch close — the
// loss-stat fold, incremental Algorithm 2 over the rows the epoch
// changed, and Algorithm 1, all under the service lock — after 1, 100 and 1000
// earlier epochs of 256 new intervals each (1,024 records, one per
// interval and path). Only the close is timed. Close cost is
// O(rows changed + pathsets × intervals/64), so depth=1000 (256k
// intervals) stays within 2× of depth=1; benchjson gates that ratio on
// ns/op.
func BenchmarkEpochClose(b *testing.B) {
	const span = 256
	n, block := plantedFigure4Table(span)
	paths := n.NumPaths()
	epochRecs := func(e int) []measure.StreamRecord {
		recs := make([]measure.StreamRecord, 0, span*paths)
		for t := 0; t < span; t++ {
			for p := 0; p < paths; p++ {
				recs = append(recs, measure.StreamRecord{
					Source: fmt.Sprintf("vp-%d", p), Seq: int64(e*span + t + 1), Interval: e*span + t, Path: p,
					Sent: block.Sent[t][p], Lost: block.Lost[t][p],
				})
			}
		}
		return recs
	}
	for _, depth := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			svc, err := serve.New(serve.Config{Net: n, EpochRecords: 0})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			ingest := func(e int) {
				if _, err := svc.Ingest(epochRecs(e)); err != nil {
					b.Fatal(err)
				}
			}
			for e := 0; e < depth; e++ {
				ingest(e)
				if _, err := svc.CloseEpoch(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ingest(depth + i)
				b.StartTimer()
				if _, err := svc.CloseEpoch(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var ev serve.EpochVerdict
			if err := json.Unmarshal(svc.VerdictJSON(), &ev); err != nil {
				b.Fatal(err)
			}
			if ev.Epoch != depth+b.N || !ev.NonNeutral {
				b.Fatalf("epoch-close bench verdict off target: %+v", ev)
			}
		})
	}
}

// BenchmarkRootDeliver is the root's ack path: per op, every epoch
// report two leaves closed over a 40-epoch stream is delivered, in
// epoch order, to a fresh root. The memory root folds and publishes
// each tree epoch; the durable root also flushes a report line and a
// claim line covering it before every ack. Root set-up and Close sit
// outside the timer.
func BenchmarkRootDeliver(b *testing.B) {
	const leaves, epochs, span = 2, 40, 16
	n, meas := plantedFigure4Table(epochs * span)
	svcs := make([]*serve.Service, leaves)
	for i := range svcs {
		svc, err := serve.New(serve.Config{Net: n, EpochRecords: 0, Leaf: fmt.Sprintf("leaf-%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		svcs[i] = svc
	}
	// Leaf i owns the sources of paths i, i+leaves, …: disjoint source
	// sets, as the tree requires.
	for e := 0; e < epochs; e++ {
		for i, svc := range svcs {
			var recs []measure.StreamRecord
			for t := e * span; t < (e+1)*span; t++ {
				for p := i; p < n.NumPaths(); p += leaves {
					recs = append(recs, measure.StreamRecord{
						Source: fmt.Sprintf("vp-%d", p), Seq: int64(t + 1), Interval: t, Path: p,
						Sent: meas.Sent[t][p], Lost: meas.Lost[t][p],
					})
				}
			}
			if _, err := svc.Ingest(recs); err != nil {
				b.Fatal(err)
			}
			if _, err := svc.CloseEpoch(); err != nil {
				b.Fatal(err)
			}
		}
	}
	var reports []serve.EpochReport
	for e := 0; e < epochs; e++ {
		for _, svc := range svcs {
			reports = append(reports, svc.Reports()[e])
		}
	}
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		b.Run(name, func(b *testing.B) {
			dirs := b.TempDir()
			var verdict []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := serve.RootConfig{Net: n, NetName: "figure4", Leaves: leaves}
				if durable {
					cfg.Dir = filepath.Join(dirs, fmt.Sprint(i))
				}
				root, err := serve.NewRoot(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, rep := range reports {
					if _, err := root.Deliver(rep); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if err := root.Close(); err != nil {
					b.Fatal(err)
				}
				if st := root.Status(); st.Epochs != epochs {
					b.Fatalf("root folded %d epochs, want %d", st.Epochs, epochs)
				}
				verdict = root.VerdictJSON()
				if durable {
					os.RemoveAll(cfg.Dir)
				}
				b.StartTimer()
			}
			b.StopTimer()
			var ev serve.EpochVerdict
			if err := json.Unmarshal(verdict, &ev); err != nil {
				b.Fatal(err)
			}
			if !ev.NonNeutral {
				b.Fatalf("root-deliver bench verdict off target: %+v", ev)
			}
		})
	}
}

// BenchmarkServeIngestSharded is the concurrent multi-source variant:
// eight vantage points stream their own sequence spaces from separate
// goroutines into a journal partitioned eight ways by source hash.
// It measures the ingest path under sender concurrency — lock
// contention, per-shard journal appends, and the out-of-lock epoch
// inference — and its ingest_records_per_sec gate keeps the sharded
// path from regressing below the single-sender one.
func BenchmarkServeIngestSharded(b *testing.B) {
	const intervals = 1024
	const senders = 8
	n, meas := plantedFigure4Table(intervals)
	// Deal the flattened table round-robin across the senders, each
	// with its own source name and contiguous sequence space.
	streams := make([][]measure.StreamRecord, senders)
	seqs := make([]int64, senders)
	total := 0
	for t := 0; t < intervals; t++ {
		for p := 0; p < n.NumPaths(); p++ {
			i := total % senders
			seqs[i]++
			streams[i] = append(streams[i], measure.StreamRecord{
				Source: fmt.Sprintf("bench-%d", i), Seq: seqs[i], Interval: t, Path: p,
				Sent: meas.Sent[t][p], Lost: meas.Lost[t][p],
			})
			total++
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, err := serve.New(serve.Config{
			Net: n, EpochRecords: total, Dir: b.TempDir(),
			JournalShards: senders,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for _, stream := range streams {
			wg.Add(1)
			go func(stream []measure.StreamRecord) {
				defer wg.Done()
				for lo := 0; lo < len(stream); lo += 256 {
					hi := lo + 256
					if hi > len(stream) {
						hi = len(stream)
					}
					if _, err := svc.Ingest(stream[lo:hi]); err != nil {
						b.Error(err)
						return
					}
				}
			}(stream)
		}
		wg.Wait()
		records += total
		b.StopTimer()
		var ev serve.EpochVerdict
		if err := json.Unmarshal(svc.VerdictJSON(), &ev); err != nil {
			b.Fatal(err)
		}
		if ev.Epoch != 1 || !ev.NonNeutral {
			b.Fatalf("sharded bench stream verdict off target: %+v", ev)
		}
		if err := svc.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(records)/sec, "ingest_records_per_sec")
	}
}

// stageBatches deals a planted Figure 4 table (4,096 intervals) into
// 64 batches of 256 records from 16 sources, each source's sequence
// increasing across the batches in order: what one service absorbs
// before the ingest stage benches swap in a fresh one, so the open
// epoch's buffer stays bounded however long the bench runs.
func stageBatches() (*neutrality.Network, [][]measure.StreamRecord) {
	const batch, sources = 256, 16
	n, meas := plantedFigure4Table(4096)
	var all []measure.StreamRecord
	seqs := make([]int64, sources)
	for t := range meas.Sent {
		for p := range meas.Sent[t] {
			s := len(all) % sources
			seqs[s]++
			all = append(all, measure.StreamRecord{
				Source: fmt.Sprintf("vp-%02d", s), Seq: seqs[s], Interval: t, Path: p,
				Sent: meas.Sent[t][p], Lost: meas.Lost[t][p],
			})
		}
	}
	var out [][]measure.StreamRecord
	for lo := 0; lo < len(all); lo += batch {
		out = append(out, all[lo:lo+batch])
	}
	return n, out
}

// BenchmarkIngestDecode is the HTTP stage of the ingest path: one
// 256-line body of canonical JSON records per op through the ingest
// handler — body scan, line decode, then validation, dedup and the
// fold into an in-memory service that never closes an epoch
// (EpochRecords 0), so neither the journal nor inference is in the
// number. Every record is new to the service, as in live ingest. The
// allocs_op gate catches a decode that falls back to reflection.
func BenchmarkIngestDecode(b *testing.B) {
	n, batches := stageBatches()
	bodies := make([][]byte, len(batches))
	for i, batch := range batches {
		for j := range batch {
			bodies[i] = measure.AppendStreamRecordJSON(bodies[i], &batch[j])
			bodies[i] = append(bodies[i], '\n')
		}
	}
	var svc *serve.Service
	var srv *serve.Server
	b.ReportAllocs()
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i++ {
		k := i % len(bodies)
		if k == 0 {
			b.StopTimer()
			var err error
			if svc, err = serve.New(serve.Config{Net: n, EpochRecords: 0}); err != nil {
				b.Fatal(err)
			}
			srv = serve.NewServer(svc)
			b.StartTimer()
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(bodies[k])))
		if w.Code != http.StatusOK {
			b.Fatalf("ingest: %d %s", w.Code, w.Body)
		}
		records += len(batches[k])
		if st := svc.Status(); k == len(bodies)-1 && st.Records != int64(len(bodies)*len(batches[0])) {
			b.Fatalf("service holds %d records after a full pass", st.Records)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(records)/sec, "records_per_sec")
	}
}

// BenchmarkJournalAppend is the journal stage: one 256-record batch
// per op into a durable service with 4 journal shards and no epoch
// closes — per record the encode, frame and buffered write into its
// shard, per batch the flush that precedes the ack and the one framed
// claim line that claims it. The in-memory fold rides along
// (BenchmarkIngestDecode measures it without a journal). The allocs_op
// gate catches an encoder that falls back to reflection.
func BenchmarkJournalAppend(b *testing.B) {
	n, batches := stageBatches()
	root := b.TempDir()
	var svc *serve.Service
	var dir string
	retire := func() {
		if svc == nil {
			return
		}
		if err := svc.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
	b.ReportAllocs()
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i++ {
		k := i % len(batches)
		if k == 0 {
			b.StopTimer()
			retire()
			dir = filepath.Join(root, fmt.Sprint(i))
			var err error
			svc, err = serve.New(serve.Config{
				Net: n, EpochRecords: 0, JournalShards: 4, Dir: dir,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		res, err := svc.Ingest(batches[k])
		if err != nil || res.Accepted != len(batches[k]) {
			b.Fatalf("ingest: %+v, %v", res, err)
		}
		records += res.Accepted
	}
	b.StopTimer()
	retire()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(records)/sec, "records_per_sec")
	}
}

// BenchmarkCompaction is one compacting epoch close of a durable leaf
// whose table holds T intervals, as the history workload's leaf grows
// them: epochs of 256 intervals of four sources, one per Figure 4
// path, with CompactEvery 1 so every close compacts. Per op one more
// interval is ingested untimed, then the close is timed: the fold and
// incremental inference over the one new row, then the compaction —
// the snapshot encode, its WriteAtomic, the manifest rewrite and the
// journal truncation. At T=12288 (the history workload's 48-epoch
// lifetime) the snapshot is about 300 KB, and its encode and write
// dominate.
func BenchmarkCompaction(b *testing.B) {
	const span = 256
	for _, T := range []int{1024, 12288} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			n, meas := plantedFigure4Table(T + 1024)
			paths := n.NumPaths()
			interval := func(t int) []measure.StreamRecord {
				recs := make([]measure.StreamRecord, paths)
				for p := range recs {
					recs[p] = measure.StreamRecord{
						Source: fmt.Sprintf("vp-%d", p), Seq: int64(t + 1), Interval: t, Path: p,
						Sent: meas.Sent[t%len(meas.Sent)][p], Lost: meas.Lost[t%len(meas.Lost)][p],
					}
				}
				return recs
			}
			svc, err := serve.New(serve.Config{
				Net: n, EpochRecords: 0, CompactEvery: 1, JournalShards: 4, Dir: b.TempDir(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			ingest := func(lo, hi int) {
				var recs []measure.StreamRecord
				for t := lo; t < hi; t++ {
					recs = append(recs, interval(t)...)
				}
				if _, err := svc.Ingest(recs); err != nil {
					b.Fatal(err)
				}
			}
			closeEpoch := func() {
				if ok, err := svc.CloseEpoch(); err != nil || !ok {
					b.Fatalf("close: %v, %v", ok, err)
				}
			}
			for lo := 0; lo < T; lo += span {
				ingest(lo, lo+span)
				closeEpoch()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ingest(T+i, T+i+1)
				b.StartTimer()
				closeEpoch()
			}
			b.StopTimer()
			st := svc.Status()
			if st.JournalStatus == nil || st.SnapshotEpoch != st.Epochs || st.Intervals != T+b.N {
				b.Fatalf("after the last close: %+v, want a snapshot at epoch %d over %d intervals", st, st.Epochs, T+b.N)
			}
		})
	}
}

// BenchmarkShardVerify measures the read-only integrity scrub of a
// persisted sweep directory: every record's CRC32C frame re-checked
// and every shard's SHA-256 recomputed over its claimed prefix.
// verify_mb_per_sec is the scan throughput the benchjson baseline
// gates: it bounds what the end-to-end artifact-integrity layer costs
// per megabyte of shard data, so `neutrality verify` stays cheap
// enough to run routinely before merges.
func BenchmarkShardVerify(b *testing.B) {
	g := neutrality.NewGrid("bench-verify", neutrality.GridBase{
		ScaleFactor: 0.05,
		DurationSec: 10,
	})
	g.Add("diff", neutrality.GridStr("police"))
	g.Add("rate", neutrality.GridNum(0.2), neutrality.GridNum(0.3), neutrality.GridNum(0.4))
	g.Add("dfrac", neutrality.GridNum(0.3), neutrality.GridNum(0.5), neutrality.GridNum(0.7))
	g.Add("rep", neutrality.GridNum(0), neutrality.GridNum(1), neutrality.GridNum(2))
	dir := filepath.Join(b.TempDir(), "sweep")
	if _, err := neutrality.RunSweep(context.Background(), g, neutrality.SweepOptions{
		Shards: 3, BaseSeed: 1, Dir: dir,
	}); err != nil {
		b.Fatal(err)
	}
	var passBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".jsonl" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		passBytes += info.Size()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Verify(g, dir)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean {
			b.Fatal("bench directory reported damage")
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(passBytes)*float64(b.N)/(1<<20)/sec, "verify_mb_per_sec")
	}
}
