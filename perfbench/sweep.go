package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"neutrality/internal/graph"
	"neutrality/internal/grid"
	"neutrality/internal/lab"
	"neutrality/internal/runner"
	"neutrality/internal/sweep"
)

// sweep: the batch paper-reproduction path, sweep.Run over the demo
// grid. Nearly all of its time is emulation, so it measures emu and
// bypasses serve entirely.
const (
	sweepShards = 4
	sweepSetups = 25
	// sweepSample: the traced direct-call pass re-runs every second cell.
	sweepSample = 2
	// sweepCheckpoint is the engine's checkpoint cadence in records.
	sweepCheckpoint = 64
)

func runSweep(ctx context.Context, cfg config, res *result) error {
	workers := runtime.NumCPU()
	var setups []float64
	var g *grid.Grid
	var dir string
	for i := 0; i < sweepSetups; i++ {
		start := time.Now()
		g = sweep.DemoGrid()
		if err := sweep.Validate(g); err != nil {
			return err
		}
		dir = filepath.Join(cfg.Dir, fmt.Sprintf("sweep-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.Metrics["setup_s"] = median(setups)

	var lat []float64 // per record, ms from the start to its emission
	var records []sweep.Record
	g0, cpu0 := readGoStats(), cpuTime()
	start := time.Now()
	out, err := sweep.Run(ctx, g, sweep.Options{
		Workers: workers, Shards: sweepShards, BaseSeed: cfg.Seed, Dir: dir, Partition: cfg.SweepPart,
		OnRecord: func(r sweep.Record) {
			lat = append(lat, ms(time.Since(start)))
			records = append(records, r)
		},
	})
	wall := time.Since(start)
	goEnd, cpu := readGoStats(), cpuTime()-cpu0
	res.Attempted = int64(g.Cells())
	if out != nil {
		res.Attempted = int64(out.Total)
	}
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	res.Failed = res.Attempted - int64(len(records))

	res.Metrics["records_per_s"] = float64(len(records)) / wall.Seconds()
	res.Metrics["cpu_us_per_record"] = float64(cpu.Microseconds()) / float64(len(records))
	res.Extra["ack_p50_ms"] = percentile(lat, 0.5)
	res.Extra["ack_p90_ms"] = percentile(lat, 0.9)
	res.Extra["ack_p99_ms"] = percentile(lat, 0.99)
	// A record is claimed by the checkpoint the engine writes after
	// every sweepCheckpoint-th record, and at the end.
	claimed := make([]float64, len(lat))
	for i := range lat {
		c := (i/sweepCheckpoint+1)*sweepCheckpoint - 1
		if c >= len(lat) {
			c = len(lat) - 1
		}
		claimed[i] = lat[c]
	}
	res.Extra["verdict_p50_ms"] = percentile(claimed, 0.5)
	res.Extra["verdict_p90_ms"] = percentile(claimed, 0.9)
	if k := len(lat) / 10; k >= 1 && lat[k-1] > 0 {
		res.Extra["close_growth"] = ((lat[len(lat)-1] - lat[len(lat)-1-k]) / float64(k)) / (lat[k-1] / float64(k))
	}
	if rss, err := peakRSSMB(); err == nil {
		res.Metrics["peak_rss_mb"] = rss
	}

	// Correctness gate: every cell's record, once, and a clean verify.
	seen := map[int]int{}
	for _, r := range records {
		seen[r.Cell]++
	}
	if len(records) != out.Total || len(seen) != out.Total {
		res.fail("sweep emitted %d records for %d distinct cells, expected %d", len(records), len(seen), out.Total)
	}
	if rep, err := sweep.Verify(g, dir); err != nil {
		res.fail("verify: %v", err)
	} else if !rep.Clean {
		res.fail("verify: %v", rep.Err())
	}
	digest := sha256.Sum256([]byte(out.Agg.Summary()))
	res.Digest = hex.EncodeToString(digest[:])
	res.check("sweep: %d records, verify clean, summary sha256 %s", len(records), res.Digest)
	if !cfg.Trace {
		return nil
	}

	// Traced: re-run sampled cells stage by stage, in parallel like the
	// engine, and check each against the engine's record.
	m := res.Metrics
	goDelta(g0, goEnd, m, float64(len(records)))
	tr := newTracer()
	var events uint64
	for _, r := range records {
		events += r.Events
	}
	m["emu.events_per_cell"] = float64(events) / float64(len(records))
	st, err := directCells(ctx, g, records, cfg.Seed, workers, cfg.Inject.Observer, tr)
	if err != nil {
		return err
	}
	if st.mismatch != "" {
		res.fail("direct re-run disagrees with the engine: %s", st.mismatch)
	}
	m["emu.events_per_s"] = float64(st.events) / st.run.Seconds()
	m["lab.run_ms_per_cell"] = ms(st.run) / float64(st.cells)
	st.shadow.perInfer(m)
	scale := float64(len(records)) / float64(st.cells)
	rows := []ledgerRow{
		{Layer: "sweep.cell", SelfMs: ms(st.materialize) * scale},
		{Layer: "emu", SelfMs: ms(st.run) * scale},
		{Layer: "measure", SelfMs: ms(st.shadow.total.Normalize+st.shadow.total.Perf) * scale},
		{Layer: "core", SelfMs: ms(st.shadow.total.coreSelf()) * scale},
	}
	res.Ledger = newLedger(fmt.Sprintf("workers (%d) x sweep wall time", workers), float64(workers)*ms(wall), rows, tr.count(), spanCost())
	m["sweep.overhead_frac"] = res.Ledger.Unaccounted
	res.tracer = tr
	return nil
}

// cellStages sums the direct-call pass over the sampled cells.
type cellStages struct {
	mu               sync.Mutex
	cells            int
	events           uint64
	materialize, run time.Duration
	shadow           splitSum
	mismatch         string
}

// directCells re-runs every sweepSample-th cell through lab.RunCtx and a
// shadow core.Infer with workers goroutines, timing each stage.
func directCells(ctx context.Context, g *grid.Grid, records []sweep.Record, baseSeed int64, workers int, factor int, tr *tracer) (*cellStages, error) {
	st := &cellStages{}
	work := make(chan sweep.Record)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range work {
				if err := st.cell(ctx, g, rec, baseSeed, factor, tr); err != nil {
					errs <- err
					for range work {
					}
					return
				}
			}
		}()
	}
	for i, rec := range records {
		if i%sweepSample == 0 {
			work <- rec
		}
	}
	close(work)
	wg.Wait()
	close(errs)
	return st, <-errs
}

func (st *cellStages) cell(ctx context.Context, g *grid.Grid, rec sweep.Record, baseSeed int64, factor int, tr *tracer) error {
	id := tr.id()
	t0 := time.Now()
	seed := runner.Seed(baseSeed, rec.Cell)
	if g.SeedMode() == grid.SeedFixed {
		seed = baseSeed
	}
	e, net, err := demoExperiment(g, rec.Cell, seed)
	if err != nil {
		return err
	}
	t1 := time.Now()
	run, err := lab.RunCtx(ctx, e)
	if err != nil {
		return err
	}
	t2 := time.Now()
	res, split := shadowInfer(net, run.Meas, factor, tr, id, id)
	tr.add("sweep.materialize", 0, id, id, t0, t1)
	tr.add("lab.run", 0, id, id, t1, t2)
	tr.add("sweep.cell", id, 0, id, t0, time.Now())
	maxU := 0.0
	for _, v := range res.Candidates {
		if v.Unsolvability > maxU {
			maxU = v.Unsolvability
		}
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	st.cells++
	st.events += run.Sim.Processed
	st.materialize += t1.Sub(t0)
	st.run += t2.Sub(t1)
	st.shadow.add(split)
	if st.mismatch == "" && (seed != rec.Seed || run.Sim.Processed != rec.Events ||
		res.NetworkNonNeutral() != rec.Verdict || maxU != rec.Unsolvability) {
		st.mismatch = fmt.Sprintf("cell %d: seed %d events %d verdict %v unsolvability %v, engine %d %d %v %v",
			rec.Cell, seed, run.Sim.Processed, res.NetworkNonNeutral(), maxU, rec.Seed, rec.Events, rec.Verdict, rec.Unsolvability)
	}
	return nil
}

// demoExperiment materializes one demo-grid cell the way the sweep
// engine does for its axes (topo, diff=police, rate, dfrac, rep).
func demoExperiment(g *grid.Grid, i int, seed int64) (*lab.Experiment, *graph.Network, error) {
	c := g.Cell(i)
	topo, _ := c.Lookup("topo")
	rate, _ := c.Lookup("rate")
	dfrac, _ := c.Lookup("dfrac")
	name := fmt.Sprintf("%s/cell%d", g.Name, i)
	switch topo.Str {
	case "a":
		p := lab.DefaultParamsA().Scale(g.Base.ScaleFactor, g.Base.DurationSec)
		p.MeanFlowMb[0] *= 2 * (1 - dfrac.Num)
		p.MeanFlowMb[1] *= 2 * dfrac.Num
		p.Diff = lab.PoliceClass2(rate.Num)
		p.Seed = seed
		e, a := p.Experiment(name)
		return e, a.Net, nil
	case "b":
		p := lab.DefaultParamsB().Scale(g.Base.ScaleFactor, g.Base.DurationSec)
		p.PoliceRate = rate.Num
		p.LightSizesMb = scaled(p.LightSizesMb, 2*dfrac.Num)
		p.DarkSizesMb = scaled(p.DarkSizesMb, 2*(1-dfrac.Num))
		p.WhiteSizesMb = scaled(p.WhiteSizesMb, 2*(1-dfrac.Num))
		p.Seed = seed
		e, b := p.Experiment(name)
		return e, b.InferenceNet, nil
	}
	return nil, nil, fmt.Errorf("demo cell %d: unexpected topology %q", i, topo.Str)
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
