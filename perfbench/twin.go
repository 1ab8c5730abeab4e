package main

import (
	"fmt"
	"time"

	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/serve"
)

// twinCall is one batch fed to both twins.
type twinCall struct {
	dur, mem time.Duration
	records  int
	closing  bool
	// inferMs is the in-memory twin's Status().LastInferMillis after a
	// closing call, inferDurMs the durable twin's.
	inferMs, inferDurMs float64
}

// twinPass is the direct-call pass of a traced streaming run: the
// batches a leaf received over HTTP are fed, in order, to a durable twin
// (the leaf's own configuration) and to an in-memory twin, so the HTTP
// span can be split into HTTP, ingest, journal and close, and a shadow
// inference at sampled closes splits the close into measure and core.
type twinPass struct {
	calls     []twinCall
	shadow    splitSum
	intervals int
}

// runTwins feeds next's batches (nil ends) to the twins. Every
// shadowEvery-th close also runs the shadow inference, whose verdict
// must match the twin's served one.
func runTwins(n *graph.Network, cfg serve.Config, dir string, next func() []measure.StreamRecord, shadowEvery int, factor int, tr *tracer) (*twinPass, error) {
	dcfg := cfg
	dcfg.Dir = dir
	durable, err := serve.New(dcfg)
	if err != nil {
		return nil, fmt.Errorf("durable twin: %w", err)
	}
	defer durable.Close()
	mcfg := cfg
	mcfg.Dir = ""
	mem, err := serve.New(mcfg)
	if err != nil {
		return nil, fmt.Errorf("in-memory twin: %w", err)
	}
	defer mem.Close()

	tp := &twinPass{}
	epochs := 0
	for batch := next(); batch != nil; batch = next() {
		req := tr.id()
		start := time.Now()
		if _, err := durable.Ingest(batch); err != nil {
			return nil, fmt.Errorf("durable twin ingest: %w", err)
		}
		mid := time.Now()
		res, err := mem.Ingest(batch)
		if err != nil {
			return nil, fmt.Errorf("in-memory twin ingest: %w", err)
		}
		end := time.Now()
		tr.add("twin.ingest.durable", 0, 0, req, start, mid)
		tr.add("twin.ingest.memory", 0, 0, req, mid, end)
		c := twinCall{dur: mid.Sub(start), mem: end.Sub(mid), records: len(batch)}
		if res.Epochs > epochs {
			epochs = res.Epochs
			c.closing = true
			c.inferMs = mem.Status().LastInferMillis
			c.inferDurMs = durable.Status().LastInferMillis
			if cfg.Leaf != "" {
				durable.AckReports(epochs)
				mem.AckReports(epochs)
			}
			if shadowEvery > 0 && epochs%shadowEvery == 0 {
				meas, err := mem.Measurements()
				if err != nil {
					return nil, err
				}
				ref, split := shadowInfer(n, meas, factor, tr, 0, req)
				if err := matchSlicesJSON(mem.VerdictJSON(), ref); err != nil {
					return nil, fmt.Errorf("shadow inference at epoch %d disagrees with the service: %w", epochs, err)
				}
				tp.shadow.add(split)
			}
		}
		tp.calls = append(tp.calls, c)
	}
	tp.intervals = mem.Status().Intervals
	return tp, nil
}

// totals sums the twins' call times in ms.
func (tp *twinPass) totals() (dur, mem float64, records int) {
	for _, c := range tp.calls {
		dur += ms(c.dur)
		mem += ms(c.mem)
		records += c.records
	}
	return dur, mem, records
}

// closeExtras returns each closing call's time over the median
// non-closing call (same batch size), for the durable and in-memory
// twins, in ms.
func (tp *twinPass) closeExtras() (dur, mem []float64) {
	var plainD, plainM []float64
	for _, c := range tp.calls {
		if !c.closing {
			plainD = append(plainD, ms(c.dur))
			plainM = append(plainM, ms(c.mem))
		}
	}
	baseD, baseM := median(plainD), median(plainM)
	for _, c := range tp.calls {
		if c.closing {
			dur = append(dur, ms(c.dur)-baseD)
			mem = append(mem, ms(c.mem)-baseM)
		}
	}
	return dur, mem
}

// twinLayers is the twins' share of a ledger: the self times of
// serve.ingest, serve.journal, serve.close, measure and core, in ms,
// summed over every pass.
type twinLayers struct {
	durTotal, memTotal                   float64
	ingest, journal, fold, measure, core float64
	records                              int
	closeDur, inferDur, plainMem         []float64
	plainMemRecords                      int
	shadow                               splitSum
	intervals                            int
}

func addTwins(passes ...*twinPass) *twinLayers {
	tl := &twinLayers{}
	var inferMem float64
	for _, tp := range passes {
		d, m, n := tp.totals()
		tl.durTotal += d
		tl.memTotal += m
		tl.records += n
		cd, cm := tp.closeExtras()
		tl.closeDur = append(tl.closeDur, cd...)
		closeMem := sum(cm)
		for _, c := range tp.calls {
			if c.closing {
				inferMem += c.inferMs
				tl.inferDur = append(tl.inferDur, c.inferDurMs)
			} else {
				tl.plainMem = append(tl.plainMem, ms(c.mem))
				tl.plainMemRecords += c.records
			}
		}
		tl.ingest += m - closeMem
		tl.fold += closeMem
		tl.shadow.merge(tp.shadow)
		tl.intervals = tp.intervals
	}
	tl.journal = tl.durTotal - tl.memTotal
	tl.fold -= inferMem
	mf, cf := tl.shadow.fractions()
	tl.measure = inferMem * mf
	tl.core = inferMem * cf
	return tl
}

// fill sets the serve.ingest, serve.journal, serve.close, measure and
// core metrics.
func (tl *twinLayers) fill(m map[string]float64) {
	if tl.plainMemRecords > 0 {
		m["serve.ingest.us_per_record"] = 1000 * sum(tl.plainMem) / float64(tl.plainMemRecords)
	}
	if tl.records > 0 {
		m["serve.journal.us_per_record"] = 1000 * tl.journal / float64(tl.records)
	}
	if len(tl.closeDur) > 0 {
		m["serve.close.p50_ms"] = percentile(tl.closeDur, 0.5)
		m["serve.close.p90_ms"] = percentile(tl.closeDur, 0.9)
		m["serve.close.infer_ms"] = sum(tl.inferDur) / float64(len(tl.inferDur))
		m["serve.close.fold_ms"] = (sum(tl.closeDur) - sum(tl.inferDur)) / float64(len(tl.closeDur))
	}
	m["serve.close.table_intervals"] = float64(tl.intervals)
	tl.shadow.perInfer(m)
}

// rows returns the twins' ledger rows.
func (tl *twinLayers) rows() []ledgerRow {
	return []ledgerRow{
		{Layer: "serve.ingest", SelfMs: tl.ingest},
		{Layer: "serve.journal", SelfMs: tl.journal},
		{Layer: "serve.close", SelfMs: tl.fold},
		{Layer: "measure", SelfMs: tl.measure},
		{Layer: "core", SelfMs: tl.core},
	}
}
