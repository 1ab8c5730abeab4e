package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/serve"
	"neutrality/internal/synth"
)

// history: a closed loop into one durable leaf whose every record opens
// a new table cell, so the work of each epoch close grows with the
// service's lifetime (table copy, per-slice renormalization, Perf scans,
// snapshots). A run repeats whole lifetimes, each to a fixed epoch
// depth, until its time is up.
const (
	historyConns   = 2
	historySources = 4 // one per figure4 path
	historyBatch   = 256
	historyEpoch   = 1024 // every epoch adds 256 intervals
	historyCompact = 16
	historyShards  = 4
	historyDepth   = 48 // epochs per lifetime
	historyShadow  = 1  // shadow-infer every twin close
)

// historyTable is one lifetime's generated input: depth*256 intervals
// of sampled link states turned into packet counts, one record per
// (interval, path), source k owning path k.
func historyTable(n *graph.Network, perf graph.Perf, seed int64, depth int) *measure.Measurements {
	intervals := depth * historyEpoch / historySources
	states := synth.NewSampler(n, perf, seed).SampleIntervals(intervals)
	opts := synth.DefaultMeasurementOptions()
	opts.Seed = seed + 1
	return synth.ToMeasurements(states, opts)
}

// historyBatches deals the table to the connections: connection c owns
// sources 2c and 2c+1; its j-th batch is 128 intervals of both.
func historyBatches(table *measure.Measurements) [][][]measure.StreamRecord {
	perConn := historySources / historyConns
	span := historyBatch / perConn
	out := make([][][]measure.StreamRecord, historyConns)
	for c := range out {
		for lo := 0; lo < table.Intervals(); lo += span {
			var b []measure.StreamRecord
			for t := lo; t < lo+span && t < table.Intervals(); t++ {
				for k := c * perConn; k < (c+1)*perConn; k++ {
					b = append(b, measure.StreamRecord{
						Source: fmt.Sprintf("vp-%d", k), Seq: int64(t + 1), Interval: t, Path: k,
						Sent: table.Sent[t][k], Lost: table.Lost[t][k],
					})
				}
			}
			out[c] = append(out[c], b)
		}
	}
	return out
}

func historyConfig(n *graph.Network) serve.Config {
	return serve.Config{Net: n, NetName: "figure4", EpochRecords: historyEpoch, CompactEvery: historyCompact, JournalShards: historyShards}
}

// lifetime is one service lifetime's client-side record.
type lifetime struct {
	ops      [][]op
	start    time.Time
	end      time.Time
	records  int64
	verdicts []float64 // per epoch, in epoch order
	diskB    int64
	cpu      time.Duration
}

func runHistory(ctx context.Context, cfg config, res *result) error {
	n, perf := plantedFigure4()
	depth := cfg.HistoryDepth
	if depth == 0 {
		depth = historyDepth
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	clients := []*http.Client{newClient(), newClient()}
	defer func() {
		for _, c := range clients {
			closeClient(c)
		}
	}()

	window := time.Duration(cfg.Seconds * float64(time.Second))
	var lives []*lifetime
	var setups []float64
	var table *measure.Measurements
	var batches [][][]measure.StreamRecord
	var measured time.Duration
	var g0 goStats
	for i := 0; i == 0 || measured < window; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		setupStart := time.Now()
		table = historyTable(n, perf, cfg.Seed, depth)
		batches = historyBatches(table)
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("history-%d", i))
		c := historyConfig(n)
		c.Dir = dir
		svc, err := serve.New(c)
		if err != nil {
			return err
		}
		srv, err := startHTTP(&timed{Next: serve.NewServer(svc), Tr: tr, Route: leafRoute, Factor: cfg.Inject.HTTP})
		if err != nil {
			svc.Close()
			return err
		}
		o := op{due: time.Now()}
		o.sent = o.due
		get(clients[0], srv.url+"/v1/status", nil, &o)
		if !o.ok {
			srv.stop()
			svc.Close()
			return fmt.Errorf("warm-up read of %s failed", srv.url)
		}
		setups = append(setups, time.Since(setupStart).Seconds())
		if i == 0 {
			g0 = readGoStats()
		}

		cpu0 := cpuTime()
		lt := historyLifetime(ctx, clients, srv.url, batches, tr)
		lt.cpu = cpuTime() - cpu0
		lives = append(lives, lt)
		measured += lt.end.Sub(lt.start)
		if err := ctx.Err(); err != nil {
			srv.stop()
			svc.Close()
			return err
		}

		// Correctness gate, untimed.
		acked := 0
		for _, os := range lt.ops {
			for _, o := range os {
				acked += o.res.Accepted
			}
		}
		lt.records = int64(acked)
		if st := svc.Status(); st.Records != int64(acked) {
			res.fail("lifetime %d: leaf holds %d records, the client saw %d acked", i, st.Records, acked)
		}
		if err := checkServed(svc.VerdictJSON(), n, table, int64(depth*historyEpoch)); err != nil {
			res.fail("lifetime %d verdict: %v", i, err)
		}
		if cfg.Trace {
			res.Metrics["serve.ingest.busy_rejects"] += float64(svc.Status().RejectsBusy)
		}
		serr := srv.stop()
		if err := svc.Close(); err != nil {
			return err
		}
		if serr != nil {
			return serr
		}
		if lt.diskB, err = dirBytes(dir); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	goEnd := readGoStats()
	res.Metrics["setup_s"] = median(setups)
	res.check("history: %d lifetimes of %d epochs, every final verdict checked against batch inference", len(lives), depth)

	// Every lifetime replays the same input, so rates are taken per
	// lifetime and then their median: a burst of host noise in a few
	// lifetimes does not decide them.
	var acks, verdicts, first, last, rates, cpus []float64
	var records int64
	for _, lt := range lives {
		records += lt.records
		var la []float64
		for _, os := range lt.ops {
			for _, o := range os {
				res.Attempted++
				if !o.ok {
					res.Failed++
					continue
				}
				la = append(la, ms(o.latency()))
			}
		}
		acks = append(acks, la...)
		rates = append(rates, float64(lt.records)/lt.end.Sub(lt.start).Seconds())
		cpus = append(cpus, float64(lt.cpu.Microseconds())/float64(lt.records))
		verdicts = append(verdicts, lt.verdicts...)
		k := len(lt.verdicts) / 10
		if k < 1 {
			k = 1
		}
		if len(lt.verdicts) >= 2 {
			first = append(first, lt.verdicts[:k]...)
			last = append(last, lt.verdicts[len(lt.verdicts)-k:]...)
		}
	}
	res.Metrics["records_per_s"] = median(rates)
	res.Metrics["cpu_us_per_record"] = median(cpus)
	res.Extra["ack_p50_ms"] = percentile(acks, 0.5)
	res.Extra["ack_p90_ms"] = percentile(acks, 0.9)
	res.Extra["ack_p99_ms"] = percentile(acks, 0.99)
	res.Extra["verdict_p50_ms"] = percentile(verdicts, 0.5)
	res.Extra["verdict_p90_ms"] = percentile(verdicts, 0.9)
	if f := median(first); f > 0 {
		res.Extra["close_growth"] = median(last) / f
	}
	if rss, err := peakRSSMB(); err == nil {
		res.Metrics["peak_rss_mb"] = rss
	}
	res.Extra["lifetimes"] = float64(len(lives))
	res.Extra["ack_samples"] = float64(len(acks))
	res.Extra["verdict_samples"] = float64(len(verdicts))
	if !cfg.Trace {
		return nil
	}

	// Traced: per-layer metrics. Every lifetime gets the same input, so
	// one direct-call pass stands for each of them.
	m := res.Metrics
	m["serve.close.growth"] = res.Extra["close_growth"]
	goDelta(g0, goEnd, m, float64(records))
	httpIngest := tr.durations("serve.http.ingest")
	m["serve.http.ingest_p50_ms"] = percentile(httpIngest, 0.5)
	m["serve.http.ingest_p99_ms"] = percentile(httpIngest, 0.99)
	m["serve.journal.bytes_per_record"] = float64(lives[0].diskB) / float64(lives[0].records)
	m["serve.journal.disk_mb_end"] = float64(lives[0].diskB) / (1 << 20)
	next := interleave(batches)
	tp, err := runTwins(n, historyConfig(n), filepath.Join(cfg.Dir, "twin"), next, historyShadow, cfg.Inject.Observer, tr)
	if err != nil {
		return err
	}
	passes := make([]*twinPass, len(lives))
	for i := range passes {
		passes[i] = tp
	}
	tl := addTwins(passes...)
	tl.fill(m)
	m["serve.http.self_us_per_record"] = 1000 * (sum(httpIngest) - tl.durTotal) / float64(tl.records)
	rows := []ledgerRow{
		{Layer: "client", SelfMs: sum(tr.durations("client.encode"))},
		{Layer: "serve.http", SelfMs: sum(httpIngest) - tl.durTotal},
	}
	rows = append(rows, tl.rows()...)
	res.Ledger = newLedger("sum of client request spans over both connections", sum(tr.durations("client.request")), rows, tr.count(), spanCost())
	res.tracer = tr
	return nil
}

// interleave returns the connections' batches one round at a time, the
// order a fair interleaving of the two closed loops applies them in.
func interleave(batches [][][]measure.StreamRecord) func() []measure.StreamRecord {
	j, c := 0, 0
	return func() []measure.StreamRecord {
		for j < len(batches[0]) {
			b := batches[c][j]
			if c++; c == len(batches) {
				c, j = 0, j+1
			}
			return b
		}
		return nil
	}
}

// historyLifetime drives one lifetime: each connection posts its
// batches in a closed loop.
func historyLifetime(ctx context.Context, clients []*http.Client, url string, batches [][][]measure.StreamRecord, tr *tracer) *lifetime {
	lt := &lifetime{ops: make([][]op, len(batches)), start: time.Now()}
	var wg sync.WaitGroup
	for c := range batches {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, 0, 32<<10)
			for _, b := range batches[c] {
				if ctx.Err() != nil {
					return
				}
				o := op{due: time.Now()}
				o.sent = o.due
				buf = post(clients[c], url, b, buf, tr, &o)
				lt.ops[c] = append(lt.ops[c], o)
			}
		}(c)
	}
	wg.Wait()
	lt.end = time.Now()
	lt.verdicts = closerLatencies(lt.ops)
	return lt
}

// closerLatencies finds, for each epoch, the request that carried its
// last record and returns that request's latency: the closing Ingest
// publishes the epoch's verdict before it acks.
//
// A request's ack reports the leaf's record count. A request that did
// not close reports exactly the position of its last record, which is
// never an epoch boundary. A closing request reports the count after
// its inference, which may include batches the other connection applied
// meanwhile; so among acks reporting the same count the earliest is the
// non-closing one, and the rest, ordered by count and ack time, are the
// closers of successive epochs.
func closerLatencies(conns [][]op) []float64 {
	byCount := map[int64][]*op{}
	for c := range conns {
		for i := range conns[c] {
			o := &conns[c][i]
			if o.ok {
				byCount[o.res.Records] = append(byCount[o.res.Records], o)
			}
		}
	}
	var closers []*op
	for count, os := range byCount {
		sort.Slice(os, func(i, j int) bool { return os[i].done.Before(os[j].done) })
		if count%historyEpoch != 0 {
			os = os[1:]
		}
		closers = append(closers, os...)
	}
	sort.Slice(closers, func(i, j int) bool {
		a, b := closers[i], closers[j]
		if a.res.Records != b.res.Records {
			return a.res.Records < b.res.Records
		}
		return a.done.Before(b.done)
	})
	out := make([]float64, len(closers))
	for i, o := range closers {
		out[i] = ms(o.latency())
	}
	return out
}
