package main

// metricDef is one metric of the benchmark: its unit and direction,
// the layer it belongs to, and — for a per-layer metric — the
// end-to-end metric and workload it should move. BENCHMARK.json at the
// repository root carries the name, unit, direction and bound of each;
// TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	Layer string
	// Moves names the end-to-end metric and workload a change to this
	// layer should show up in. Latencies ("ack_p50_ms in the record")
	// are in each record's extra, not bounded; see endToEnd.
	Moves string
	Doc   string
}

// endToEnd are the bounded end-to-end metrics. Every run's result line
// carries every one, whatever the workload, so each is defined for all
// three.
//
// Latencies are not among them. On a shared 2-CPU host, time the
// hypervisor steals from the process (8-20% during runs) stalls the
// open loop of fanin, and each stall queues the requests behind it on
// the connection: across ten seeds the median ack moved by up to a
// third and the median verdict by a quarter of their medians, and the
// tails several-fold, beyond 0.25, the largest bound an end-to-end
// metric may have. CPU time per record excludes steal; it still moves
// with host contention, within the bound. So the latencies —
// ack_p50_ms, ack_p90_ms, ack_p99_ms, verdict_p50_ms, verdict_p90_ms,
// read_p99_ms — and close_growth travel unbounded in each record's
// extra, and compare mode reports them by its pair rule.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "harness",
		Doc: "median over several set-ups in one run of bringing the system under test to ready (state directories, servers, inputs)"},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Layer: "end-to-end",
		Doc: "acked records per second: fanin, the records of the requests due in the window over the time until the last was acked (offered: 40,000); history, closed loop; sweep, cell records"},
	{Name: "cpu_us_per_record", Unit: "us", Better: "lower", Bound: 0.25, Layer: "end-to-end",
		Doc: "process CPU time (user + system, host steal excluded) over the measured phase per acked record (sweep: per cell record), load generator included"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Layer: "process",
		Doc: "peak resident set of the benchmark process (client, servers and engine together)"},
}

// The serve.* metrics read 0 on sweep, emu.* and lab.* on fanin and
// history: those workloads bypass the layer.
var perLayer = []metricDef{
	{Name: "serve.http.ingest_p50_ms", Unit: "ms", Better: "lower", Layer: "serve.http", Moves: "ack_p50_ms in the record on fanin",
		Doc: "span of serve.Server.ServeHTTP for POST /v1/ingest, timed by a middleware"},
	{Name: "serve.http.ingest_p99_ms", Unit: "ms", Better: "lower", Layer: "serve.http", Moves: "ack_p99_ms in the record on fanin"},
	{Name: "serve.http.self_us_per_record", Unit: "us", Better: "lower", Layer: "serve.http", Moves: "cpu_us_per_record on fanin",
		Doc: "ServeHTTP span minus the durable Service.Ingest time of the same batches in a direct-call pass, per record"},
	{Name: "serve.http.read_p99_ms", Unit: "ms", Better: "lower", Layer: "serve.http", Moves: "read_p99_ms in the record on fanin (lock holds)",
		Doc: "server span of the dashboard reads (root GET /v1/verdict, leaf GET /v1/status)"},
	{Name: "serve.ingest.us_per_record", Unit: "us", Better: "lower", Layer: "serve.ingest", Moves: "cpu_us_per_record on fanin",
		Doc: "non-closing Service.Ingest calls of an in-memory twin, per record"},
	{Name: "serve.ingest.busy_rejects", Unit: "count", Better: "lower", Layer: "serve.ingest", Moves: "failed on fanin and history",
		Doc: "Status().RejectsBusy summed over the leaves"},
	{Name: "serve.journal.us_per_record", Unit: "us", Better: "lower", Layer: "serve.journal", Moves: "cpu_us_per_record and ack_p50_ms in the record on fanin",
		Doc: "durable twin minus in-memory twin fed the same batches, per record"},
	{Name: "serve.journal.bytes_per_record", Unit: "B", Better: "lower", Layer: "serve.journal", Moves: "cpu_us_per_record on fanin",
		Doc: "bytes in the leaves' state directories at the end over records accepted"},
	{Name: "serve.journal.disk_mb_end", Unit: "MB", Better: "lower", Layer: "serve.journal", Moves: "cpu_us_per_record on history (snapshots)"},
	{Name: "serve.close.p50_ms", Unit: "ms", Better: "lower", Layer: "serve.close", Moves: "records_per_s and verdict_p50_ms in the record on history",
		Doc: "the closing Ingest call's extra time over a non-closing one (durable twin)"},
	{Name: "serve.close.p90_ms", Unit: "ms", Better: "lower", Layer: "serve.close", Moves: "records_per_s and verdict_p90_ms in the record on history"},
	{Name: "serve.close.infer_ms", Unit: "ms", Better: "lower", Layer: "serve.close", Moves: "cpu_us_per_record and records_per_s on history",
		Doc: "mean Status().LastInferMillis after each close"},
	{Name: "serve.close.fold_ms", Unit: "ms", Better: "lower", Layer: "serve.close", Moves: "cpu_us_per_record and records_per_s on history",
		Doc: "mean close minus infer: fold, table copy, checkpoint and snapshot"},
	{Name: "serve.close.growth", Unit: "ratio", Better: "lower", Layer: "serve.close", Moves: "records_per_s on history",
		Doc: "close_growth: median verdict latency over the last tenth of a lifetime's epochs over the first tenth (history pools its lifetimes; fanin has one)"},
	{Name: "serve.close.table_intervals", Unit: "count", Better: "lower", Layer: "serve.close", Moves: "serve.close.growth on history",
		Doc: "intervals in the table at the last close"},
	{Name: "measure.normalize_ms", Unit: "ms", Better: "lower", Layer: "measure", Moves: "cpu_us_per_record, records_per_s and serve.close.growth on history",
		Doc: "per shadow inference, the time in Observer.Y (measure.NewProcessor, Algorithm 2)"},
	{Name: "measure.perf_ms", Unit: "ms", Better: "lower", Layer: "measure", Moves: "cpu_us_per_record on history",
		Doc: "per shadow inference, the time in pathset y-lookups (Processor.Perf)"},
	{Name: "measure.perf_calls", Unit: "count", Better: "lower", Layer: "measure", Moves: "cpu_us_per_record on history",
		Doc: "per shadow inference, the number of y-lookups"},
	{Name: "core.infer_self_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "cpu_us_per_record on history",
		Doc: "per shadow inference, core.Infer minus the measure layer"},
	{Name: "serve.root.deliver_p50_ms", Unit: "ms", Better: "lower", Layer: "serve.root", Moves: "verdict_p50_ms in the record on fanin",
		Doc: "span of RootServer.ServeHTTP for POST /v1/epoch"},
	{Name: "serve.root.deliver_p90_ms", Unit: "ms", Better: "lower", Layer: "serve.root", Moves: "verdict_p90_ms in the record on fanin"},
	{Name: "serve.root.fold_lag_epochs_max", Unit: "count", Better: "lower", Layer: "serve.root", Moves: "verdict_p90_ms in the record on fanin",
		Doc: "largest leaf-minus-root epoch count seen, sampled every 50 ms"},
	{Name: "serve.root.gaps", Unit: "count", Better: "lower", Layer: "serve.root", Moves: "verdict_p90_ms in the record on fanin"},
	{Name: "serve.ship.post_ms", Unit: "ms", Better: "lower", Layer: "serve.ship", Moves: "verdict_p50_ms in the record on fanin",
		Doc: "mean span of one report POST at the shipper's RoundTripper, root delivery included"},
	{Name: "serve.ship.posts", Unit: "count", Better: "lower", Layer: "serve.ship", Moves: "verdict_p90_ms in the record on fanin",
		Doc: "report POSTs seen by a counting RoundTripper on Shipper.Client"},
	{Name: "serve.ship.failed", Unit: "count", Better: "lower", Layer: "serve.ship", Moves: "verdict_p90_ms in the record on fanin"},
	{Name: "emu.events_per_cell", Unit: "count", Better: "lower", Layer: "emu", Moves: "records_per_s and cpu_us_per_record on sweep",
		Doc: "Record.Events over the sweep's records, an exact count"},
	{Name: "emu.events_per_s", Unit: "1/s", Better: "higher", Layer: "emu", Moves: "records_per_s and cpu_us_per_record on sweep",
		Doc: "events over lab.RunCtx time on the demo grid's parameter points"},
	{Name: "lab.run_ms_per_cell", Unit: "ms", Better: "lower", Layer: "emu", Moves: "records_per_s and cpu_us_per_record on sweep"},
	{Name: "sweep.overhead_frac", Unit: "frac", Better: "lower", Layer: "sweep", Moves: "records_per_s on sweep",
		Doc: "1 - sum of per-cell stage time / (workers x wall)"},
	{Name: "go.alloc_bytes_per_record", Unit: "B", Better: "lower", Layer: "process", Moves: "cpu_us_per_record",
		Doc: "runtime/metrics heap allocation over the measured phase per record (sweep: per cell)"},
	{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower", Layer: "process", Moves: "cpu_us_per_record"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower", Layer: "harness", Moves: "ack_p99_ms in the record on fanin",
		Doc: "how late the open-loop generator sent, 99th percentile"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Layer: "harness",
		Doc: "span-recording cost (calibrated per span) over the traced end-to-end time"},
	{Name: "ledger.unaccounted_frac", Unit: "frac", Better: "lower", Layer: "harness",
		Doc: "share of the end-to-end time that no layer's self time covers"},
}
