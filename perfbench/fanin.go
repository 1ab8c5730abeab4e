package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/serve"
	"neutrality/internal/stats"
	"neutrality/internal/synth"
)

// fanin: an open loop at a fixed offered rate through the leaf→root
// tree. Many sources share each interval, so the table stays small and
// inference is cheap; the time goes to HTTP decode, validation, dedup
// over many high-water marks, the journal flush per ack, report
// shipping and the root fold. Reads beside the writes expose lock holds.
const (
	faninRate      = 40000 // offered records per second, both leaves together
	faninLeaves    = 2
	faninSources   = 512 // disjoint vantage points per leaf
	faninBatch     = 32  // records per POST
	faninEpoch     = 4096
	faninShards    = 4
	faninReadEvery = 25 // every 25th request is a dashboard read
	faninSetups    = 5
	faninShadow    = 4 // shadow-infer every 4th twin close
)

// faninBatchesPerEpoch is the leaf requests an epoch spans: one leaf
// epoch is exactly two intervals of its sources' records.
const faninBatchesPerEpoch = faninEpoch / faninBatch

// faninSlot is the spacing of one connection's request slots, reads
// included, that offers faninRate records per second over both leaves.
var faninSlot = time.Duration(float64(time.Second) * (faninReadEvery - 1) * faninBatch /
	(faninReadEvery * faninRate / faninLeaves))

// linkStates draws per-interval congestion states on demand from one
// seeded sampler, so every source and both leaves see the same states
// whatever order they ask in.
type linkStates struct {
	mu     sync.Mutex
	s      *synth.Sampler
	states [][]bool
}

func (ls *linkStates) at(t int) []bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for len(ls.states) <= t {
		ls.states = append(ls.states, ls.s.Interval())
	}
	return ls.states[t]
}

// faninGen is one leaf's record stream: interval by interval, each of
// the leaf's sources reports every path. A source sends one probe per
// path and interval and loses it with the congested (5%) or baseline
// (0.1%) rate of the path's sampled state. Every path then carries the
// same packet count per interval, so Algorithm 2 has nothing to
// normalize and inference stays cheap.
type faninGen struct {
	paths  int
	states *linkStates
	rng    *stats.Rand
	names  []string
	next   int // index of the next record in the stream
	table  *measure.Measurements
	buf    []measure.StreamRecord
}

func newFaninGen(seed int64, leaf, paths int, states *linkStates) *faninGen {
	g := &faninGen{
		paths: paths, states: states,
		rng:   stats.NewRand(seed*1000003 + int64(leaf) + 1),
		table: measure.NewMeasurements(0, paths),
		buf:   make([]measure.StreamRecord, faninBatch),
	}
	for s := 0; s < faninSources; s++ {
		g.names = append(g.names, "vp-"+strconv.Itoa(leaf*faninSources+s))
	}
	return g
}

// batch returns the next faninBatch records (reusing one buffer).
func (g *faninGen) batch() []measure.StreamRecord {
	perInterval := faninSources * g.paths
	for k := range g.buf {
		i := g.next
		g.next++
		t, s, p := i/perInterval, (i/g.paths)%faninSources, i%g.paths
		frac := 0.001
		if g.states.at(t)[p] {
			frac = 0.05
		}
		sent, lost := 1, 0
		if g.rng.Float64() < frac {
			lost = 1
		}
		g.buf[k] = measure.StreamRecord{Source: g.names[s], Seq: int64(t*g.paths + p + 1), Interval: t, Path: p, Sent: sent, Lost: lost}
		g.table.EnsureIntervals(t+1, g.paths)
		g.table.Add(t, graph.PathID(p), sent, lost)
	}
	return g.buf
}

// servedLog notes when each root epoch's verdict was first served.
type servedLog struct {
	mu    sync.Mutex
	times []time.Time // times[e-1] for epoch e
}

func (l *servedLog) note(epochs int) {
	now := time.Now()
	l.mu.Lock()
	for len(l.times) < epochs {
		l.times = append(l.times, now)
	}
	l.mu.Unlock()
}

func (l *servedLog) at(e int) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e < 1 || e > len(l.times) {
		return time.Time{}, false
	}
	return l.times[e-1], true
}

// faninTree is the system under test: two durable leaves shipping to a
// durable root, all on loopback HTTP.
type faninTree struct {
	dir     string
	root    *serve.Root
	rootSrv *httpServer
	leaves  []*serve.Service
	leafSrv []*httpServer
	ship    []*shipTransport
	stopSh  context.CancelFunc
	shipWG  sync.WaitGroup
	shipErr []error
	served  servedLog
}

func leafConfig(n *graph.Network, leaf int) serve.Config {
	return serve.Config{
		Net: n, NetName: "figure4", EpochRecords: faninEpoch, JournalShards: faninShards,
		Leaf: fmt.Sprintf("leaf-%d", leaf),
	}
}

func startFanin(n *graph.Network, dir string, tr *tracer, inj injection) (*faninTree, error) {
	ft := &faninTree{dir: dir, shipErr: make([]error, faninLeaves)}
	var err error
	ft.root, err = serve.NewRoot(serve.RootConfig{Net: n, NetName: "figure4", Leaves: faninLeaves, Dir: filepath.Join(dir, "root")})
	if err != nil {
		return nil, err
	}
	ft.rootSrv, err = startHTTP(&timed{Next: serve.NewRootServer(ft.root), Tr: tr, Route: rootRoute,
		After: func(r *http.Request) {
			if r.Method == http.MethodPost {
				ft.served.note(ft.root.Status().Epochs)
			}
		}})
	if err != nil {
		ft.root.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ft.stopSh = cancel
	for l := 0; l < faninLeaves; l++ {
		cfg := leafConfig(n, l)
		cfg.Dir = filepath.Join(dir, fmt.Sprintf("leaf-%d", l))
		svc, err := serve.New(cfg)
		if err != nil {
			ft.stop()
			return nil, err
		}
		ft.leaves = append(ft.leaves, svc)
		srv, err := startHTTP(&timed{Next: serve.NewServer(svc), Tr: tr, Route: leafRoute, Factor: inj.HTTP})
		if err != nil {
			ft.stop()
			return nil, err
		}
		ft.leafSrv = append(ft.leafSrv, srv)
		st := &shipTransport{Base: &http.Transport{MaxIdleConnsPerHost: 1}, Tr: tr, Factor: inj.Ship}
		ft.ship = append(ft.ship, st)
		sh := &serve.Shipper{S: svc, URL: ft.rootSrv.url, Client: &http.Client{Transport: st, Timeout: 30 * time.Second}}
		ft.shipWG.Add(1)
		go func(l int) {
			defer ft.shipWG.Done()
			ft.shipErr[l] = sh.Run(ctx)
		}(l)
	}
	return ft, nil
}

// stop shuts the tree down: shippers, servers, then the services.
func (ft *faninTree) stop() error {
	var errs []error
	if ft.stopSh != nil {
		ft.stopSh()
		ft.shipWG.Wait()
	}
	for i, st := range ft.ship {
		st.Base.(*http.Transport).CloseIdleConnections()
		if ft.shipErr[i] != nil {
			errs = append(errs, ft.shipErr[i])
		}
	}
	for _, s := range ft.leafSrv {
		errs = append(errs, s.stop())
	}
	for _, s := range ft.leaves {
		errs = append(errs, s.Close())
	}
	if ft.rootSrv != nil {
		errs = append(errs, ft.rootSrv.stop())
	}
	errs = append(errs, ft.root.Close())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warm makes one status read per server, so set-up ends with every
// server answering.
func (ft *faninTree) warm(clients []*http.Client) error {
	for l, c := range clients {
		for _, url := range []string{ft.leafSrv[l].url, ft.rootSrv.url} {
			var o op
			o.due, o.sent = time.Now(), time.Now()
			get(c, url+"/v1/status", nil, &o)
			if !o.ok {
				return fmt.Errorf("warm-up read of %s failed", url)
			}
		}
	}
	return nil
}

func runFanin(ctx context.Context, cfg config, res *result) error {
	n, perf := plantedFigure4()
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

	// Set-up, several times; the last tree is the one measured.
	var setups []float64
	var ft *faninTree
	var states *linkStates
	var gens []*faninGen
	for i := 0; i < faninSetups; i++ {
		start := time.Now()
		states = &linkStates{s: synth.NewSampler(n, perf, cfg.Seed)}
		gens = []*faninGen{newFaninGen(cfg.Seed, 0, n.NumPaths(), states), newFaninGen(cfg.Seed, 1, n.NumPaths(), states)}
		var stTr *tracer
		if i == faninSetups-1 {
			stTr = tr
		}
		var err error
		ft, err = startFanin(n, filepath.Join(cfg.Dir, fmt.Sprintf("fanin-%d", i)), stTr, cfg.Inject)
		if err != nil {
			return err
		}
		if err := ft.warm(clients); err != nil {
			ft.stop()
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < faninSetups-1 {
			if err := ft.stop(); err != nil {
				return err
			}
		}
	}
	res.Metrics["setup_s"] = median(setups)
	stopped := false
	defer func() {
		if !stopped {
			ft.stop()
		}
	}()

	// Fold lag: leaf minus root epochs, sampled.
	lagStop := make(chan struct{})
	lagDone := make(chan int)
	go func() {
		maxLag := 0
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-lagStop:
				lagDone <- maxLag
				return
			case <-tick.C:
				r := ft.root.Status().Epochs
				for _, l := range ft.leaves {
					if lag := l.Status().Epochs - r; lag > maxLag {
						maxLag = lag
					}
				}
			}
		}
	}()

	// The measured window: one open-loop connection per leaf.
	window := time.Duration(cfg.Seconds * float64(time.Second))
	g0, cpu0 := readGoStats(), cpuTime()
	t0 := time.Now().Add(5 * time.Millisecond)
	end := t0.Add(window)
	ops := make([][]op, faninLeaves)
	var wg sync.WaitGroup
	for l := 0; l < faninLeaves; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			ops[l] = faninConn(ctx, clients[l], ft.leafSrv[l].url, ft.rootSrv.url, gens[l], tr, t0, end)
		}(l)
	}
	wg.Wait()
	// Achieved rate: the records of the requests due in the window over
	// the time until the last of them was acked.
	windowRecords, lastAck := 0, t0
	for l := range ops {
		for _, o := range ops[l] {
			if !o.read {
				windowRecords += o.res.Accepted
				if o.done.After(lastAck) {
					lastAck = o.done
				}
			}
		}
	}
	goEnd, cpu := readGoStats(), cpuTime()-cpu0
	if err := ctx.Err(); err != nil {
		close(lagStop)
		<-lagDone
		return err
	}

	// Untimed drain: both leaves to the same epoch boundary, so every
	// generated record reaches the root's verdict.
	batches := 0
	for l := range ops {
		if nb := ingestCount(ops[l]); nb > batches {
			batches = nb
		}
	}
	batches = (batches + faninBatchesPerEpoch - 1) / faninBatchesPerEpoch * faninBatchesPerEpoch
	buf := make([]byte, 0, 4096)
	for l := range ops {
		for nb := ingestCount(ops[l]); nb < batches; nb++ {
			o := op{due: time.Now()}
			o.sent = o.due
			buf = post(clients[l], ft.leafSrv[l].url, gens[l].batch(), buf, tr, &o)
			ops[l] = append(ops[l], o)
		}
	}
	epochs := batches / faninBatchesPerEpoch
	settled := waitFor(30*time.Second, func() bool { return ft.root.Status().Epochs >= epochs })
	close(lagStop)
	maxLag := <-lagDone

	// End-to-end metrics over the window.
	var acks, reads []float64
	for l := range ops {
		for i := range ops[l] {
			o := &ops[l][i]
			if !o.due.Before(end) {
				continue
			}
			res.Attempted++
			if !o.ok {
				res.Failed++
				continue
			}
			if o.read {
				reads = append(reads, ms(o.latency()))
			} else {
				acks = append(acks, ms(o.latency()))
			}
		}
	}
	res.Metrics["records_per_s"] = float64(windowRecords) / lastAck.Sub(t0).Seconds()
	res.Metrics["cpu_us_per_record"] = float64(cpu.Microseconds()) / float64(windowRecords)
	res.Extra["ack_p50_ms"] = percentile(acks, 0.5)
	res.Extra["ack_p90_ms"] = percentile(acks, 0.9)
	res.Extra["ack_p99_ms"] = percentile(acks, 0.99)
	res.Extra["read_p99_ms"] = percentile(reads, 0.99)
	res.Extra["offered_records_per_s"] = faninRate
	res.Extra["ack_samples"] = float64(len(acks))
	res.Extra["read_samples"] = float64(len(reads))

	// Verdict latency: epoch e's last record rides in each leaf's
	// (128e)-th ingest request; the later-due of the two starts the clock.
	var verdicts []float64
	idx := [][]int{ingestIndex(ops[0]), ingestIndex(ops[1])}
	for e := 1; e <= epochs; e++ {
		k := e*faninBatchesPerEpoch - 1
		a, b := &ops[0][idx[0][k]], &ops[1][idx[1][k]]
		due := a.due
		if b.due.After(due) {
			due = b.due
		}
		served, ok := ft.served.at(e)
		if !ok || !due.Before(end) {
			continue
		}
		verdicts = append(verdicts, ms(served.Sub(due)))
	}
	res.Extra["verdict_p50_ms"] = percentile(verdicts, 0.5)
	res.Extra["verdict_p90_ms"] = percentile(verdicts, 0.9)
	res.Extra["close_growth"] = growth(verdicts)
	res.Extra["verdict_samples"] = float64(len(verdicts))
	if rss, err := peakRSSMB(); err == nil {
		res.Metrics["peak_rss_mb"] = rss
	}

	// Correctness gate.
	table := measure.NewMeasurements(2*epochs, n.NumPaths())
	var total int64
	for l, g := range gens {
		for t := 0; t < table.Intervals(); t++ {
			for p := 0; p < n.NumPaths(); p++ {
				table.Add(t, graph.PathID(p), g.table.Sent[t][p], g.table.Lost[t][p])
			}
		}
		acked := 0
		for _, o := range ops[l] {
			acked += o.res.Accepted
		}
		total += int64(acked)
		if st := ft.leaves[l].Status(); st.Records != int64(acked) {
			res.fail("leaf %d holds %d records, the client saw %d acked", l, st.Records, acked)
		}
	}
	rs := ft.root.Status()
	switch {
	case !settled:
		res.fail("root settled at epoch %d, leaves closed %d", rs.Epochs, epochs)
	case rs.Gaps != 0:
		res.fail("root saw %d report gaps", rs.Gaps)
	default:
		if err := checkServed(ft.root.VerdictJSON(), n, table, total); err != nil {
			res.fail("root verdict: %v", err)
		}
	}
	res.check("fanin: %d epochs, %d records, root verdict checked against batch inference", epochs, total)

	if !cfg.Trace {
		stopped = true
		return ft.stop()
	}

	// Traced: per-layer metrics.
	m := res.Metrics
	m["gen.late_p99_ms"] = genLate(ops, end)
	m["serve.close.growth"] = res.Extra["close_growth"]
	goDelta(g0, goEnd, m, float64(windowRecords))
	httpIngest := tr.durations("serve.http.ingest")
	httpRead := tr.durations("serve.http.read")
	deliver := tr.durations("serve.root.deliver")
	m["serve.http.ingest_p50_ms"] = percentile(httpIngest, 0.5)
	m["serve.http.ingest_p99_ms"] = percentile(httpIngest, 0.99)
	m["serve.http.read_p99_ms"] = percentile(httpRead, 0.99)
	m["serve.root.deliver_p50_ms"] = percentile(deliver, 0.5)
	m["serve.root.deliver_p90_ms"] = percentile(deliver, 0.9)
	m["serve.root.fold_lag_epochs_max"] = float64(maxLag)
	m["serve.root.gaps"] = float64(rs.Gaps)
	busy := int64(0)
	for _, l := range ft.leaves {
		busy += l.Status().RejectsBusy
	}
	m["serve.ingest.busy_rejects"] = float64(busy)
	var posts, failed int64
	for _, st := range ft.ship {
		posts += st.posts.Load()
		failed += st.failed.Load()
	}
	m["serve.ship.posts"] = float64(posts)
	m["serve.ship.failed"] = float64(failed)
	shipPosts := tr.durations("serve.ship.post")
	if len(shipPosts) > 0 {
		m["serve.ship.post_ms"] = sum(shipPosts) / float64(len(shipPosts))
	}
	stopped = true
	if err := ft.stop(); err != nil {
		return err
	}
	var disk int64
	for l := range ft.leaves {
		b, err := dirBytes(filepath.Join(ft.dir, fmt.Sprintf("leaf-%d", l)))
		if err != nil {
			return err
		}
		disk += b
	}
	m["serve.journal.bytes_per_record"] = float64(disk) / float64(total)
	m["serve.journal.disk_mb_end"] = float64(disk) / (1 << 20)

	// Direct-call pass: the same batches, in the same order, into twins.
	var passes []*twinPass
	for l := 0; l < faninLeaves; l++ {
		g := newFaninGen(cfg.Seed, l, n.NumPaths(), states)
		left := batches
		tp, err := runTwins(n, leafConfig(n, l), filepath.Join(cfg.Dir, fmt.Sprintf("twin-%d", l)), func() []measure.StreamRecord {
			if left == 0 {
				return nil
			}
			left--
			return g.batch()
		}, faninShadow, cfg.Inject.Observer, tr)
		if err != nil {
			return err
		}
		passes = append(passes, tp)
	}
	tl := addTwins(passes...)
	tl.fill(m)
	m["serve.http.self_us_per_record"] = 1000 * (sum(httpIngest) - tl.durTotal) / float64(tl.records)

	clientReq := sum(tr.durations("client.request"))
	shipPost := sum(shipPosts)
	rows := []ledgerRow{
		{Layer: "client.queue", SelfMs: sum(tr.durations("gen.wait"))},
		{Layer: "client", SelfMs: sum(tr.durations("client.encode"))},
		{Layer: "serve.http", SelfMs: sum(httpIngest) - tl.durTotal + sum(httpRead)},
	}
	rows = append(rows, tl.rows()...)
	rows = append(rows,
		ledgerRow{Layer: "serve.ship", SelfMs: shipPost - sum(deliver)},
		ledgerRow{Layer: "serve.root", SelfMs: sum(deliver)},
	)
	res.Ledger = newLedger("sum of client request and report-shipping spans", clientReq+shipPost, rows, tr.count(), spanCost())
	res.tracer = tr
	return nil
}

// faninConn is one leaf connection's open loop: request slots every
// faninSlot from t0 until end, every faninReadEvery-th slot a dashboard
// read (alternating root verdict and leaf status), the rest ingest
// batches. Each request is timed from its due time.
func faninConn(ctx context.Context, c *http.Client, leafURL, rootURL string, g *faninGen, tr *tracer, t0, end time.Time) []op {
	ops := make([]op, 0, int(end.Sub(t0)/faninSlot)+1)
	buf := make([]byte, 0, 4096)
	for k := 0; ctx.Err() == nil; k++ {
		due := t0.Add(time.Duration(k) * faninSlot)
		if !due.Before(end) {
			break
		}
		sleepUntil(due)
		o := op{due: due, sent: time.Now()}
		if k%faninReadEvery == faninReadEvery-1 {
			url := leafURL + "/v1/status"
			if (k/faninReadEvery)%2 == 0 {
				url = rootURL + "/v1/verdict"
			}
			get(c, url, tr, &o)
		} else {
			buf = post(c, leafURL, g.batch(), buf, tr, &o)
		}
		ops = append(ops, o)
	}
	return ops
}

func ingestCount(ops []op) int {
	n := 0
	for _, o := range ops {
		if !o.read {
			n++
		}
	}
	return n
}

// ingestIndex maps the k-th ingest request to its index in ops.
func ingestIndex(ops []op) []int {
	var idx []int
	for i, o := range ops {
		if !o.read {
			idx = append(idx, i)
		}
	}
	return idx
}

// genLate is the 99th percentile of how late the generator sent.
func genLate(ops [][]op, end time.Time) float64 {
	var late []float64
	for _, os := range ops {
		for _, o := range os {
			if o.due.Before(end) {
				late = append(late, ms(o.sent.Sub(o.due)))
			}
		}
	}
	return percentile(late, 0.99)
}

// growth is the median of the last tenth of xs (in order) over the
// median of the first tenth.
func growth(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	k := len(xs) / 10
	if k < 1 {
		k = 1
	}
	first := median(xs[:k])
	if first <= 0 {
		return 0
	}
	return median(xs[len(xs)-k:]) / first
}

// sleepUntil blocks until t. The Go timer wakes an idle process on a
// millisecond grid, which would make the open loop send up to a
// millisecond late; nanosleep holds the thread but wakes on time.
func sleepUntil(t time.Time) {
	if wait := time.Until(t); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}
