package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"neutrality"
	"neutrality/internal/measure"
	"neutrality/internal/serve"
)

// cmdServe runs the streaming inference service: a long-running HTTP
// receiver that ingests measurement records (JSON lines of
// {source,seq,interval,path,sent,lost} over POST /v1/ingest), folds
// them into the measurement table online, closes an epoch on a record
// count (and optionally a wall-clock tick), re-runs the inference per
// epoch, and serves the latest verdict, per-epoch summaries, and
// operational counters over GET /v1/verdict, /v1/summary, /v1/status.
//
//	neutrality serve -net figure4 -addr :8090 -dir /var/lib/nserve
//
// With -dir the service journals every accepted record (checksummed
// framing across -journal-shards files, FORMAT.md); a restart with
// -resume replays the journal to byte-identical verdicts, and
// -compact-every N checkpoints the folded state into a hash-verified
// snapshot every N epochs and truncates the journals, bounding disk.
// Delivery is at-least-once and idempotent: per-source sequence
// numbers dedup retries (strictly in-order per source — a record below
// its source's high-water mark that was never seen is rejected as
// out-of-order so the sender can detect loss), and a full epoch buffer
// answers 429 + Retry-After rather than growing without bound.
//
// Scale-out runs as a two-level tree. Leaves ingest disjoint source
// populations and ship their closed epochs upstream:
//
//	neutrality serve -net figure4 -leaf vp-east -root-url http://root:8090
//
// The root folds the leaf reports and serves the tree-wide verdict —
// byte-identical to a single instance ingesting the union:
//
//	neutrality serve -net figure4 -root -leaves 2 -addr :8090 -dir /var/lib/nroot
//
// With -dir the root logs every accepted report before acking it, so a
// restart with -resume restores the per-leaf delivery marks and the
// fold — running leaves just keep shipping. Without -dir a root
// restart requires restarting every leaf from empty state (leaves drop
// reports once acked).
func cmdServe(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	netName := fs.String("net", "figure4", "serving topology name")
	addr := fs.String("addr", "127.0.0.1:8090", "listen address for the ingest protocol")
	dir := fs.String("dir", "", "durable state directory: the ingest journal, or the report log in -root mode (empty = in-memory only)")
	resume := fs.Bool("resume", false, "adopt an existing journal or root log in -dir (replays to byte-identical state)")
	epochRecords := fs.Int("epoch-records", 4096, "close an epoch after this many accepted records (0 = wall-clock only)")
	epochInterval := fs.Duration("epoch-interval", 0, "also close a non-empty epoch on this wall-clock period (0 = disabled)")
	maxPending := fs.Int("max-pending", 0, "open-epoch buffer cap before 429 backpressure (0 = epoch-records, or 65536 when count-close is off)")
	journalShards := fs.Int("journal-shards", 1, "partition the journal into this many files by source hash")
	compactEvery := fs.Int("compact-every", 0, "snapshot + truncate the journal every N epochs (0 = never)")
	leaf := fs.String("leaf", "", "run as a named leaf: queue closed-epoch reports for a root")
	rootURL := fs.String("root-url", "", "ship queued epoch reports to this root (requires -leaf)")
	root := fs.Bool("root", false, "run as an aggregation root folding leaf epoch reports (POST /v1/epoch)")
	leaves := fs.Int("leaves", 0, "expected leaf count in -root mode (an epoch folds when every leaf delivered it)")
	seed := fs.Int64("seed", 1, "measurement-processing seed")
	lossThreshold := fs.Float64("loss-threshold", 0.01, "per-interval loss fraction counted as congestion")
	quiet := fs.Bool("quiet", false, "suppress the epoch log on stderr")
	fs.Parse(args)

	n, _ := pick(*netName)
	opts := neutrality.DefaultMeasureOptions()
	opts.Seed = *seed
	opts.LossThreshold = *lossThreshold

	if *root {
		cmdServeRoot(ctx, n, *netName, *leaves, *addr, *dir, *resume, opts)
		return
	}
	if *rootURL != "" && *leaf == "" {
		log.Fatal("-root-url requires -leaf (the leaf's name in the tree)")
	}

	svc, err := serve.New(serve.Config{
		Net: n, NetName: *netName, Opts: opts,
		EpochRecords: *epochRecords, MaxPending: *maxPending,
		Dir: *dir, Resume: *resume,
		JournalShards: *journalShards, CompactEvery: *compactEvery,
		Leaf: *leaf,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	h := serve.NewServer(svc)
	h.EpochInterval = *epochInterval
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	defer srv.Close()
	st := svc.Status()
	fmt.Fprintf(os.Stderr, "serve %s: %d paths, listening on %s (resumed: %d records, %d epochs)\n",
		*netName, n.NumPaths(), ln.Addr(), st.Records, st.Epochs)
	fmt.Fprintf(os.Stderr, "ingest with: curl --data-binary @records.jsonl http://%s/v1/ingest\n", ln.Addr())

	shipDone := make(chan error, 1)
	if *rootURL != "" {
		sh := &serve.Shipper{S: svc, URL: *rootURL}
		go func() { shipDone <- sh.Run(ctx) }()
		fmt.Fprintf(os.Stderr, "leaf %q shipping epoch reports to %s\n", *leaf, *rootURL)
	}

	if *epochInterval > 0 {
		go func() {
			t := time.NewTicker(*epochInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				if closed, err := svc.CloseEpoch(); err != nil {
					log.Printf("epoch close: %v", err)
				} else if closed && !*quiet {
					st := svc.Status()
					fmt.Fprintf(os.Stderr, "epoch %d closed at %d records (%.1f ms inference)\n",
						st.Epochs, st.Records, st.LastInferMillis)
				}
			}
		}()
	}

	select {
	case <-ctx.Done():
	case err := <-shipDone:
		// The shipper only returns early on a permanent rejection: the
		// root refused a report as invalid, so shipping cannot proceed.
		if err != nil {
			fatal(err)
		}
	}
	// Graceful shutdown: stop taking requests, flush the open epoch into
	// a verdict, then checkpoint the journal so a -resume restart
	// replays everything.
	shutdown(srv)
	if _, err := svc.CloseEpoch(); err != nil {
		fatal(err)
	}
	if err := svc.Close(); err != nil {
		fatal(err)
	}
	st = svc.Status()
	fmt.Fprintf(os.Stderr, "\nserve stopped cleanly: %d records, %d epochs, %d duplicates dropped\n",
		st.Records, st.Epochs, st.Duplicates)
}

// cmdServeRoot runs the aggregation root: it accepts sealed leaf epoch
// reports (POST /v1/epoch, idempotent per-leaf in-order delivery),
// folds complete tree epochs in canonical leaf order, and serves the
// tree-wide verdict. With -dir every accepted report is logged before
// it is acked, and a -resume restart replays the log to the exact
// pre-restart marks and fold; without it, a root restart requires a
// full-tree restart from empty state.
func cmdServeRoot(ctx context.Context, n *neutrality.Network, netName string, leaves int, addr, dir string, resume bool, opts measure.Options) {
	r, err := serve.NewRoot(serve.RootConfig{
		Net: n, NetName: netName, Leaves: leaves, Opts: opts,
		Dir: dir, Resume: resume,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: serve.NewRootServer(r)}
	go srv.Serve(ln)
	defer srv.Close()
	st := r.Status()
	fmt.Fprintf(os.Stderr, "serve root %s: %d paths, expecting %d leaves, listening on %s (resumed: %d records, %d epochs)\n",
		netName, n.NumPaths(), leaves, ln.Addr(), st.Records, st.Epochs)

	<-ctx.Done()
	shutdown(srv)
	if err := r.Close(); err != nil {
		fatal(err)
	}
	st = r.Status()
	fmt.Fprintf(os.Stderr, "\nroot stopped: %d records over %d epochs from %d leaves (%d duplicate deliveries)\n",
		st.Records, st.Epochs, st.Leaves, st.Duplicates)
}

// shutdownGrace bounds how long shutdown waits for in-flight requests.
const shutdownGrace = 5 * time.Second

// shutdown stops the listener and waits, up to shutdownGrace, for
// in-flight requests to finish, so the final close and checkpoint see
// every request that was acknowledged.
func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
}
