package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"neutrality/internal/fleet"
)

// cmdFleet dispatches the fleet-mode subcommands: a fault-tolerant
// orchestrator over the distributed sweep path.
//
//	neutrality fleet serve -demo -out merged -addr :8080 -parts 8
//	neutrality fleet work  -addr http://host:8080 -dir /scratch/w1
//
// `serve` owns the grid's partition assignments and hands them to
// workers under time-bounded leases; `work` pulls assignments, runs
// them as resumable sweep partitions, heartbeats its frontier, uploads
// each finished partition to the server (staged at <out>.staging) and
// completes it. Dead workers' leases
// expire and re-dispatch with backoff; stragglers are speculatively
// re-issued (first completion wins; the copies are byte-identical by
// construction). The commit repairs any damaged staged copy and merges
// the single-run directory into -out, byte-identical to `sweep`; the
// workers need no filesystem shared with the server. `serve` exits
// once every worker that held a lease has been told the outcome,
// waiting at most one lease TTL for them.
func cmdFleet(ctx context.Context, args []string) {
	if len(args) < 1 {
		log.Print("usage: neutrality fleet serve|work [flags]")
		os.Exit(exitUsage)
	}
	switch args[0] {
	case "serve":
		cmdFleetServe(ctx, args[1:])
	case "work":
		cmdFleetWork(ctx, args[1:])
	default:
		log.Printf("unknown fleet subcommand %q (try: serve, work)", args[0])
		os.Exit(exitUsage)
	}
}

func cmdFleetServe(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("fleet serve", flag.ExitOnError)
	gridFile := fs.String("grid", "", "grid spec JSON file (workers fetch it from the server)")
	demo := fs.Bool("demo", false, "use the built-in demonstration grid")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address for the fleet protocol")
	out := fs.String("out", "", "merged output directory (required); worker uploads are staged at <out>.staging")
	parts := fs.Int("parts", 8, "number of partitions to split the grid into")
	shards := fs.Int("shards", 1, "output shards per the sweep layout")
	seed := fs.Int64("seed", 1, "base seed")
	lease := fs.Duration("lease", 15*time.Second, "assignment lease TTL; missed heartbeats past it re-dispatch the partition")
	speculate := fs.Duration("speculate-after", 0, "re-issue a still-leased partition to an idle worker after this long (0 = 2x lease, negative disables)")
	maxAttempts := fs.Int("max-attempts", 20, "fail the fleet when one partition burns this many dispatches (0 = unlimited)")
	quiet := fs.Bool("quiet", false, "suppress the progress meter on stderr")
	fs.Parse(args)

	g := loadGrid(*demo, *gridFile)
	if *out == "" {
		log.Print("-out is required")
		os.Exit(exitUsage)
	}
	o, err := fleet.New(g, fleet.Config{
		Out: *out, Parts: *parts, Shards: *shards, BaseSeed: *seed,
		Lease: *lease, SpeculateAfter: *speculate, MaxAttempts: *maxAttempts,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: fleet.NewServer(o)}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "fleet %s: %d cells in %d partitions, serving on %s\n",
		g.Name, g.Cells(), *parts, ln.Addr())
	fmt.Fprintf(os.Stderr, "start workers with: neutrality fleet work -addr http://%s -dir DIR\n", ln.Addr())

	if !*quiet {
		go func() {
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				st := o.Status()
				fmt.Fprintf(os.Stderr, "\r%d/%d partitions, %d/%d cells", st.DoneParts, st.Parts, st.DoneCells, st.Cells)
			}
		}()
	}

	if err := o.Wait(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			// Interrupted mid-fleet: the workers' checkpoints survive; a
			// restarted serve re-dispatches and salvage picks them up.
			fatalResumable(fmt.Errorf("fleet interrupted (restart serve and workers to continue): %w", err))
		}
		o.AwaitWorkers(ctx)
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	res, err := o.Commit(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "merged %d cells into %s\n", res.Cells, *out)
	fmt.Print(res.Summary)
	// A worker that finds the port closed retries forever.
	o.AwaitWorkers(ctx)
}

func cmdFleetWork(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("fleet work", flag.ExitOnError)
	addr := fs.String("addr", "", "fleet server base URL, e.g. http://host:8080 (required)")
	id := fs.String("id", "", "worker name in server status (default: worker-<pid>)")
	dir := fs.String("dir", "", "working directory root for partition checkpoints (required)")
	workers := fs.Int("workers", 0, "parallel sweep workers per partition (0 = one per CPU)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell watchdog; a cell over this deadline fails resumably (0 = none)")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle re-acquire interval")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "lease-extension interval (keep well under the server's -lease)")
	quiet := fs.Bool("quiet", false, "suppress the progress meter on stderr")
	fs.Parse(args)

	if *addr == "" || *dir == "" {
		log.Print("fleet work needs -addr and -dir")
		os.Exit(exitUsage)
	}
	cl := &fleet.Client{Base: *addr}
	g, _, _, err := cl.FetchSpec(ctx)
	if err != nil {
		fatal(fmt.Errorf("fetching the fleet spec from %s: %w", *addr, err))
	}
	fmt.Fprintf(os.Stderr, "fleet %s: %d cells, working under %s\n", g.Name, g.Cells(), *dir)

	opt := fleet.WorkerOptions{
		ID: *id, Workers: *workers, Dir: *dir,
		CellTimeout: *cellTimeout, Poll: *poll, Heartbeat: *heartbeat,
	}
	if !*quiet {
		opt.Progress = func(cell int) {
			fmt.Fprintf(os.Stderr, "\rcell %d done", cell)
		}
	}
	if err := fleet.Work(ctx, g, cl, opt); err != nil {
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		if errors.Is(err, context.Canceled) {
			fatalResumable(fmt.Errorf("worker interrupted (checkpoints under %s survive; restart to continue): %w", *dir, err))
		}
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintln(os.Stderr, "fleet complete; this worker is done")
}
