// Command neutrality is the CLI front end of the library: it emulates
// workloads on the built-in topologies, runs the inference algorithm on
// the resulting (or synthetic) observations, and prints the theory view of
// a topology.
//
// Usage:
//
//	neutrality topo    -net figure1|figure2|figure4|figure5|a|b
//	neutrality theory  -net ... [-nonneutral l1,l2]
//	neutrality emulate -net a|b [-diff police|shape|none] [-rate 0.3]
//	                   [-duration 90] [-scale 0.1] [-seed 1]
//	                   [-runs 1] [-workers 0]
//	neutrality infer   -net ... [-gap 0.5] [-intervals 6000] [-seed 1]
//	neutrality sweep   -grid spec.json|-demo [-out dir] [-workers 0]
//	                   [-shards 1] [-seed 1] [-resume] [-print-spec]
//	                   [-partition k/n] [-cell-timeout 0]
//	neutrality merge   -grid spec.json|-demo -out dir part1 part2 ...
//	neutrality verify  -grid spec.json|-demo [-repair] dir1 [dir2 ...]
//	neutrality fleet   serve -grid spec.json|-demo -out dir [-addr ...]
//	                   [-parts 8] [-lease 15s] [-max-attempts 20]
//	neutrality fleet   work -addr URL -dir DIR [-workers 0]
//	                   [-cell-timeout 0] [-heartbeat 2s]
//	neutrality serve   -net ... [-addr :8090] [-dir DIR] [-resume]
//	                   [-epoch-records 4096] [-epoch-interval 0]
//	                   [-max-pending 0] [-journal-shards 1]
//	                   [-compact-every 0] [-seed 1] [-loss-threshold 0.01]
//	                   [-leaf NAME -root-url URL]
//	neutrality serve   -root -leaves N -net ... [-addr :8090]
//
// `emulate` runs packet-level TCP emulation and then inference; `infer`
// uses the fast synthetic substrate with a configurable violation gap;
// `sweep` executes a declarative scenario grid on the sweep
// orchestration engine (sharded JSONL records, online aggregation,
// resumable checkpoints — byte-identical for every -workers value);
// `merge` reconstitutes the single-run artifacts from `sweep
// -partition k/n` partition directories, byte-identically; `verify`
// scrubs a sweep directory's checksummed artifacts (per-record CRC
// frames, per-shard SHA-256) and with -repair re-derives damaged
// cells from their seeds, byte-identically; `fleet` runs the same
// distributed sweep fault-tolerantly — leased partition assignment,
// heartbeat-driven expiry with backoff, speculative re-dispatch of
// stragglers, checkpoint salvage, hash-verified uploads of every
// finished partition to the server's staging directory, and a
// self-healing commit that always writes the single-run bytes;
// `serve` is the streaming face of the inference — a long-running HTTP
// service that ingests measurement records (at-least-once, per-source
// sequence dedup), folds them into the measurement table online,
// re-runs the inference at epoch boundaries, and serves the latest
// verdict; with a journal directory it checkpoints every accepted
// record (across -journal-shards files, compacting into hash-verified
// snapshots every -compact-every epochs) and resumes to byte-identical
// state; `serve -leaf NAME -root-url URL` ships each closed epoch to an
// aggregation root, and `serve -root -leaves N` folds those reports
// into a tree-wide verdict byte-identical to a single instance
// ingesting the union.
// With -runs N > 1, emulate replicates the experiment N times with
// per-run seeds derived from (-seed, run index), fans the replicas out
// across a bounded worker pool (-workers, default one per CPU), and
// aggregates the verdicts; the output is identical for every -workers
// value.
//
// The sweep/merge/fleet commands exit with distinct codes so
// orchestration scripts can branch without parsing stderr: 0 success,
// 1 fatal, 2 usage, 3 validation failure (rerunning cannot succeed),
// 4 resumable incomplete (rerun with -resume / restart the fleet).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"neutrality"
	"neutrality/internal/lab"
	"neutrality/internal/measure"
	"neutrality/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("neutrality: ")
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "topo":
		cmdTopo(args)
	case "theory":
		cmdTheory(args)
	case "emulate":
		cmdEmulate(ctx, args)
	case "infer":
		cmdInfer(args)
	case "sweep":
		cmdSweep(ctx, args)
	case "merge":
		cmdMerge(args)
	case "verify":
		cmdVerify(ctx, args)
	case "fleet":
		cmdFleet(ctx, args)
	case "serve":
		cmdServe(ctx, args)
	case "help", "-h", "--help":
		usage()
	default:
		log.Fatalf("unknown command %q (try: topo, theory, emulate, infer, sweep, merge, verify, fleet, serve)", cmd)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: neutrality <command> [flags]

commands:
  topo     print a built-in topology (figure1|figure2|figure4|figure5|a|b)
  theory   observability and identifiability analysis of a topology
  emulate  run packet-level TCP emulation + inference (topologies a|b)
  infer    run inference on fast synthetic observations
  sweep    run a declarative scenario grid: sharded JSONL records,
           online aggregation, resumable checkpoints (-demo for the
           built-in 1,000-cell grid, -print-spec for the JSON format,
           -partition k/n for one range of a distributed run)
  merge    reconstitute the single-run artifacts from the partition
           directories of a distributed sweep, byte-identically
  verify   scrub sweep directories against their spec (per-record CRC
           frames, per-shard SHA-256); -repair re-derives damaged
           cells from their seeds, byte-identically
  fleet    fault-tolerant distributed sweep: 'serve' leases partitions
           to workers (expiry + backoff + speculative re-dispatch),
           'work' runs them as resumable checkpoints and uploads
           hash-verified shard files, which the server stages at
           <out>.staging; commit repairs damaged copies, is
           byte-identical to 'sweep' (no shared filesystem needed)
           and removes the staging
  serve    streaming inference service: POST /v1/ingest measurement
           records (JSON lines, gzip ok, idempotent via per-source
           seqs), epochs close on record count and/or wall clock,
           GET /v1/verdict|/v1/summary|/v1/status; -dir journals every
           record so -resume replays to byte-identical verdicts
           (-journal-shards partitions the journal by source,
           -compact-every snapshots + truncates to bound disk); scale
           out as a tree: -leaf NAME -root-url URL ships closed epochs
           to a 'serve -root -leaves N' aggregator whose verdict is
           byte-identical to one instance ingesting the union

exit codes (sweep/merge/verify/fleet/serve): 0 ok, 1 fatal, 2 usage,
  3 validation failure (incl. artifact corruption), 4 resumable incomplete

run 'neutrality <command> -h' for command flags`)
	os.Exit(2)
}

// pick returns the requested built-in network plus, when known, its
// differentiating links.
func pick(name string) (*neutrality.Network, []neutrality.LinkID) {
	switch strings.ToLower(name) {
	case "figure1", "fig1":
		n := neutrality.Figure1()
		l, _ := n.LinkByName("l1")
		return n, []neutrality.LinkID{l.ID}
	case "figure2", "fig2":
		n := neutrality.Figure2()
		l, _ := n.LinkByName("l1")
		return n, []neutrality.LinkID{l.ID}
	case "figure4", "fig4":
		n := neutrality.Figure4()
		l1, _ := n.LinkByName("l1")
		l2, _ := n.LinkByName("l2")
		return n, []neutrality.LinkID{l1.ID, l2.ID}
	case "figure5", "fig5":
		n := neutrality.Figure5()
		l, _ := n.LinkByName("l1")
		return n, []neutrality.LinkID{l.ID}
	case "a", "topoa":
		t := neutrality.NewTopologyA()
		return t.Net, []neutrality.LinkID{t.Shared}
	case "b", "topob":
		t := neutrality.NewTopologyB()
		return t.InferenceNet, t.Policers
	default:
		log.Fatalf("unknown topology %q", name)
		return nil, nil
	}
}

func cmdTopo(args []string) {
	fs := flag.NewFlagSet("topo", flag.ExitOnError)
	netName := fs.String("net", "figure4", "topology name")
	fs.Parse(args)
	n, diff := pick(*netName)
	fmt.Print(n.Describe())
	names := make([]string, len(diff))
	for i, l := range diff {
		names[i] = n.Link(l).Name
	}
	fmt.Printf("differentiating links in the standard scenario: %s\n", strings.Join(names, ", "))
}

func cmdTheory(args []string) {
	fs := flag.NewFlagSet("theory", flag.ExitOnError)
	netName := fs.String("net", "figure4", "topology name")
	nn := fs.String("nonneutral", "", "comma-separated link names to treat as non-neutral (default: scenario links)")
	fs.Parse(args)
	n, diff := pick(*netName)
	if *nn != "" {
		diff = nil
		for _, name := range strings.Split(*nn, ",") {
			l, ok := n.LinkByName(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("no link %q", name)
			}
			diff = append(diff, l.ID)
		}
	}

	ws := neutrality.ObservableStructural(n, diff)
	if len(ws) == 0 {
		fmt.Println("Theorem 1: violation NOT observable from external observations")
	} else {
		fmt.Println("Theorem 1: violation observable; witnesses:")
		for _, w := range ws {
			fmt.Printf("  %s (link %s, regulated class %d)\n", w.Name, n.Link(w.Link).Name, int(w.Class)+1)
		}
	}

	fmt.Println("\nnetwork slices (Algorithm 1 candidates):")
	for _, s := range neutrality.Slices(n) {
		status := "identifiable"
		if !s.Identifiable() {
			status = "too few path pairs"
		}
		fmt.Printf("  %-20s pairs=%d  %s\n", s.SeqNames(), len(s.Pairs), status)
	}
}

func cmdEmulate(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("emulate", flag.ExitOnError)
	netName := fs.String("net", "a", "topology: a or b")
	diffKind := fs.String("diff", "police", "differentiation on the standard links: police, shape, none")
	rate := fs.Float64("rate", 0.3, "policing/shaping rate (fraction of capacity)")
	duration := fs.Float64("duration", 90, "emulated seconds")
	scale := fs.Float64("scale", 0.1, "capacity scale (1.0 = paper's 100 Mbps)")
	seed := fs.Int64("seed", 1, "random seed (base seed with -runs > 1)")
	runs := fs.Int("runs", 1, "replicate the experiment this many times with derived seeds and aggregate verdicts")
	workers := fs.Int("workers", 0, "parallel workers for -runs replication (0 = one per CPU)")
	outFile := fs.String("out", "", "write raw measurements of the first run to this CSV file")
	fs.Parse(args)
	if *runs < 1 {
		log.Fatalf("-runs must be >= 1, got %d", *runs)
	}

	// runSeed keeps the single-run case byte-compatible with earlier
	// versions (the base seed itself); replicas get derived seeds.
	runSeed := func(i int) int64 {
		if *runs == 1 {
			return *seed
		}
		return runner.Seed(*seed, i)
	}

	var net *neutrality.Network
	var truth []neutrality.LinkID
	exps := make([]*neutrality.Experiment, *runs)
	switch strings.ToLower(*netName) {
	case "a", "topoa":
		for i := range exps {
			p := neutrality.DefaultParamsA().Scale(*scale, *duration)
			p.MeanFlowMb = [2]float64{20 * *scale, 20 * *scale}
			p.Seed = runSeed(i)
			switch *diffKind {
			case "police":
				p.Diff = neutrality.PoliceClass2(*rate)
			case "shape":
				p.Diff = neutrality.ShapeBothClasses(*rate)
			case "none":
			default:
				log.Fatalf("unknown -diff %q", *diffKind)
			}
			e, a := p.Experiment(fmt.Sprintf("cli-run%d", i))
			exps[i] = e
			net, truth = a.Net, []neutrality.LinkID{a.Shared}
		}
	case "b", "topob":
		for i := range exps {
			p := neutrality.DefaultParamsB().Scale(*scale, *duration)
			p.PoliceRate = *rate
			p.Seed = runSeed(i)
			e, b := p.Experiment(fmt.Sprintf("cli-run%d", i))
			exps[i] = e
			net, truth = b.InferenceNet, b.Policers
		}
	default:
		log.Fatalf("emulate supports topologies a and b, not %q", *netName)
	}

	results, err := lab.RunBatch(ctx, *workers, exps)
	if err != nil {
		log.Fatal(err)
	}
	saveCSV(*outFile, results[0].Meas)
	if *runs == 1 {
		report(net, results[0].Meas, truth)
		return
	}

	fmt.Printf("replicated %d runs (seeds derived from base seed %d)\n", *runs, *seed)
	detected := 0
	for i, run := range results {
		res := neutrality.InferMeasured(net, run.Meas, neutrality.DefaultMeasureOptions())
		m := neutrality.Evaluate(res, truth)
		verdict := "neutral"
		if res.NetworkNonNeutral() {
			verdict = "NON-NEUTRAL"
			detected++
		}
		fmt.Printf("  run %2d  seed=%-20d verdict=%-12s FN=%3.0f%% FP=%3.0f%% granularity=%.2f\n",
			i, exps[i].Seed, verdict, m.FalseNegativeRate*100, m.FalsePositiveRate*100, m.Granularity)
	}
	fmt.Printf("non-neutral verdicts: %d/%d\n", detected, *runs)
}

func report(n *neutrality.Network, meas *neutrality.Measurements, truth []neutrality.LinkID) {
	probs := neutrality.PathCongestionProb(meas, 0.01)
	fmt.Println("per-path congestion probability:")
	for i, pr := range probs {
		fmt.Printf("  %-6s class=c%d  %5.1f%%\n", n.Path(neutrality.PathID(i)).Name, int(n.ClassOf(neutrality.PathID(i)))+1, pr*100)
	}
	res := neutrality.InferMeasured(n, meas, neutrality.DefaultMeasureOptions())
	fmt.Print(neutrality.Report(res))
	m := neutrality.Evaluate(res, truth)
	fmt.Printf("vs ground truth: FN=%.0f%% FP=%.0f%% granularity=%.2f\n",
		m.FalseNegativeRate*100, m.FalsePositiveRate*100, m.Granularity)
}

func saveCSV(path string, m *neutrality.Measurements) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := m.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d intervals, %d paths)\n", path, m.Intervals(), m.NumPaths())
}

func cmdInfer(args []string) {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	netName := fs.String("net", "figure4", "topology name")
	gap := fs.Float64("gap", 0.5, "violation strength: extra −log P(cf) inflicted on class c2")
	intervals := fs.Int("intervals", 6000, "measurement intervals to simulate")
	seed := fs.Int64("seed", 1, "random seed")
	inFile := fs.String("in", "", "read raw measurements from this CSV file instead of simulating")
	fs.Parse(args)

	n, diff := pick(*netName)
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		meas, err := measure.ReadCSV(f)
		if err != nil {
			// A malformed CSV exits 3 (validation), not 1: rerunning the
			// same invocation cannot succeed.
			fatal(err)
		}
		if meas.NumPaths() != n.NumPaths() {
			log.Fatalf("measurements cover %d paths, topology %q has %d", meas.NumPaths(), *netName, n.NumPaths())
		}
		report(n, meas, diff)
		return
	}
	perf := neutrality.NewPerf(n.NumLinks(), n.NumClasses())
	for l := 0; l < n.NumLinks(); l++ {
		perf.SetNeutral(neutrality.LinkID(l), 0.01)
	}
	for _, l := range diff {
		perf.Set(l, neutrality.C1, 0.02)
		perf.Set(l, neutrality.C2, 0.02+*gap)
	}
	states := neutrality.NewSampler(n, perf, *seed).SampleIntervals(*intervals)
	meas := neutrality.SyntheticMeasurements(states, neutrality.DefaultSyntheticOptions())
	report(n, meas, diff)
}
