package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"neutrality/internal/errkind"
	"neutrality/internal/grid"
	"neutrality/internal/sweep"
)

// loadGrid resolves the shared -demo/-grid flag pair of the sweep and
// merge subcommands into a validated grid spec.
func loadGrid(demo bool, gridFile string) *grid.Grid {
	var g *grid.Grid
	switch {
	case demo && gridFile != "":
		log.Fatal("pass either -demo or -grid, not both")
	case demo:
		g = sweep.DemoGrid()
	case gridFile != "":
		f, err := os.Open(gridFile)
		if err != nil {
			log.Fatal(err)
		}
		spec, err := grid.ParseJSON(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		g = spec
	default:
		log.Fatal("pass -grid FILE or -demo (and see sweep -print-spec)")
	}
	if err := sweep.Validate(g); err != nil {
		log.Fatal(err)
	}
	return g
}

// parsePartition parses a -partition k/n value strictly: any
// malformed or trailing input is rejected rather than silently
// running the wrong cell range of a fleet.
func parsePartition(s string) (sweep.Partition, error) {
	var p sweep.Partition
	if s == "" {
		return p, nil
	}
	ks, ns, ok := strings.Cut(s, "/")
	if ok {
		var errK, errN error
		p.K, errK = strconv.Atoi(ks)
		p.N, errN = strconv.Atoi(ns)
		ok = errK == nil && errN == nil && p.K >= 1 && p.N >= 1 && p.K <= p.N
	}
	if !ok {
		return sweep.Partition{}, fmt.Errorf("-partition must be k/n with 1 <= k <= n, got %q", s)
	}
	return p, nil
}

// cmdSweep runs a declarative scenario grid on the sweep orchestration
// engine: sharded JSONL records, online aggregation, resumable
// checkpoints.
//
//	neutrality sweep -demo -out DIR              # built-in 1,000-cell grid
//	neutrality sweep -grid spec.json -out DIR    # a declared grid
//	neutrality sweep -demo -print-spec           # emit the JSON spec
//	neutrality sweep -grid spec.json -out DIR -resume   # continue
//	neutrality sweep -grid spec.json -out DIR -partition 2/4  # one shard-aligned
//	                                             # cell range of a distributed run
//
// The summary on stdout and every artifact in -out are byte-identical
// for every -workers value; progress and timing go to stderr. A
// -partition k/n run covers one deterministic cell range of the grid;
// `neutrality merge` reconstitutes the single-run artifacts from the
// n partition directories.
func cmdSweep(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	gridFile := fs.String("grid", "", "grid spec JSON file (see -print-spec for the format)")
	demo := fs.Bool("demo", false, "use the built-in demonstration grid (policer rate x discrimination fraction x topology)")
	printSpec := fs.Bool("print-spec", false, "print the grid's JSON spec and exit (edit it, then pass via -grid)")
	out := fs.String("out", "", "sweep directory for shard JSONL files and the checkpoint manifest (empty = in-memory)")
	workers := fs.Int("workers", 0, "parallel workers (0 = one per CPU); never affects output bytes")
	shards := fs.Int("shards", 1, "output shards; cell i lands in shard i mod shards")
	seed := fs.Int64("seed", 1, "base seed; each cell derives its seed from (seed, cell)")
	resume := fs.Bool("resume", false, "resume an interrupted sweep in -out (validates the spec fingerprint)")
	partition := fs.String("partition", "", "run only partition k/n of the grid (e.g. 2/4): a deterministic shard-aligned cell range; merge the n directories with 'neutrality merge'")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell watchdog: a cell over this deadline aborts the sweep resumably (0 = none)")
	quiet := fs.Bool("quiet", false, "suppress the progress meter on stderr")
	fs.Parse(args)

	g := loadGrid(*demo, *gridFile)
	if *printSpec {
		os.Stdout.Write(g.MarshalCanonical())
		return
	}
	if *out == "" && *resume {
		log.Print("-resume needs -out")
		os.Exit(exitUsage)
	}
	part, err := parsePartition(*partition)
	if err != nil {
		log.Print(err)
		os.Exit(exitUsage)
	}

	total := g.Cells()
	fmt.Fprintf(os.Stderr, "sweep %s: %d cells (%d axes), scale=%g%%, %gs per cell, shards=%d\n",
		g.Name, total, len(g.Axes), g.Base.ScaleFactor*100, g.Base.DurationSec, *shards)
	opt := sweep.Options{
		Workers:     *workers,
		Shards:      *shards,
		BaseSeed:    *seed,
		Dir:         *out,
		Resume:      *resume,
		Partition:   part,
		CellTimeout: *cellTimeout,
	}
	if !*quiet {
		opt.Progress = func(done, total int) {
			if done%10 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, total)
			}
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	start := time.Now()
	res, err := sweep.Run(ctx, g, opt)
	if err != nil {
		resumable := *out != "" &&
			(errors.Is(err, context.Canceled) || errors.Is(err, errkind.Incomplete))
		if resumable {
			// An interruption or per-cell timeout leaves a valid
			// checkpoint; tell the operator how to go on. The hint
			// repeats every flag the resume validation will demand back
			// (spec, shards, seed, partition), so it works pasted
			// verbatim. Other failures (spec mismatch, directory
			// already in use, I/O) are not resumable as-is.
			flags := fmt.Sprintf(" -shards %d -seed %d", *shards, *seed)
			if *demo {
				flags = " -demo" + flags
			} else {
				flags = " -grid " + *gridFile + flags
			}
			if *partition != "" {
				flags += " -partition " + *partition
			}
			log.Printf("sweep stopped (resume with%s -resume -out %s)", flags, *out)
			fatalResumable(err)
		}
		fatal(err)
	}
	if !part.IsZero() {
		fmt.Fprintf(os.Stderr, "partition %s: cells [%d,%d) of %d\n", *partition, res.Range.Lo, res.Range.Hi, total)
	}
	elapsed := time.Since(start)
	executed := res.Total - res.Resumed
	if executed > 0 && elapsed > 0 {
		fmt.Fprintf(os.Stderr, "executed %d cells in %.1fs (%.1f cells/sec, %d resumed from checkpoint)\n",
			executed, elapsed.Seconds(), float64(executed)/elapsed.Seconds(), res.Resumed)
	}
	fmt.Print(res.Agg.Summary())
}
