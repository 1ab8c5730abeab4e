package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"neutrality/internal/sweep"
)

// cmdMerge reconstitutes a single-run sweep directory from partition
// directories produced by `sweep -partition k/n` runs of the same
// grid:
//
//	neutrality sweep -demo -out p1 -partition 1/4 -seed 1
//	…                                 (one process or machine each)
//	neutrality sweep -demo -out p4 -partition 4/4 -seed 1
//	neutrality merge -demo -out merged p1 p2 p3 p4
//
// Fingerprints, shard counts, and seeds are verified, ranges must be
// disjoint and complete (gaps and unfinished partitions are reported
// as resumable frontiers), and the merged manifest, shard files, and
// aggregate summary are byte-identical to a single-process run of the
// same grid, shards, and seed.
func cmdMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	gridFile := fs.String("grid", "", "grid spec JSON file the partitions were run from")
	demo := fs.Bool("demo", false, "use the built-in demonstration grid")
	out := fs.String("out", "", "output directory for the merged sweep (required)")
	fs.Parse(args)

	g := loadGrid(*demo, *gridFile)
	if *out == "" {
		log.Print("-out is required")
		os.Exit(exitUsage)
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		log.Print("pass the partition directories to merge as arguments")
		os.Exit(exitUsage)
	}

	start := time.Now()
	res, err := sweep.Merge(g, dirs, *out)
	if err != nil {
		// An unfinished partition or coverage gap exits
		// resumable-incomplete (4); spec mismatches exit validation (3).
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "merged %d partitions (%d cells) into %s in %.2fs\n",
		len(dirs), res.Total, *out, time.Since(start).Seconds())
	fmt.Print(res.Agg.Summary())
}
