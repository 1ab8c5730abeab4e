package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"neutrality/internal/sweep"
)

// cmdVerify scrubs sweep directories against their spec: the manifest,
// every shard's SHA-256 content hash, and every record's CRC frame.
//
//	neutrality verify -grid spec.json dir1 [dir2 ...]     # read-only scrub
//	neutrality verify -demo -repair dir                   # re-derive damage
//
// Without -repair the command mutates nothing and exits 3 (validation
// failure) when any directory is damaged — corruption is a property of
// the artifacts, and rerunning the same invocation cannot succeed.
// With -repair, damaged records are re-derived from their seeds
// through the ordinary per-cell executor and spliced back, so the
// repaired directory is byte-identical to an uncorrupted run; the
// directories are then re-verified.
func cmdVerify(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	gridFile := fs.String("grid", "", "grid spec JSON file the directories were recorded for")
	demo := fs.Bool("demo", false, "use the built-in demonstration grid")
	repair := fs.Bool("repair", false, "re-derive damaged cells from their seeds and splice them back in place")
	workers := fs.Int("workers", 0, "parallel workers for -repair re-derivation (0 = one per CPU)")
	fs.Parse(args)
	dirs := fs.Args()
	if len(dirs) == 0 {
		log.Print("verify needs at least one sweep directory")
		os.Exit(exitUsage)
	}
	g := loadGrid(*demo, *gridFile)

	var firstErr error
	for _, dir := range dirs {
		rep, err := sweep.Verify(g, dir)
		if err != nil {
			// No verifiable identity (destroyed/corrupt manifest, wrong
			// spec). Repair cannot proceed either: rebuilding a manifest
			// needs the partition identity, which only an orchestrator
			// holds. Report and classify.
			fatal(err)
		}
		if rep.Clean {
			records := 0
			for _, s := range rep.Shards {
				records += s.Records
			}
			fmt.Printf("%s: clean (%d records in %d shards, frontier %d/%d)\n",
				dir, records, len(rep.Shards), rep.Info.Completed, rep.Info.Range.Len())
			continue
		}
		for _, s := range rep.Shards {
			if len(s.Quarantine) == 0 && s.HashOK {
				continue
			}
			switch {
			case s.Missing:
				fmt.Printf("%s: shard %d missing (%d cells quarantined)\n", dir, s.Shard, len(s.Quarantine))
			default:
				fmt.Printf("%s: shard %d damaged (hash ok=%v, %d cells quarantined, %d tail bytes)\n",
					dir, s.Shard, s.HashOK, len(s.Quarantine), s.TailBytes)
			}
		}
		if !*repair {
			if firstErr == nil {
				firstErr = rep.Err()
			}
			log.Print(rep.Err())
			continue
		}
		fixed, err := sweep.Repair(ctx, g, dir, sweep.RepairOptions{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		again, err := sweep.Verify(g, dir)
		if err != nil {
			fatal(err)
		}
		if !again.Clean {
			fatal(fmt.Errorf("%s: still damaged after repair: %w", dir, again.Err()))
		}
		fmt.Printf("%s: repaired (%d cells re-derived, frontier %d/%d, verified clean)\n",
			dir, len(fixed.Repaired), fixed.Completed, fixed.Range.Len())
	}
	if firstErr != nil {
		os.Exit(classify(firstErr))
	}
}
