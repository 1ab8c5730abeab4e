package main

import (
	"errors"
	"log"
	"os"

	"neutrality/internal/measure"
	"neutrality/internal/sweep"
)

// Exit codes. Orchestration scripts around the sweep/merge/fleet
// subcommands branch on these instead of parsing stderr:
//
//	0  success
//	1  fatal error (environment, I/O, cancellation without a checkpoint)
//	2  usage error (bad flags; emitted by flag.ExitOnError)
//	3  validation failure — the inputs or artifacts disagree with the
//	   spec (fingerprint mismatch, corrupt manifest, overlapping
//	   partitions); rerunning the same invocation cannot succeed
//	4  resumable incomplete — the on-disk state is valid but unfinished
//	   (interrupted sweep with a checkpoint, timed-out cell, coverage
//	   gap); rerun with -resume (or re-merge once partitions finish)
const (
	exitFatal      = 1
	exitUsage      = 2
	exitValidation = 3
	exitIncomplete = 4
)

// classify maps an error to its exit code via the sweep error kinds.
func classify(err error) int {
	switch {
	case errors.Is(err, sweep.ErrValidation),
		errors.Is(err, measure.ErrValidation):
		return exitValidation
	case errors.Is(err, sweep.ErrIncomplete):
		return exitIncomplete
	}
	return exitFatal
}

// fatal logs the error and exits with its classified code.
func fatal(err error) {
	log.Print(err)
	os.Exit(classify(err))
}

// fatalResumable logs the error and exits resumable-incomplete — for
// conditions the kind tags cannot see, like an interrupt that left a
// valid checkpoint behind.
func fatalResumable(err error) {
	log.Print(err)
	os.Exit(exitIncomplete)
}
