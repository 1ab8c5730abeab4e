// Package errkind is the error taxonomy behind the CLI's exit codes
// and the services' HTTP statuses. Callers branch on *why* an
// operation failed without parsing message strings: every package
// tags its errors with one of these kinds, matchable with errors.Is
// through any amount of wrapping.
//
//   - Validation: the inputs or artifacts disagree with the spec — a
//     malformed measurement or stream record, a fingerprint mismatch,
//     a corrupt manifest, a directory already in use. Rerunning the
//     same invocation cannot succeed (exit code 3, HTTP 400).
//   - Corrupt: bytes on disk or on the wire disagree with their
//     recorded checksums. It refines Validation — errors.Is(err,
//     Validation) also holds — but is separately matchable, so an
//     orchestrator can repair (every sweep record is re-derivable from
//     its seed) instead of failing.
//   - Incomplete: the artifacts are valid but the work is unfinished —
//     an unfinished partition, a coverage gap, a timed-out cell.
//     Rerunning (typically with -resume) can succeed (exit code 4).
//
// Untagged errors are environmental (I/O, cancellation mid-flight).
package errkind

import (
	"errors"
	"fmt"
)

var (
	// Validation tags spec, input and artifact validation failures.
	Validation = errors.New("validation failure")
	// Corrupt tags artifact-corruption failures; it matches Validation.
	Corrupt = &tagged{msg: errors.New("artifact corruption"), kind: Validation}
	// Incomplete tags resumable-incomplete failures.
	Incomplete = errors.New("incomplete (resumable)")
)

// tagged carries a formatted message plus its kind; both sides of the
// pair participate in errors.Is/As chains.
type tagged struct {
	msg  error
	kind error
}

func (e *tagged) Error() string   { return e.msg.Error() }
func (e *tagged) Unwrap() []error { return []error{e.msg, e.kind} }

// Errorf builds an error tagged with kind whose message is the
// formatted text alone. %w verbs in format still work: the formatted
// error sits first in the unwrap list.
func Errorf(kind error, format string, args ...any) error {
	return &tagged{msg: fmt.Errorf(format, args...), kind: kind}
}
