package measure

import (
	"io"
	"unicode/utf8"

	"neutrality/internal/errkind"
)

// Measurement sources. The inference pipeline historically consumed
// exactly one input shape — a CSV file — but raw measurements arrive
// from more places than that: an in-memory synthetic run, a replayed
// artifact, or a long-running ingest service folding a record stream.
// Source abstracts over all of them: anything that can produce a
// validated Measurements table feeds the same inference entry points.

// Source supplies a raw measurement table to the inference pipeline.
type Source interface {
	// Measurements returns the full, validated table. Implementations
	// tag malformed input with errkind.Validation so callers (the CLI's
	// exit code 3, the services' HTTP 400) can distinguish bad data
	// from I/O failure.
	Measurements() (*Measurements, error)
}

// CSVSource reads the batch CSV interchange format (see ReadCSV).
type CSVSource struct{ R io.Reader }

// Measurements implements Source.
func (s CSVSource) Measurements() (*Measurements, error) { return ReadCSV(s.R) }

// MemSource serves an in-memory table (synthetic runs, tests).
type MemSource struct{ M *Measurements }

// Measurements implements Source. The table is validated on the way
// out so a hand-built table meets the same contract as a parsed one.
func (s MemSource) Measurements() (*Measurements, error) {
	if s.M == nil {
		return nil, errValidation("measure: nil measurement table")
	}
	if err := s.M.Validate(); err != nil {
		return nil, err
	}
	return s.M, nil
}

// errValidation builds an errkind.Validation-tagged error.
func errValidation(format string, args ...any) error {
	return errkind.Errorf(errkind.Validation, format, args...)
}

// StreamRecord is one streamed measurement observation: a single
// (interval, path) packet-count delta delivered by a measurement
// source. Sources number their deliveries with a per-source sequence
// so an at-least-once transport stays idempotent: a receiver keeps one
// high-water mark per source and drops any record at or below it.
type StreamRecord struct {
	// Source identifies the vantage point (non-empty, valid UTF-8).
	Source string `json:"source"`
	// Seq is the source's delivery sequence number, strictly increasing
	// per source (>= 1).
	Seq int64 `json:"seq"`
	// Interval is the measurement interval index the counts belong to.
	Interval int `json:"interval"`
	// Path is the path index within the serving topology.
	Path int `json:"path"`
	// Sent and Lost are the packet counts observed (0 <= Lost <= Sent).
	Sent int `json:"sent"`
	Lost int `json:"lost"`
}

// Validate checks one stream record against the receiving topology
// (paths) and the interval cap (maxIntervals, <= 0 for unlimited).
// Failures carry errkind.Validation — the same kind ReadCSV and every
// sweep spec check use — so an HTTP boundary can map them to 400 and
// the CLI to exit code 3.
func (r StreamRecord) Validate(paths, maxIntervals int) error {
	switch {
	case r.Source == "":
		return errValidation("measure: stream record without a source")
	case !utf8.ValidString(r.Source):
		// encoding/json would write the bad bytes as U+FFFD, so a
		// journaled record would not replay to itself.
		return errValidation("measure: source %q is not valid UTF-8", r.Source)
	case r.Seq <= 0:
		return errValidation("measure: source %q: sequence %d (must be >= 1)", r.Source, r.Seq)
	case r.Interval < 0:
		return errValidation("measure: source %q seq %d: negative interval %d", r.Source, r.Seq, r.Interval)
	case maxIntervals > 0 && r.Interval >= maxIntervals:
		return errValidation("measure: source %q seq %d: interval %d exceeds the cap %d", r.Source, r.Seq, r.Interval, maxIntervals)
	case r.Path < 0 || r.Path >= paths:
		return errValidation("measure: source %q seq %d: path %d outside topology of %d paths", r.Source, r.Seq, r.Path, paths)
	case r.Sent < 0 || r.Lost < 0:
		return errValidation("measure: source %q seq %d: negative count", r.Source, r.Seq)
	case r.Lost > r.Sent:
		return errValidation("measure: source %q seq %d: lost %d > sent %d", r.Source, r.Seq, r.Lost, r.Sent)
	}
	return nil
}
