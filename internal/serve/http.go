package serve

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"neutrality/internal/errkind"
	"neutrality/internal/measure"
)

// HTTP face of the Service. The ingest protocol is JSON lines — one
// StreamRecord per line — because measurement senders are long-lived
// and append-shaped; a line-framed body lets them batch whatever they
// have without envelope bookkeeping. gzip request bodies are accepted
// (Content-Encoding: gzip) with the same bomb guard as the fleet's
// upload path.
//
// Lines are decoded as measure.DecodeStreamRecord decodes them: a line
// in the canonical shape (keys in field order, no whitespace, no
// escapes — what encoding/json writes for a plain source name) decodes
// without reflection, and any other valid JSON line is still accepted,
// with the values and errors encoding/json gives it.
//
//	POST /v1/ingest   JSON lines of StreamRecord → 200 IngestResult
//	                  400 on validation failure (nothing applied),
//	                  429 + Retry-After on backpressure (partial
//	                  batch kept; full retry is idempotent),
//	                  503 after Close (retry)
//	GET  /v1/verdict  latest EpochVerdict (canonical JSON)
//	GET  /v1/summary  per-epoch summary window (text/plain)
//	GET  /v1/status   operational counters (+ journal health when durable)
const maxIngestBytes = 16 << 20

// maxIngestLine caps one ingest line.
const maxIngestLine = 1 << 20

// ingestBuffers is one POST's reusable decode state, pooled so a POST
// allocates none of it: the line scanner's initial buffer, which a
// typical few-KB body never outgrows (a longer line grows the
// scanner's own buffer, up to the cap, and leaves this one as is), the
// decoded batch, which Service.Ingest copies from and does not keep
// (sized for a typical 256-line body),
// and the table of source names seen so far, so a record from a known
// source reuses its name's string. A batch grown past pooledRecs is
// not pooled, so one huge body does not pin its memory; the name table
// is bounded (measure.MaxSourceNames of at most
// measure.MaxSourceNameLen bytes) for the same reason.
type ingestBuffers struct {
	scan  []byte
	recs  []measure.StreamRecord
	names measure.SourceNames
}

const pooledRecs = 4096

var ingestPool = sync.Pool{New: func() any {
	return &ingestBuffers{scan: make([]byte, 64<<10), recs: make([]measure.StreamRecord, 0, 256)}
}}

// httpError is the ingest error envelope.
type httpError struct {
	Err string `json:"err"`
	Msg string `json:"msg"`
}

// Server exposes a Service over HTTP.
type Server struct {
	S   *Service
	mux *http.ServeMux
	// EpochInterval is the wall-clock epoch cadence when the service
	// closes epochs on a ticker (zero for count-based closing). It
	// drives the Retry-After answer on 429: with count-based closing
	// the buffer drains at the next boundary, so one second is an
	// honest hint; with a wall-clock cadence the drain is the tick.
	EpochInterval time.Duration
}

// NewServer builds the handler for a service.
func NewServer(s *Service) *Server {
	srv := &Server{S: s, mux: http.NewServeMux()}
	srv.mux.HandleFunc("POST /v1/ingest", srv.ingest)
	handleReads(srv.mux, &s.tally, func() any { return s.Status() })
	return srv
}

// handleReads registers the read endpoints a Server and a RootServer
// share: the verdict, the summary window, and the status counters.
func handleReads(mux *http.ServeMux, t *tally, status func() any) {
	mux.HandleFunc("GET /v1/verdict", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(t.VerdictJSON())
		w.Write([]byte("\n"))
	})
	mux.HandleFunc("GET /v1/summary", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, t.SummaryText())
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, status())
	})
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// retryAfterSeconds derives the 429 Retry-After from the epoch drain:
// the full wall-clock cadence when epochs close on a ticker, else one
// second (count-based closes drain the buffer at the next boundary).
func (s *Server) retryAfterSeconds() int {
	if s.EpochInterval > 0 {
		if secs := int(math.Ceil(s.EpochInterval.Seconds())); secs > 1 {
			return secs
		}
	}
	return 1
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) ingest(w http.ResponseWriter, r *http.Request) {
	body := io.Reader(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, httpError{Err: "validation", Msg: "bad gzip body: " + err.Error()})
			return
		}
		defer zr.Close()
		// Bound the decompressed size too: a gzip bomb must not bypass
		// the body cap.
		body = io.LimitReader(zr, maxIngestBytes+1)
	}

	bufs := ingestPool.Get().(*ingestBuffers)
	recs := bufs.recs[:0]
	defer func() {
		bufs.recs = nil
		if cap(recs) <= pooledRecs {
			clear(recs) // drop the source strings
			bufs.recs = recs[:0]
		}
		ingestPool.Put(bufs)
	}()
	var total int64
	sc := bufio.NewScanner(body)
	sc.Buffer(bufs.scan, maxIngestLine)
	for sc.Scan() {
		line := sc.Bytes()
		total += int64(len(line)) + 1
		if len(line) == 0 {
			continue
		}
		rec, err := bufs.names.Decode(line)
		if err != nil {
			// A body that does not parse is malformed input, same
			// taxonomy as a corrupt CSV: reject the whole batch.
			writeJSON(w, http.StatusBadRequest, httpError{Err: "validation", Msg: "record does not parse: " + err.Error()})
			return
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Err: "validation", Msg: "reading body: " + err.Error()})
		return
	}
	if total > maxIngestBytes {
		writeJSON(w, http.StatusBadRequest, httpError{Err: "validation", Msg: "body exceeds ingest limit"})
		return
	}

	res, err := s.S.Ingest(recs)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, ErrBusy):
		// Backpressure: the records already applied stay applied; the
		// sender retries the whole batch after the pause and the
		// sequence high-water marks drop what was already accepted.
		retry := s.retryAfterSeconds()
		pending := 0
		var busy *BusyError
		if errors.As(err, &busy) {
			pending = busy.Pending
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, struct {
			httpError
			IngestResult
			Pending        int `json:"pending"`
			RetryAfterSecs int `json:"retry_after_seconds"`
		}{httpError{Err: "busy", Msg: err.Error()}, res, pending, retry})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, httpError{Err: "closed", Msg: err.Error()})
	case errors.Is(err, errkind.Validation):
		writeJSON(w, http.StatusBadRequest, httpError{Err: "validation", Msg: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, httpError{Err: "internal", Msg: err.Error()})
	}
}
