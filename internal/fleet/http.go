package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"neutrality/internal/grid"
)

// HTTP transport. The orchestrator serves a small JSON protocol; the
// client implements Transport over it. A worker uploads its
// partition's artifacts and then completes, so the orchestrator holds
// every byte it merges and needs no filesystem shared with its
// workers.
//
//	GET  /v1/spec       → spec{grid, shards, base_seed, parts}
//	GET  /v1/status     → Status
//	POST /v1/acquire    {worker}          → envelope{assignment}
//	POST /v1/heartbeat  {lease, frontier} → envelope
//	POST /v1/complete   {lease, result}   → envelope
//	POST /v1/fail       {lease, reason}   → envelope
//	POST /v1/upload?lease=&name=&sum=     → envelope
//
// Uploads carry the raw artifact file gzip-compressed in the body
// (Content-Encoding: gzip); lease, file name, and the file's SHA-256
// travel in the query string. The server decompresses, verifies the
// hash, and stages the file — a mismatch answers upload_rejected and
// the worker retries, so shard shipping is full-fidelity end to end.
// Each artifact file (every shard of a partition, and its manifest) is
// bounded by maxBodyBytes after decompression; a larger one is refused
// and the worker fails the lease with the server's reason.
//
// Protocol sentinels travel as envelope.Err codes and are rebuilt into
// the same sentinel errors client-side, so workers cannot tell the
// transports apart.

const maxBodyBytes = 16 << 20 // per request body and per uploaded artifact

type wireSpec struct {
	Grid     json.RawMessage `json:"grid"`
	Shards   int             `json:"shards"`
	BaseSeed int64           `json:"base_seed"`
	Parts    int             `json:"parts"`
}

type envelope struct {
	Err        string      `json:"err,omitempty"`
	Msg        string      `json:"msg,omitempty"`
	Assignment *Assignment `json:"assignment,omitempty"`
}

// Sentinel ↔ wire code mapping.
var errCodes = []struct {
	code string
	err  error
}{
	{"no_work", ErrNoWork},
	{"done", ErrDone},
	{"stale", ErrStaleLease},
	{"superseded", ErrSuperseded},
	{"failed", ErrFleetFailed},
	{"upload_rejected", ErrUploadRejected},
}

func encodeErr(err error) (code, msg string) {
	for _, ec := range errCodes {
		if errors.Is(err, ec.err) {
			return ec.code, err.Error()
		}
	}
	return "bad_request", err.Error()
}

func decodeErr(e envelope) error {
	if e.Err == "" {
		return nil
	}
	for _, ec := range errCodes {
		if e.Err == ec.code {
			if e.Msg != "" && e.Msg != ec.err.Error() {
				return fmt.Errorf("%s: %w", e.Msg, ec.err)
			}
			return ec.err
		}
	}
	return fmt.Errorf("fleet: server rejected request: %s", e.Msg)
}

// Server exposes an Orchestrator over HTTP.
type Server struct {
	O   *Orchestrator
	mux *http.ServeMux
}

// NewServer builds the handler for an orchestrator.
func NewServer(o *Orchestrator) *Server {
	s := &Server{O: o, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v1/spec", s.spec)
	s.mux.HandleFunc("GET /v1/status", s.status)
	s.mux.HandleFunc("GET /v1/summary", s.summary)
	s.mux.HandleFunc("POST /v1/acquire", s.acquire)
	s.mux.HandleFunc("POST /v1/heartbeat", s.heartbeat)
	s.mux.HandleFunc("POST /v1/complete", s.complete)
	s.mux.HandleFunc("POST /v1/fail", s.fail)
	s.mux.HandleFunc("POST /v1/upload", s.upload)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeResult(w http.ResponseWriter, err error, a *Assignment) {
	if err == nil {
		writeJSON(w, http.StatusOK, envelope{Assignment: a})
		return
	}
	code, msg := encodeErr(err)
	status := http.StatusConflict
	if code == "bad_request" {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, envelope{Err: code, Msg: msg})
}

func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, envelope{Err: "bad_request", Msg: "malformed body: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) spec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wireSpec{
		Grid:     s.O.Grid().MarshalCanonical(),
		Shards:   s.O.Shards(),
		BaseSeed: s.O.BaseSeed(),
		Parts:    s.O.Parts(),
	})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.O.Status())
}

func (s *Server) summary(w http.ResponseWriter, r *http.Request) {
	ps, err := s.O.PartialSummary()
	if err != nil {
		code, msg := encodeErr(err)
		writeJSON(w, http.StatusConflict, envelope{Err: code, Msg: msg})
		return
	}
	writeJSON(w, http.StatusOK, ps)
}

func (s *Server) acquire(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
	}
	if !readBody(w, r, &req) {
		return
	}
	a, err := s.O.Acquire(req.Worker)
	writeResult(w, err, a)
}

func (s *Server) heartbeat(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Lease    int64 `json:"lease"`
		Frontier int   `json:"frontier"`
	}
	if !readBody(w, r, &req) {
		return
	}
	writeResult(w, s.O.Heartbeat(req.Lease, req.Frontier), nil)
}

func (s *Server) complete(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Lease  int64        `json:"lease"`
		Result WorkerResult `json:"result"`
	}
	if !readBody(w, r, &req) {
		return
	}
	writeResult(w, s.O.Complete(req.Lease, req.Result), nil)
}

func (s *Server) upload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lease, err := strconv.ParseInt(q.Get("lease"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, envelope{Err: "bad_request", Msg: "bad lease: " + err.Error()})
		return
	}
	body := io.Reader(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, envelope{Err: "bad_request", Msg: "bad gzip body: " + err.Error()})
			return
		}
		defer zr.Close()
		// Bound the decompressed size too: gzip bombs must not bypass
		// the body cap.
		body = io.LimitReader(zr, maxBodyBytes+1)
	}
	data, err := io.ReadAll(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, envelope{Err: "bad_request", Msg: "reading body: " + err.Error()})
		return
	}
	if int64(len(data)) > maxBodyBytes {
		writeJSON(w, http.StatusBadRequest, envelope{Err: "bad_request", Msg: "artifact exceeds body limit"})
		return
	}
	writeResult(w, s.O.Upload(lease, q.Get("name"), q.Get("sum"), data), nil)
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Lease  int64  `json:"lease"`
		Reason string `json:"reason"`
	}
	if !readBody(w, r, &req) {
		return
	}
	writeResult(w, s.O.Fail(req.Lease, req.Reason), nil)
}

// Client implements Transport over the HTTP protocol.
type Client struct {
	// Base is the server root, e.g. "http://host:8080".
	Base string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) hc() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) post(ctx context.Context, path string, reqBody any) (envelope, error) {
	b, err := json.Marshal(reqBody)
	if err != nil {
		return envelope{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(b))
	if err != nil {
		return envelope{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc().Do(req)
	if err != nil {
		return envelope{}, err
	}
	defer resp.Body.Close()
	var e envelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&e); err != nil {
		return envelope{}, fmt.Errorf("fleet: bad response from %s: %w", path, err)
	}
	return e, nil
}

func (c *Client) Acquire(ctx context.Context, worker string) (*Assignment, error) {
	e, err := c.post(ctx, "/v1/acquire", map[string]string{"worker": worker})
	if err != nil {
		return nil, err
	}
	if err := decodeErr(e); err != nil {
		return nil, err
	}
	if e.Assignment == nil {
		return nil, fmt.Errorf("fleet: acquire returned no assignment")
	}
	return e.Assignment, nil
}

func (c *Client) Heartbeat(ctx context.Context, lease int64, frontier int) error {
	e, err := c.post(ctx, "/v1/heartbeat", map[string]any{"lease": lease, "frontier": frontier})
	if err != nil {
		return err
	}
	return decodeErr(e)
}

func (c *Client) Complete(ctx context.Context, lease int64, res WorkerResult) error {
	e, err := c.post(ctx, "/v1/complete", map[string]any{"lease": lease, "result": res})
	if err != nil {
		return err
	}
	return decodeErr(e)
}

func (c *Client) Fail(ctx context.Context, lease int64, reason string) error {
	e, err := c.post(ctx, "/v1/fail", map[string]any{"lease": lease, "reason": reason})
	if err != nil {
		return err
	}
	return decodeErr(e)
}

func (c *Client) Upload(ctx context.Context, lease int64, name, sum string, data []byte) error {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	q := url.Values{}
	q.Set("lease", strconv.FormatInt(lease, 10))
	q.Set("name", name)
	q.Set("sum", sum)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.Base+"/v1/upload?"+q.Encode(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := c.hc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var e envelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&e); err != nil {
		return fmt.Errorf("fleet: bad response from /v1/upload: %w", err)
	}
	return decodeErr(e)
}

// FetchPartialSummary downloads the merged-so-far Summary of a running
// fleet (see Orchestrator.PartialSummary).
func (c *Client) FetchPartialSummary(ctx context.Context) (PartialSummary, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/summary", nil)
	if err != nil {
		return PartialSummary{}, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return PartialSummary{}, err
	}
	defer resp.Body.Close()
	var ps PartialSummary
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&ps); err != nil {
		return PartialSummary{}, fmt.Errorf("fleet: bad summary: %w", err)
	}
	return ps, nil
}

// FetchSpec downloads the fleet's grid and sweep parameters, so a
// worker needs nothing locally but the server address.
func (c *Client) FetchSpec(ctx context.Context) (*grid.Grid, int, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/spec", nil)
	if err != nil {
		return nil, 0, 0, err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	var ws wireSpec
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&ws); err != nil {
		return nil, 0, 0, fmt.Errorf("fleet: bad spec: %w", err)
	}
	g, err := grid.ParseJSON(bytes.NewReader(ws.Grid))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("fleet: spec grid: %w", err)
	}
	return g, ws.Shards, ws.BaseSeed, nil
}
