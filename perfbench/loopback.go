package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"neutrality/internal/measure"
	"neutrality/internal/serve"
)

// httpServer serves a handler of the system under test on loopback.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// newClient returns a client that holds at most one connection per
// server, so each client goroutine is one client connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// appendRecord encodes one stream record as a JSON line, the ingest
// wire format.
func appendRecord(b []byte, r *measure.StreamRecord) []byte {
	b = append(b, `{"source":"`...)
	b = append(b, r.Source...)
	b = append(b, `","seq":`...)
	b = strconv.AppendInt(b, r.Seq, 10)
	b = append(b, `,"interval":`...)
	b = strconv.AppendInt(b, int64(r.Interval), 10)
	b = append(b, `,"path":`...)
	b = strconv.AppendInt(b, int64(r.Path), 10)
	b = append(b, `,"sent":`...)
	b = strconv.AppendInt(b, int64(r.Sent), 10)
	b = append(b, `,"lost":`...)
	b = strconv.AppendInt(b, int64(r.Lost), 10)
	return append(b, "}\n"...)
}

// op is one client operation: an ingest POST or a dashboard read.
type op struct {
	due, sent, done time.Time
	read            bool
	ok              bool
	res             serve.IngestResult // the ack of an ingest POST
}

func (o *op) latency() time.Duration { return o.done.Sub(o.due) }

// post sends one ingest batch and decodes the ack. Traced, it records
// the request's root span, the encode span, and hands the server its
// parent through the span header.
func post(c *http.Client, url string, recs []measure.StreamRecord, buf []byte, tr *tracer, o *op) []byte {
	id := tr.id()
	buf = buf[:0]
	for i := range recs {
		buf = appendRecord(buf, &recs[i])
	}
	encoded := time.Now()
	tr.add("client.encode", 0, id, id, o.sent, encoded)
	req, err := http.NewRequest(http.MethodPost, url+"/v1/ingest", bytes.NewReader(buf))
	if err == nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
		if tr != nil {
			setSpanHeader(req.Header, id, id)
		}
		var resp *http.Response
		if resp, err = c.Do(req); err == nil {
			if resp.StatusCode == http.StatusOK {
				o.ok = json.NewDecoder(resp.Body).Decode(&o.res) == nil
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	o.done = time.Now()
	tr.add("gen.wait", 0, id, id, o.due, o.sent)
	tr.add("client.request", id, 0, id, o.due, o.done)
	return buf
}

// get performs one dashboard read.
func get(c *http.Client, url string, tr *tracer, o *op) {
	id := tr.id()
	o.read = true
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err == nil {
		if tr != nil {
			setSpanHeader(req.Header, id, id)
		}
		var resp *http.Response
		if resp, err = c.Do(req); err == nil {
			_, cerr := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			o.ok = resp.StatusCode == http.StatusOK && cerr == nil
		}
	}
	o.done = time.Now()
	tr.add("gen.wait", 0, id, id, o.due, o.sent)
	tr.add("client.request", id, 0, id, o.due, o.done)
}
