package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neutrality/internal/measure"
)

func recordLines(recs []measure.StreamRecord) string {
	var sb strings.Builder
	for _, r := range recs {
		b, _ := json.Marshal(r)
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func postIngest(t *testing.T, ts *httptest.Server, body io.Reader, gzipped bool) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest", body)
	if err != nil {
		t.Fatal(err)
	}
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPRoundTrip: ingest → epoch close → verdict/summary/status over
// the wire, including idempotent re-delivery.
func TestHTTPRoundTrip(t *testing.T) {
	n, recs := testStream(40, 3, 7)
	s := mustNew(t, Config{Net: n, EpochRecords: len(recs)})
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()

	resp := postIngest(t, ts, strings.NewReader(recordLines(recs)), false)
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.Accepted != len(recs) || res.Epochs != 1 {
		t.Fatalf("ingest: %d %+v", resp.StatusCode, res)
	}

	// Re-delivery is a no-op.
	resp = postIngest(t, ts, strings.NewReader(recordLines(recs)), false)
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if res.Accepted != 0 || res.Duplicates != len(recs) {
		t.Fatalf("re-delivery: %+v", res)
	}

	get := func(path string) (int, string, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/v1/verdict")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("verdict: %d %s", code, ctype)
	}
	ev := decodeVerdict(t, []byte(body))
	if ev.Epoch != 1 || !ev.NonNeutral {
		t.Fatalf("verdict over the wire: %+v", ev)
	}

	code, body, ctype = get("/v1/summary")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(body, "epoch 1:") {
		t.Fatalf("summary: %d %s\n%s", code, ctype, body)
	}

	code, body, _ = get("/v1/status")
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || st.Records != int64(len(recs)) || st.Duplicates != int64(len(recs)) || st.Epochs != 1 {
		t.Fatalf("status: %d %+v", code, st)
	}
}

// TestHTTPGzipIngest: a gzip-compressed body is accepted transparently.
func TestHTTPGzipIngest(t *testing.T) {
	n, recs := testStream(10, 2, 7)
	s := mustNew(t, Config{Net: n, EpochRecords: 0})
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	io.WriteString(zw, recordLines(recs))
	zw.Close()
	resp := postIngest(t, ts, &buf, true)
	defer resp.Body.Close()
	var res IngestResult
	json.NewDecoder(resp.Body).Decode(&res)
	if resp.StatusCode != http.StatusOK || res.Accepted != len(recs) {
		t.Fatalf("gzip ingest: %d %+v", resp.StatusCode, res)
	}
}

// TestHTTPValidation: malformed JSON and invalid records both answer
// 400 with the validation error code, applying nothing.
func TestHTTPValidation(t *testing.T) {
	n, recs := testStream(4, 2, 7)
	s := mustNew(t, Config{Net: n, EpochRecords: 0})
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()

	bodies := []string{
		"this is not json\n",
		recordLines(recs[:2]) + "{\"source\":\"x\",\"seq\":\n",
		// Parseable but invalid: path outside the topology.
		fmt.Sprintf("{\"source\":\"x\",\"seq\":1,\"interval\":0,\"path\":%d,\"sent\":5,\"lost\":0}\n", n.NumPaths()),
		// Lost exceeds sent.
		"{\"source\":\"x\",\"seq\":1,\"interval\":0,\"path\":0,\"sent\":5,\"lost\":9}\n",
	}
	for i, body := range bodies {
		resp := postIngest(t, ts, strings.NewReader(body), false)
		var he httpError
		json.NewDecoder(resp.Body).Decode(&he)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || he.Err != "validation" {
			t.Fatalf("body %d: %d %+v", i, resp.StatusCode, he)
		}
	}
	if st := s.Status(); st.Records != 0 {
		t.Fatalf("rejected bodies left %d records", st.Records)
	}
}

// TestHTTPBackpressure: a full epoch buffer answers 429 + Retry-After,
// reporting the partial acceptance; the retried batch completes after
// the epoch drains.
func TestHTTPBackpressure(t *testing.T) {
	n, recs := testStream(4, 2, 7)
	s := mustNew(t, Config{Net: n, EpochRecords: 0, MaxPending: 4})
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()

	resp := postIngest(t, ts, strings.NewReader(recordLines(recs[:8])), false)
	var busy struct {
		httpError
		IngestResult
	}
	json.NewDecoder(resp.Body).Decode(&busy)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || busy.Err != "busy" || busy.Accepted != 4 {
		t.Fatalf("over capacity: %d %+v", resp.StatusCode, busy)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	if _, err := s.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	resp = postIngest(t, ts, strings.NewReader(recordLines(recs[:8])), false)
	var res IngestResult
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.Accepted != 4 || res.Duplicates != 4 {
		t.Fatalf("retry after drain: %d %+v", resp.StatusCode, res)
	}
}

// TestHTTPRetryAfterDerived pins the 429 Retry-After contract: the
// header is derived from the epoch cadence (the honest drain estimate),
// not hardcoded, and the body reports the pending backlog so a sender
// can size its pause.
func TestHTTPRetryAfterDerived(t *testing.T) {
	n, recs := testStream(4, 2, 7)

	cases := []struct {
		interval time.Duration
		want     string
	}{
		{0, "1"},                       // count-based closing: next boundary drains
		{500 * time.Millisecond, "1"},  // sub-second cadence still answers 1
		{7 * time.Second, "7"},         // wall-clock cadence: the tick is the drain
		{2500 * time.Millisecond, "3"}, // fractional cadences round up
	}
	for _, tc := range cases {
		s := mustNew(t, Config{Net: n, EpochRecords: 0, MaxPending: 4})
		srv := NewServer(s)
		srv.EpochInterval = tc.interval
		ts := httptest.NewServer(srv)

		resp := postIngest(t, ts, strings.NewReader(recordLines(recs[:8])), false)
		var busy struct {
			httpError
			IngestResult
			Pending        int `json:"pending"`
			RetryAfterSecs int `json:"retry_after_seconds"`
		}
		json.NewDecoder(resp.Body).Decode(&busy)
		resp.Body.Close()
		ts.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("interval %v: status %d", tc.interval, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != tc.want {
			t.Fatalf("interval %v: Retry-After %q, want %q", tc.interval, got, tc.want)
		}
		if busy.Pending != 4 || fmt.Sprint(busy.RetryAfterSecs) != tc.want {
			t.Fatalf("interval %v: body %+v (want pending=4, retry=%s)", tc.interval, busy, tc.want)
		}
	}
}

// newlines is a reader of n '\n' bytes: an oversized body without an
// oversized allocation (empty lines are skipped, so only the size
// guards can reject it).
type newlines struct{ n int64 }

func (r *newlines) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = '\n'
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// TestHTTPIngestLimits pins the ingest size guards — the 1 MB line
// cap, the plain body cap, and the decompressed-size cap that stops a
// gzip bomb — each answering 400 with nothing applied, and checks that
// the pooled scanner buffer a rejected request dirtied still decodes
// the next body, in canonical and non-canonical JSON alike.
func TestHTTPIngestLimits(t *testing.T) {
	n, recs := testStream(4, 2, 7)
	s := mustNew(t, Config{Net: n, EpochRecords: 0})
	srv := NewServer(s)
	valid := recordLines(recs[:2])

	// Requests run on the test goroutine, so consecutive ones draw the
	// same pooled buffer.
	post := func(body io.Reader, gzipped bool) (int, httpError) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", body)
		if gzipped {
			req.Header.Set("Content-Encoding", "gzip")
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var he httpError
		json.Unmarshal(rec.Body.Bytes(), &he)
		return rec.Code, he
	}
	gz := func(r io.Reader) io.Reader {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := io.Copy(zw, r); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	longLine := `{"source":"` + strings.Repeat("a", maxIngestLine) + `","seq":1,"interval":0,"path":0,"sent":1,"lost":0}` + "\n"
	cases := []struct {
		name    string
		body    io.Reader
		gzipped bool
		msg     string
	}{
		{"line over the cap", strings.NewReader(valid + longLine), false, "token too long"},
		{"plain body over the cap", io.MultiReader(strings.NewReader(valid), &newlines{n: maxIngestBytes}), false, "request body too large"},
		{"gzip body inflating past the cap", gz(io.MultiReader(strings.NewReader(valid), &newlines{n: maxIngestBytes})), true, "exceeds ingest limit"},
	}
	for _, tc := range cases {
		code, he := post(tc.body, tc.gzipped)
		if code != http.StatusBadRequest || he.Err != "validation" || !strings.Contains(he.Msg, tc.msg) {
			t.Fatalf("%s: %d %+v, want 400 validation %q", tc.name, code, he, tc.msg)
		}
		if st := s.Status(); st.Records != 0 {
			t.Fatalf("%s: rejected body applied %d records", tc.name, st.Records)
		}
	}

	// Non-canonical lines — whitespace, reordered keys, escapes — take
	// encoding/json's path and decode to the same records.
	var body strings.Builder
	for i, r := range recs {
		line, _ := json.Marshal(r)
		switch i % 3 {
		case 1:
			line = []byte(fmt.Sprintf(`{ "lost": %d, "sent": %d, "path": %d, "interval": %d, "seq": %d, "source": %q }`,
				r.Lost, r.Sent, r.Path, r.Interval, r.Seq, r.Source))
		case 2:
			line = []byte(fmt.Sprintf(`{"source":"\u%04x%s","seq":%d,"interval":%d,"path":%d,"sent":%d,"lost":%d}`,
				r.Source[0], r.Source[1:], r.Seq, r.Interval, r.Path, r.Sent, r.Lost))
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	code, _ := post(strings.NewReader(body.String()), false)
	if st := s.Status(); code != http.StatusOK || st.Records != int64(len(recs)) {
		t.Fatalf("valid body after rejections: %d, %d of %d records applied", code, st.Records, len(recs))
	}
	want := mustNew(t, Config{Net: n, EpochRecords: 0})
	if _, err := want.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := want.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	if got, exp := s.VerdictJSON(), want.VerdictJSON(); !bytes.Equal(got, exp) {
		t.Fatalf("verdict over mixed-form lines differs from direct ingest:\n%s\n%s", got, exp)
	}
}

// TestHTTPClosedAnswers503: after Close, a leaf's ingest and a root's
// epoch delivery answer 503 — retryable, unlike 400, which a Shipper
// treats as permanent — and the reads keep answering.
func TestHTTPClosedAnswers503(t *testing.T) {
	leafSvcs, union, _ := driveTree(t, 1, 2)
	s := leafSvcs[0]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()
	_, recs := testStream(2, 1, 1)
	resp := postIngest(t, ts, strings.NewReader(recordLines(recs)), false)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest into a closed service: %d, want 503", resp.StatusCode)
	}
	if st := s.Status(); st.Records != union.Status().Records {
		t.Fatalf("closed service applied records: %+v", st)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/verdict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verdict read after Close: %d", resp.StatusCode)
	}

	root, err := NewRoot(RootConfig{Net: union.net, Leaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(NewRootServer(root))
	defer rts.Close()
	sh := &Shipper{S: s, URL: rts.URL}
	err = sh.post(context.Background(), s.Reports()[0])
	var perm *permanentShipError
	if err == nil || errors.As(err, &perm) || !strings.Contains(err.Error(), "503") {
		t.Fatalf("shipping to a closed root = %v, want a retryable 503", err)
	}
}

// TestHTTPSourceNameTable: the ingest handler decodes through a pooled
// table of source names, bounded in count and name length. Fed more
// distinct sources than the table holds, plus a 1 KiB one, it acks
// every batch and serves the verdict exactly as a leaf fed the same
// batches through Service.Ingest, and no table exceeds its bound.
func TestHTTPSourceNameTable(t *testing.T) {
	const distinct = measure.MaxSourceNames + 104
	n, recs := testStream(1100, 4, 5)
	for i := range recs {
		recs[i].Source = fmt.Sprintf("vp-%04d", i%distinct)
		recs[i].Seq = int64(i/distinct + 1)
	}
	recs[17].Source = strings.Repeat("L", 1024)
	cfg := Config{Net: n, EpochRecords: 1024, Leaf: "east"}
	viaHTTP, direct := mustNew(t, cfg), mustNew(t, cfg)
	defer viaHTTP.Close()
	defer direct.Close()
	srv := NewServer(viaHTTP)
	for lo := 0; lo < len(recs); lo += 256 {
		batch := recs[lo:min(lo+256, len(recs))]
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(recordLines(batch))))
		var got IngestResult
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || w.Code != http.StatusOK {
			t.Fatalf("batch at %d: %d %s", lo, w.Code, w.Body)
		}
		want, err := direct.Ingest(batch)
		if err != nil || got != want {
			t.Fatalf("batch at %d: HTTP ack %+v, Service.Ingest %+v (%v)", lo, got, want, err)
		}
		bufs := ingestPool.Get().(*ingestBuffers)
		if bufs.names.Len() > measure.MaxSourceNames {
			t.Fatalf("a pooled name table holds %d names, bound %d", bufs.names.Len(), measure.MaxSourceNames)
		}
		ingestPool.Put(bufs)
	}
	if viaHTTP.Status().Epochs == 0 {
		t.Fatal("no epoch closed; the verdicts compare nothing")
	}
	if g, w := viaHTTP.VerdictJSON(), direct.VerdictJSON(); !bytes.Equal(g, w) {
		t.Fatalf("verdict via HTTP differs:\n%s\n%s", g, w)
	}
	if viaHTTP.SummaryText() != direct.SummaryText() {
		t.Fatal("summary via HTTP differs")
	}
}
