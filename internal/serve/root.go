package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"neutrality/internal/core"
	"neutrality/internal/durable"
	"neutrality/internal/errkind"
	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/stats"
)

// Multi-instance tree: leaf services each ingest a disjoint slice of
// the source population and ship one EpochReport per closed epoch to a
// Root, which folds the reports and runs the inference over the merged
// table. The determinism contract extends across the tree: the root's
// per-epoch verdict is byte-identical to a single service ingesting
// the union of the leaf streams with the same epoch boundaries,
// because everything the verdict depends on merges exactly — the
// measurement table is integer counts, cumulative record/source counts
// are sums (leaves own disjoint source sets), and the loss-fraction
// accumulators merge under the property-tested Welford/Sketch merge
// laws, folded in leaf-name order so the fold order is canonical.
//
// Transport reuses the fleet idioms: reports are content-hash-sealed
// (SHA-256 over the canonical JSON with the hash field empty),
// delivery is idempotent (per-leaf epoch high-water marks answer
// duplicates with 200), and a gap — epoch e+2 arriving before e+1 —
// is refused with ErrReportGap (HTTP 409) so the shipper's in-order
// retry loop can close it.

// PathCount is one (interval, path) cell's packet-count delta in an
// epoch report.
type PathCount struct {
	Interval int `json:"interval"`
	Path     int `json:"path"`
	Sent     int `json:"sent"`
	Lost     int `json:"lost"`
}

// EpochReport is one leaf's closed epoch, aggregated for shipment:
// the sparse measurement-table delta in canonical (interval, path)
// order, the epoch's loss accumulators in exact wire form, and a
// content hash sealing the document.
type EpochReport struct {
	// Leaf names the shipping instance; Epoch is its closed-epoch
	// number (leaves close epochs in lockstep, see Root).
	Leaf  string `json:"leaf"`
	Epoch int    `json:"epoch"`
	// Records is the epoch's accepted-record count; Sources the leaf's
	// cumulative distinct-source count at the close.
	Records int `json:"records"`
	Sources int `json:"sources"`
	// Counts is the epoch's table delta, sorted by (interval, path).
	Counts []PathCount `json:"counts"`
	// Loss / LossSketch are the epoch's canonical-order loss folds.
	Loss       stats.WelfordWire `json:"loss"`
	LossSketch stats.SketchWire  `json:"loss_sketch"`
	// Sum is the SHA-256 (lowercase hex) of the report's canonical
	// JSON with Sum itself empty. It must stay the last field:
	// sealedReport checks it by cutting it off the end of the JSON.
	Sum string `json:"sum,omitempty"`
}

// sealReport stamps the content hash.
func sealReport(r *EpochReport) {
	r.Sum = ""
	b, _ := json.Marshal(r)
	r.Sum = durable.SHA256Hex(b)
}

// sealedReport marshals rep once and checks its content seal on those
// bytes, returning them with the verdict. A sealed report's Sum is 64
// lowercase hex digits, which JSON writes unescaped, so its JSON with
// Sum empty (omitted) is these bytes with the trailing `,"sum":"…"`
// field cut.
func sealedReport(rep *EpochReport) ([]byte, bool) {
	if !durable.IsSHA256Hex(rep.Sum) {
		return nil, false
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, false
	}
	cut := len(b) - len(`,"sum":""}`) - len(rep.Sum)
	b[cut] = '}'
	sum := sha256.Sum256(b[:cut+1])
	b[cut] = ','
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return b, string(hexSum[:]) == rep.Sum
}

// ErrReportGap reports an epoch report arriving ahead of its leaf's
// next expected epoch: an earlier report was lost in transit and must
// be re-sent first (HTTP 409). Retrying the same report later cannot
// succeed until the gap is closed.
var ErrReportGap = errors.New("serve: epoch report out of order, earlier epoch missing")

// RootConfig parameterizes a Root.
type RootConfig struct {
	// Net is the shared topology; leaf reports address its path
	// indices.
	Net *graph.Network
	// NetName names the topology in the report-log identity: a resume
	// must give the same name, the empty name included.
	NetName string
	// Leaves is the expected leaf count: epoch e folds once every one
	// of the first Leaves distinct leaf names has delivered e.
	Leaves int
	// Opts / Infer configure Algorithms 2 and 1, as in Config (zero
	// values: defaults).
	Opts  measure.Options
	Infer core.Config
	// MaxIntervals caps the interval index a report may address
	// (default 1<<20).
	MaxIntervals int
	// Dir is the durable report-log directory (see rootlog.go): every
	// accepted report is logged before it is acked, and a restart
	// restores the per-leaf high-water marks and the fold, so running
	// leaves continue from their next unacked epoch. Empty runs
	// in-memory — a root restart then requires restarting every leaf
	// too, because leaves drop reports once acked.
	Dir string
	// Resume adopts an existing report log in Dir.
	Resume bool
}

// RootStatus is the root's operational counter snapshot.
type RootStatus struct {
	Records           int64 `json:"records"`
	Epochs            int   `json:"epochs"`
	Leaves            int   `json:"leaves"`
	ExpectedLeaves    int   `json:"expected_leaves"`
	Staged            int   `json:"staged"`
	Duplicates        int64 `json:"duplicates"`
	Gaps              int64 `json:"gaps"`
	RejectsValidation int64 `json:"rejects_validation"`
	Intervals         int   `json:"intervals"`
}

// Root folds leaf epoch reports into a merged table and serves the
// tree-wide verdict. With RootConfig.Dir set, every accepted report is
// logged durably before it is acked and a restart replays the log —
// per-leaf high-water marks, fold state, and verdict all restore, so
// running leaves continue shipping from their next unacked epoch.
// Without a directory the state is in-memory only, and a root restart
// requires restarting every leaf from empty state too: a running
// leaf's outbox holds only epochs past its last ack, which a fresh
// root (expecting epoch 1) would refuse forever as a gap. All methods
// are safe for concurrent use; a tree epoch folds and publishes under
// the root lock, through the same tally step a leaf Service closes
// with.
type Root struct {
	tally // the lock, the merged table, the counts and the served verdict
	cfg   RootConfig
	log   *durable.ClaimedLogs // the report log; nil when running in-memory

	leafEpoch map[string]int                  // per-leaf delivered high-water mark
	staged    map[string]map[int]*EpochReport // undigested reports by leaf, epoch
	counters  RootStatus
	closed    bool // Close ran: every delivery is ErrClosed
}

// NewRoot builds a Root.
func NewRoot(cfg RootConfig) (*Root, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("serve: root config needs a network: %w", errkind.Validation)
	}
	if cfg.Leaves <= 0 {
		return nil, fmt.Errorf("serve: root config needs the expected leaf count: %w", errkind.Validation)
	}
	if cfg.Opts == (measure.Options{}) {
		cfg.Opts = measure.DefaultOptions()
	}
	if cfg.MaxIntervals <= 0 {
		cfg.MaxIntervals = 1 << 20
	}
	r := &Root{
		cfg:       cfg,
		leafEpoch: make(map[string]int),
		staged:    make(map[string]map[int]*EpochReport),
	}
	if err := r.init(cfg.Net, cfg.Opts, cfg.Infer); err != nil {
		return nil, err
	}
	if cfg.Dir != "" {
		if err := r.openLog(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// RootDeliverResult reports one delivery's effect.
type RootDeliverResult struct {
	// Duplicate marks an already-delivered epoch (acked again — the
	// idempotent at-least-once contract).
	Duplicate bool `json:"duplicate,omitempty"`
	// Epoch echoes the delivered epoch; Folded is the root's folded
	// epoch count after the call.
	Epoch  int `json:"epoch"`
	Folded int `json:"folded"`
}

// admitLocked is the one gate a report passes, live or replayed: the
// content seal and domain checks, the expected-leaf bound, and the
// per-leaf epoch order. It returns the report's canonical JSON, the
// line the report log holds; it reports an already-delivered epoch as
// dup; a per-leaf gap is ErrReportGap, anything else
// errkind.Validation.
func (r *Root) admitLocked(rep *EpochReport) (line []byte, dup bool, err error) {
	line, ok := sealedReport(rep)
	if !ok {
		return nil, false, fmt.Errorf("serve: epoch report content hash mismatch: %w", errkind.Validation)
	}
	dup, err = r.checkLocked(rep)
	return line, dup, err
}

// checkLocked is admitLocked past the seal.
func (r *Root) checkLocked(rep *EpochReport) (dup bool, err error) {
	if rep.Leaf == "" || rep.Epoch <= 0 || rep.Records < 0 {
		return false, fmt.Errorf("serve: epoch report malformed (leaf=%q epoch=%d records=%d): %w", rep.Leaf, rep.Epoch, rep.Records, errkind.Validation)
	}
	if rep.Sources < 0 || len(rep.Counts) > rep.Records {
		return false, fmt.Errorf("serve: epoch report counts inconsistent: %w", errkind.Validation)
	}
	paths := r.net.NumPaths()
	for i, c := range rep.Counts {
		if c.Interval < 0 || c.Interval >= r.cfg.MaxIntervals || c.Path < 0 || c.Path >= paths ||
			c.Sent < 0 || c.Lost < 0 || c.Lost > c.Sent {
			return false, fmt.Errorf("serve: epoch report count %d out of domain: %w", i, errkind.Validation)
		}
		if i > 0 {
			p := rep.Counts[i-1]
			if c.Interval < p.Interval || (c.Interval == p.Interval && c.Path <= p.Path) {
				return false, fmt.Errorf("serve: epoch report counts out of canonical order at %d: %w", i, errkind.Validation)
			}
		}
	}
	if loss, err := rep.Loss.Check("report loss"); err != nil {
		return false, fmt.Errorf("serve: %v: %w", err, errkind.Validation)
	} else if loss.N > rep.Records {
		return false, fmt.Errorf("serve: epoch report loss folds %d of %d records: %w", loss.N, rep.Records, errkind.Validation)
	}
	if _, err := rep.LossSketch.Check("report loss sketch", false); err != nil {
		return false, fmt.Errorf("serve: %v: %w", err, errkind.Validation)
	}
	hwm, known := r.leafEpoch[rep.Leaf]
	if !known && len(r.leafEpoch) >= r.cfg.Leaves {
		return false, fmt.Errorf("serve: leaf %q beyond the expected %d leaves: %w", rep.Leaf, r.cfg.Leaves, errkind.Validation)
	}
	if rep.Epoch <= hwm {
		return true, nil
	}
	if rep.Epoch != hwm+1 {
		return false, fmt.Errorf("%w: leaf %q delivered epoch %d after %d", ErrReportGap, rep.Leaf, rep.Epoch, hwm)
	}
	return false, nil
}

// Deliver accepts one leaf epoch report: content-hash verification,
// per-leaf in-order idempotent delivery, then as many tree-epoch folds
// as the staged reports complete. Duplicates are acked (not errors);
// a per-leaf gap is ErrReportGap; validation failures carry
// errkind.Validation and apply nothing; after Close every delivery
// is ErrClosed.
func (r *Root) Deliver(rep EpochReport) (RootDeliverResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	line, dup, err := r.admitLocked(&rep)
	switch {
	case r.closed:
		dup, err = false, ErrClosed
	case errors.Is(err, ErrReportGap):
		r.counters.Gaps++
	case err != nil:
		r.counters.RejectsValidation++
	case dup:
		r.counters.Duplicates++
	default:
		if r.log != nil {
			// Durability before acknowledgement: once the leaf sees 200 it
			// may drop its only other copy of this report, so the line and
			// a claim covering it are flushed first.
			err = r.log.Append(0, func(b []byte) []byte { return append(b, line...) })
			if err == nil {
				err = r.log.Flush(r.records, r.epoch)
			}
		}
		if err == nil {
			err = r.acceptLocked(rep)
		}
	}
	return RootDeliverResult{Duplicate: dup, Epoch: rep.Epoch, Folded: r.epoch}, err
}

// acceptLocked installs one validated, in-order report and folds any
// tree epochs it completes. Shared by live delivery and log replay.
func (r *Root) acceptLocked(rep EpochReport) error {
	r.leafEpoch[rep.Leaf] = rep.Epoch
	if r.staged[rep.Leaf] == nil {
		r.staged[rep.Leaf] = make(map[int]*EpochReport)
	}
	stored := rep
	r.staged[rep.Leaf][rep.Epoch] = &stored

	for r.foldReadyLocked() {
		if err := r.foldEpochLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the report log; every delivery already
// claimed its line, so nothing is rewritten. Afterwards every Deliver
// returns ErrClosed; reads keep working.
func (r *Root) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.log == nil {
		return nil
	}
	err := r.log.Flush(r.records, r.epoch)
	if cerr := r.log.Close(); err == nil {
		err = cerr
	}
	r.log = nil
	return err
}

// foldReadyLocked reports whether every expected leaf has staged the
// next tree epoch.
func (r *Root) foldReadyLocked() bool {
	if len(r.leafEpoch) < r.cfg.Leaves {
		return false
	}
	next := r.epoch + 1
	for leaf := range r.leafEpoch {
		if r.staged[leaf][next] == nil {
			return false
		}
	}
	return true
}

// foldEpochLocked folds one complete tree epoch in leaf-name order —
// the canonical fold order that makes the cumulative accumulators
// deterministic — and publishes it, re-normalizing only the rows from
// the lowest interval folded.
func (r *Root) foldEpochLocked() error {
	next := r.epoch + 1
	leaves := make([]string, 0, len(r.leafEpoch))
	for leaf := range r.leafEpoch {
		leaves = append(leaves, leaf)
	}
	sort.Strings(leaves)

	var epochLoss stats.Welford
	epochSketch := stats.NewUnitSketch()
	sources := 0
	paths := r.net.NumPaths()
	from := r.meas.Intervals()
	for _, leaf := range leaves {
		rep := r.staged[leaf][next]
		if len(rep.Counts) > 0 {
			from = min(from, rep.Counts[0].Interval) // counts are in interval order
		}
		for _, c := range rep.Counts {
			r.meas.EnsureIntervals(c.Interval+1, paths)
			r.meas.Add(c.Interval, graph.PathID(c.Path), c.Sent, c.Lost)
		}
		r.records += int64(rep.Records)
		sources += rep.Sources
		loss, err := rep.Loss.Check("report loss")
		if err != nil {
			return err // validated at delivery; unreachable
		}
		sk, err := rep.LossSketch.Check("report loss sketch", false)
		if err != nil {
			return err
		}
		epochLoss.Merge(loss)
		epochSketch.Merge(sk)
		delete(r.staged[leaf], next)
	}
	_, err := r.publishLocked(from, sources, epochLoss, epochSketch)
	return err
}

// Status snapshots the root's operational counters.
func (r *Root) Status() RootStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.counters
	st.Records = r.records
	st.Epochs = r.epoch
	st.Leaves = len(r.leafEpoch)
	st.ExpectedLeaves = r.cfg.Leaves
	st.Intervals = r.meas.Intervals()
	staged := 0
	for _, m := range r.staged {
		staged += len(m)
	}
	st.Staged = staged
	return st
}

// RootServer exposes a Root over HTTP:
//
//	POST /v1/epoch    one EpochReport (JSON body) → 200 RootDeliverResult
//	                  (duplicates also 200), 400 on validation failure,
//	                  409 on a per-leaf epoch gap (re-send earlier first),
//	                  503 after Close (retry)
//	GET  /v1/verdict  latest tree-wide EpochVerdict
//	GET  /v1/summary  per-epoch summary window (text/plain)
//	GET  /v1/status   operational counters
type RootServer struct {
	R   *Root
	mux *http.ServeMux
}

// NewRootServer builds the handler for a root.
func NewRootServer(r *Root) *RootServer {
	srv := &RootServer{R: r, mux: http.NewServeMux()}
	srv.mux.HandleFunc("POST /v1/epoch", srv.epoch)
	handleReads(srv.mux, &r.tally, func() any { return r.Status() })
	return srv
}

func (s *RootServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *RootServer) epoch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxIngestBytes+1))
	if err != nil || int64(len(body)) > maxIngestBytes {
		writeJSON(w, http.StatusBadRequest, httpError{Err: "validation", Msg: "report body unreadable or too large"})
		return
	}
	var rep EpochReport
	if err := json.Unmarshal(body, &rep); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Err: "validation", Msg: "report does not parse: " + err.Error()})
		return
	}
	res, err := s.R.Deliver(rep)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, ErrReportGap):
		writeJSON(w, http.StatusConflict, httpError{Err: "gap", Msg: err.Error()})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, httpError{Err: "closed", Msg: err.Error()})
	case errors.Is(err, errkind.Validation):
		writeJSON(w, http.StatusBadRequest, httpError{Err: "validation", Msg: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, httpError{Err: "internal", Msg: err.Error()})
	}
}

// Shipper drains one leaf service's report outbox to a root over HTTP,
// in epoch order, retrying transient failures with exponential backoff
// (the fleet idiom: delivery is idempotent, so re-sending after an
// ambiguous failure is always safe). Run blocks until the context is
// done or a permanent (validation-class) rejection occurs.
type Shipper struct {
	S *Service
	// URL is the root's base URL (e.g. http://root:8080).
	URL string
	// Client defaults to a 30s-timeout client; Backoff is the initial
	// retry pause (default 250ms, doubling to a 10s cap).
	Client  *http.Client
	Backoff time.Duration
}

func (sh *Shipper) client() *http.Client {
	if sh.Client != nil {
		return sh.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// Run ships queued reports until ctx is done. Returns nil on context
// cancellation, an error only on a permanent rejection.
func (sh *Shipper) Run(ctx context.Context) error {
	backoff := sh.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	for {
		for _, rep := range sh.S.Reports() {
			pause := backoff
			for {
				err := sh.post(ctx, rep)
				if err == nil {
					sh.S.AckReports(rep.Epoch)
					break
				}
				var perm *permanentShipError
				if errors.As(err, &perm) {
					return fmt.Errorf("serve: root rejected epoch %d report: %v: %w", rep.Epoch, perm, errkind.Validation)
				}
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(pause):
				}
				if pause *= 2; pause > 10*time.Second {
					pause = 10 * time.Second
				}
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case <-sh.S.ReportSignal():
		case <-time.After(2 * time.Second):
		}
	}
}

// permanentShipError marks a 400-class rejection: retrying the same
// bytes cannot succeed.
type permanentShipError struct{ msg string }

func (e *permanentShipError) Error() string { return e.msg }

func (sh *Shipper) post(ctx context.Context, rep EpochReport) error {
	body, err := json.Marshal(rep)
	if err != nil {
		return &permanentShipError{msg: err.Error()}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(sh.URL, "/")+"/v1/epoch", bytes.NewReader(body))
	if err != nil {
		return &permanentShipError{msg: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := sh.client().Do(req)
	if err != nil {
		return err // transient: network failure, root down
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch {
	case resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode == http.StatusBadRequest:
		return &permanentShipError{msg: strings.TrimSpace(string(msg))}
	default:
		// 409 (gap) and 5xx retry: the in-order drain closes gaps, and
		// a restarted root rebuilds from re-sent reports.
		return fmt.Errorf("serve: root answered %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
}
