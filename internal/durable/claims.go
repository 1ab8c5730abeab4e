package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
)

// ClaimLogName is the claim log every ClaimedLogs set keeps.
const ClaimLogName = "claims.jsonl"

// Claim is one claim-log line: the generation the logs extend (the
// serve journal's snapshot epoch; 0 for a log that never compacts),
// each log's line count since it began, and the owner's folded record
// and epoch totals, echoed for inspection. appendClaim writes its
// JSON, byte-equal to json.Marshal(Claim).
type Claim struct {
	SnapshotEpoch int   `json:"snapshot_epoch"`
	ShardLines    []int `json:"shard_lines"`
	Records       int64 `json:"records"`
	Epochs        int   `json:"epochs"`
}

// ClaimedLogs is a set of framed logs in one Dir claimed together by
// an append-only claim log: every Flush that follows an append adds
// one claim line covering every log, so each ack an owner sends after
// Flush returns sits inside a claim. The owner's manifest holds its
// identity and a base claim, which a claim line naming the same
// generation supersedes.
//
// Open a set with ReadClaimed, Recover it against the manifest's base
// claim, replay, and Adopt the replayed prefix of each log.
type ClaimedLogs struct {
	dir    *Dir
	names  []string  // the logs, then the claim log
	images [][]byte  // each file as read, until Recover
	ends   [][]int64 // per log, ends[k] = the offset its first k lines end at
	keep   int64     // claim-log bytes the effective claim keeps
	logs   []*Log    // the logs, then the claim log, once adopted
	gen    int
	// lines counts durable+buffered lines per log since gen began;
	// claimed is their sum at the last claim.
	lines   []int
	claimed int
}

// ReadClaimed reads the named logs and the claim log of d; a missing
// file reads as empty. Nothing is opened or written.
func (d *Dir) ReadClaimed(names ...string) (*ClaimedLogs, error) {
	c := &ClaimedLogs{dir: d, names: append(slices.Clip(names), ClaimLogName)}
	for _, name := range c.names {
		data, err := os.ReadFile(d.Path(name))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("durable: reading %s: %w", name, err)
		}
		c.images = append(c.images, data)
	}
	return c, nil
}

// Empty reports whether no log and no claim line holds a byte.
func (c *ClaimedLogs) Empty() bool {
	return !slices.ContainsFunc(c.images, func(b []byte) bool { return len(b) > 0 })
}

// Recover picks the effective claim and checks every log against it
// with Recover, handing each payload to parse with its log's index.
// base is the owner manifest's claim, nil when there is no manifest.
// The effective claim is the last intact claim line if it names
// base's generation, else base: lines naming an older one are left by
// a Reset killed before it truncated the claim log. Every error is
// acknowledged data damaged or gone — inside the effective claim, a
// claim naming a newer generation, claims without a manifest — which
// no retry restores.
func (c *ClaimedLogs) Recover(base *Claim, parse func(log int, payload []byte) error) (Claim, error) {
	n := len(c.names) - 1
	if base == nil {
		if len(c.images[n]) > 0 {
			return Claim{}, fmt.Errorf("%s holds claims but no manifest", ClaimLogName)
		}
		base = &Claim{ShardLines: make([]int, n)}
	}
	eff := *base
	var last *Claim
	// Nothing inside the claim log is claimed, so this cannot fail: it
	// stops at the first torn or non-canonical line.
	claimEnds, _ := Recover(c.images[n], 0, func(payload []byte) error {
		lc, err := parseClaim(payload)
		if err == nil {
			last = &lc
		}
		return err
	})
	if last != nil && last.SnapshotEpoch > base.SnapshotEpoch {
		return Claim{}, fmt.Errorf("%s claims generation %d past the manifest's %d", ClaimLogName, last.SnapshotEpoch, base.SnapshotEpoch)
	}
	if last != nil && last.SnapshotEpoch == base.SnapshotEpoch {
		eff, c.keep = *last, claimEnds[len(claimEnds)-1]
	}
	if len(eff.ShardLines) != n {
		return Claim{}, fmt.Errorf("claim covers %d logs, the set has %d", len(eff.ShardLines), n)
	}
	c.ends = make([][]int64, n)
	for i, claimed := range eff.ShardLines {
		if claimed < 0 {
			return Claim{}, fmt.Errorf("claim covers %d lines of %s", claimed, c.names[i])
		}
		ends, err := Recover(c.images[i], claimed, func(p []byte) error { return parse(i, p) })
		if err != nil {
			return Claim{}, fmt.Errorf("%s %v", c.names[i], err)
		}
		c.ends[i] = append([]int64{0}, ends...)
		c.claimed += claimed
	}
	c.gen, c.images = eff.SnapshotEpoch, nil
	return eff, nil
}

// Adopt opens the set for appending: it truncates log i to the first
// adopted[i] lines Recover passed — the prefix the owner's replay
// adopts — then the claim log to the effective claim. The adopted
// lines, a slice the set keeps, count toward the claim the owner's
// next Flush appends. On failure the owner closes the set.
func (c *ClaimedLogs) Adopt(adopted []int) error {
	c.lines = adopted
	for i, name := range c.names {
		keep := c.keep
		if i < len(adopted) {
			keep = c.ends[i][adopted[i]]
		}
		l, err := c.dir.OpenLog(name)
		if err != nil {
			return err
		}
		c.logs = append(c.logs, l)
		if err := l.Truncate(keep); err != nil {
			return err
		}
	}
	c.ends = nil
	return nil
}

// Append frames one line straight into log i's write buffer (see
// Log.Append); it reaches the file, and a claim, at the next Flush.
func (c *ClaimedLogs) Append(i int, payload func([]byte) []byte) error {
	if _, err := c.logs[i].Append(payload); err != nil {
		return err
	}
	c.lines[i]++
	return nil
}

// Flush writes every log's buffered lines and then, if any line was
// appended since the last claim, claims them with one claim line
// carrying the owner's totals. The claim follows every log's flush,
// so it is a consistent cut across the logs.
func (c *ClaimedLogs) Flush(records int64, epochs int) error {
	lines := 0
	for i, n := range c.lines {
		if err := c.logs[i].Flush(); err != nil {
			return err
		}
		lines += n
	}
	if lines == c.claimed {
		return nil
	}
	claims := c.logs[len(c.lines)]
	cl := Claim{SnapshotEpoch: c.gen, ShardLines: c.lines, Records: records, Epochs: epochs}
	if _, err := claims.Append(func(b []byte) []byte { return appendClaim(b, &cl) }); err != nil {
		return err
	}
	if err := claims.Flush(); err != nil {
		return err
	}
	c.claimed = lines
	return nil
}

// Reset starts generation gen once the owner's manifest names it with
// a zero base claim: it truncates every log, then the claim log. After
// a kill between the two, the old generation's claim lines lose to
// the manifest's zero claim.
func (c *ClaimedLogs) Reset(gen int) error {
	c.gen, c.claimed = gen, 0
	clear(c.lines)
	for _, l := range c.logs {
		if err := l.Truncate(0); err != nil {
			return err
		}
	}
	return nil
}

// Gen returns the generation the logs extend, and Claimed the line
// count of the last claim, summed over the logs.
func (c *ClaimedLogs) Gen() int     { return c.gen }
func (c *ClaimedLogs) Claimed() int { return c.claimed }

// Dir returns the directory the set lives in.
func (c *ClaimedLogs) Dir() *Dir { return c.dir }

// Close closes every open log, flushing its buffer but appending no
// claim; a broken Dir reports its latched error.
func (c *ClaimedLogs) Close() error {
	var err error
	for _, l := range c.logs {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// appendClaim appends c's canonical JSON to b: exactly
// json.Marshal(c), without reflection.
func appendClaim(b []byte, c *Claim) []byte {
	b = append(b, `{"snapshot_epoch":`...)
	b = strconv.AppendInt(b, int64(c.SnapshotEpoch), 10)
	b = append(b, `,"shard_lines":[`...)
	for i, n := range c.ShardLines {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	b = append(b, `],"records":`...)
	b = strconv.AppendInt(b, c.Records, 10)
	b = append(b, `,"epochs":`...)
	b = strconv.AppendInt(b, int64(c.Epochs), 10)
	return append(b, '}')
}

// parseClaim decodes one claim-log payload and requires the canonical
// form appendClaim writes.
func parseClaim(payload []byte) (Claim, error) {
	var c Claim
	if err := json.Unmarshal(payload, &c); err != nil {
		return Claim{}, fmt.Errorf("claim does not parse: %v", err)
	}
	if !bytes.Equal(appendClaim(nil, &c), payload) {
		return Claim{}, fmt.Errorf("claim is not in canonical form")
	}
	return c, nil
}
