package emu

import (
	"fmt"
	"math"
	"sort"

	"neutrality/internal/graph"
	"neutrality/internal/measure"
)

// Collector accumulates the observations the evaluation needs:
//
//   - per-path per-interval sent/lost packet counts — the external
//     observations fed to Algorithm 2 (what end-hosts can measure);
//   - on request (EnableDelayTracking), per-path per-interval
//     delivered/late counts — the Section 7 latency metric;
//   - on request (EnableGroundTruth), per-link per-path per-interval
//     arrival/drop counts — ground truth, "directly measured by the
//     network", used only for reporting (Figure 10(a)) and for tests;
//   - queue-occupancy traces for selected links (Figure 11).
//
// Every counter lives in one flat interval-major table: row t holds the
// counters of sample interval t, and the table grows by doubling as
// simulated time crosses interval boundaries. A row is sent[path] and
// lost[path], then delivered[path] and late[path] when delay tracking is
// on, then an arrived/dropped pair per route hop when ground truth is on
// — a path's hops are consecutive, so the truth columns number the
// routes' hops, not links × paths. Every packet event is an array
// increment; no map operation exists anywhere on the forwarding path.
// Without ground truth no LinkArrival hook is installed and a drop
// touches only the lost counter.
type Collector struct {
	Interval Time
	paths    int

	// cells is the counter table; row t is cells[t*width:(t+1)*width].
	// Cells past len(cells) and below cap(cells) are always zero.
	cells []int32
	width int

	// delayCol is the first delivered column; lateAfter[p] is the
	// one-way delay above which a delivered packet of path p counts as
	// late (nil = delay tracking off).
	delayCol  int
	lateAfter []Time

	// truthCol is the first ground-truth column; hopOff[p] numbers path
	// p's first hop among all routes' hops (nil = ground truth off), and
	// truthRefs[l] lists the (path, hop number) of every path through
	// link l in ascending path order.
	truthCol  int
	hopOff    []int
	truthRefs [][]hopRef

	traces map[graph.LinkID]*QueueTrace
}

// hopRef is one path through a link: the path, and the number of the
// link's hop on it among all routes' hops.
type hopRef struct {
	path graph.PathID
	hop  int
}

// QueueTrace is a sampled queue-occupancy time series.
type QueueTrace struct {
	Link     graph.LinkID
	Times    []Time
	Bytes    []int // main queue + shaper queues
	MainOnly []int
}

// NewCollector creates a collector for the given network with the given
// measurement interval; it registers itself in the network hooks.
func NewCollector(n *Network, interval Time) *Collector {
	c := &Collector{
		Interval: interval,
		paths:    n.Graph.NumPaths(),
		width:    2 * n.Graph.NumPaths(),
		traces:   map[graph.LinkID]*QueueTrace{},
	}
	n.Hooks.DataSent = func(p *Packet) {
		c.row(c.intervalOf(n.Sim.now))[p.Path]++
	}
	n.Hooks.DataDropped = func(p *Packet, at *Link) {
		r := c.row(c.intervalOf(n.Sim.now))
		r[c.paths+int(p.Path)]++
		if c.hopOff != nil {
			r[c.truthCol+2*(c.hopOff[p.Path]+int(p.hop))+1]++
		}
	}
	return c
}

func (c *Collector) intervalOf(now Time) int { return int(now / c.Interval) }

// row returns the counters of interval t, growing the table to reach it.
func (c *Collector) row(t int) []int32 {
	end := (t + 1) * c.width
	if end > len(c.cells) {
		c.grow(end)
	}
	return c.cells[end-c.width : end]
}

// grow extends the table to end cells, doubling its capacity when full.
func (c *Collector) grow(end int) {
	if end > cap(c.cells) {
		grown := make([]int32, end, max(end, 2*cap(c.cells), 64*c.width))
		copy(grown, c.cells)
		c.cells = grown
		return
	}
	c.cells = c.cells[:end]
}

// rows returns the number of intervals the table holds; intervals past
// it read as zero.
func (c *Collector) rows() int {
	if c.width == 0 {
		return 0
	}
	return len(c.cells) / c.width
}

// cell returns counter col of interval t without growing the table.
func (c *Collector) cell(t, col int) int32 {
	if t >= c.rows() {
		return 0
	}
	return c.cells[t*c.width+col]
}

// addColumns reserves k columns at the end of every row and returns the
// first; columns can only be added before the first packet event.
func (c *Collector) addColumns(what string, k int) (int, error) {
	if len(c.cells) > 0 {
		return 0, fmt.Errorf("emu: %s must be enabled before the run starts", what)
	}
	col := c.width
	c.width += k
	return col, nil
}

// EnableGroundTruth starts recording, for every route hop, the data
// packets arriving at the hop's link and the ones it drops, per interval.
// It must be called before the run starts.
func (c *Collector) EnableGroundTruth(n *Network) error {
	if c.hopOff != nil {
		return fmt.Errorf("emu: ground truth already enabled")
	}
	hopOff := make([]int, len(n.routes))
	refs := make([][]hopRef, len(n.links))
	hops := 0
	for p, route := range n.routes {
		hopOff[p] = hops
		for _, l := range route.links {
			refs[l.ID] = append(refs[l.ID], hopRef{path: graph.PathID(p), hop: hops})
			hops++
		}
	}
	col, err := c.addColumns("ground truth", 2*hops)
	if err != nil {
		return err
	}
	c.truthCol, c.hopOff, c.truthRefs = col, hopOff, refs
	n.Hooks.LinkArrival = func(p *Packet, at *Link) {
		c.row(c.intervalOf(n.Sim.now))[c.truthCol+2*(c.hopOff[p.Path]+int(p.hop))]++
	}
	return nil
}

// queueSampler drives a QueueTrace via KindSampleTick events: each tick
// appends one sample and re-arms, so tracing allocates nothing per sample
// beyond the trace slices themselves.
type queueSampler struct {
	net *Network
	lk  *Link
	tr  *QueueTrace
	dt  Time
}

// OnEvent implements Handler.
func (q *queueSampler) OnEvent(EventKind, int32) {
	q.tr.Times = append(q.tr.Times, q.net.Sim.Now())
	q.tr.Bytes = append(q.tr.Bytes, q.lk.QueueBytes()+q.lk.ShaperBytes())
	q.tr.MainOnly = append(q.tr.MainOnly, q.lk.QueueBytes())
	q.net.Sim.AfterEvent(q.dt, KindSampleTick, q, 0)
}

// TraceQueue starts sampling the occupancy of link l every dt seconds.
func (c *Collector) TraceQueue(n *Network, l graph.LinkID, dt Time) {
	tr := &QueueTrace{Link: l}
	c.traces[l] = tr
	q := &queueSampler{net: n, lk: n.Link(l), tr: tr, dt: dt}
	n.Sim.AfterEvent(dt, KindSampleTick, q, 0)
}

// Trace returns the queue trace of link l (nil if not traced).
func (c *Collector) Trace(l graph.LinkID) *QueueTrace { return c.traces[l] }

// Measurements exports the external observations, truncated to complete
// intervals within the given duration, restricted to the given measured
// paths (renumbered 0..len(paths)-1 in order). Pass nil to export every
// path.
func (c *Collector) Measurements(duration Time, paths []graph.PathID) *measure.Measurements {
	T := int(duration / c.Interval)
	paths = pathsOrAll(paths, c.paths)
	m := measure.NewMeasurements(T, len(paths))
	for t := 0; t < T; t++ {
		for i, p := range paths {
			sent, lost := int(c.cell(t, int(p))), int(c.cell(t, c.paths+int(p)))
			if lost > sent {
				// A packet sent near an interval boundary can be dropped
				// in the next interval; clamp so the loss is attributed
				// to the interval that observed it.
				lost = sent
			}
			m.Sent[t][i] = sent
			m.Lost[t][i] = lost
		}
	}
	return m
}

// pathsOrAll returns paths, or every path id below n when paths is nil.
func pathsOrAll(paths []graph.PathID, n int) []graph.PathID {
	if paths != nil {
		return paths
	}
	all := make([]graph.PathID, n)
	for i := range all {
		all[i] = graph.PathID(i)
	}
	return all
}

// PathProb pairs a path with its congestion probability.
type PathProb struct {
	Path graph.PathID
	Prob float64
}

// LinkClassTruth summarizes ground truth for one link: the per-path
// congestion probabilities, i.e. for each path through the link, the
// fraction of intervals in which the link dropped at least lossThreshold of
// the path's arriving packets. This is the data behind Figure 10(a).
type LinkClassTruth struct {
	Link graph.LinkID
	// PerPath holds the congestion probability of the link w.r.t. each
	// path that traverses it, in ascending PathID order — a deterministic
	// serialization order by construction.
	PerPath []PathProb
}

// Prob returns the congestion probability of the link w.r.t. path p, or
// NaN when the path does not traverse the link.
func (lt *LinkClassTruth) Prob(p graph.PathID) float64 {
	i := sort.Search(len(lt.PerPath), func(i int) bool { return lt.PerPath[i].Path >= p })
	if i < len(lt.PerPath) && lt.PerPath[i].Path == p {
		return lt.PerPath[i].Prob
	}
	return math.NaN()
}

// GroundTruth computes per-link per-path congestion probabilities over the
// first duration/Interval intervals of the run; it fails unless
// EnableGroundTruth was called. The result is sorted by ascending LinkID
// (one entry per link), and each entry's PerPath by ascending PathID —
// documented keys, so exports never depend on map or scheduling order.
func (c *Collector) GroundTruth(duration Time, lossThreshold float64) ([]LinkClassTruth, error) {
	if c.hopOff == nil {
		return nil, fmt.Errorf("emu: ground truth was not enabled")
	}
	T := min(int(duration/c.Interval), c.rows())
	out := make([]LinkClassTruth, len(c.truthRefs))
	for l, refs := range c.truthRefs {
		lt := LinkClassTruth{Link: graph.LinkID(l), PerPath: make([]PathProb, 0, len(refs))}
		for _, ref := range refs {
			col := c.truthCol + 2*ref.hop
			congested, usable := 0, 0
			for t := 0; t < T; t++ {
				// LinkArrival fires before the drop decision, so arrived
				// already includes every packet later dropped here.
				arrived, dropped := c.cell(t, col), c.cell(t, col+1)
				if arrived == 0 {
					continue
				}
				usable++
				if float64(dropped)/float64(arrived) >= lossThreshold {
					congested++
				}
			}
			prob := math.NaN()
			if usable > 0 {
				prob = float64(congested) / float64(usable)
			}
			lt.PerPath = append(lt.PerPath, PathProb{Path: ref.path, Prob: prob})
		}
		out[l] = lt
	}
	return out, nil
}
