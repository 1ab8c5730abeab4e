package emu

import (
	"math"
	"sort"
	"testing"

	"neutrality/internal/graph"
)

// refTruth is an independent, map-based reimplementation of the ground
// truth accounting, keyed by (interval, link, path). The tests wrap the
// network hooks to feed it in parallel with the collector and then
// require exact agreement, so the collector's route-hop columns are
// checked against the recorded map semantics on every scenario.
type refTruth struct {
	interval Time
	counts   map[[3]int][2]int // (interval, link, path) -> {arrived, dropped}
}

func newRefTruth(n *Network, interval Time) *refTruth {
	r := &refTruth{interval: interval, counts: map[[3]int][2]int{}}
	prevArr := n.Hooks.LinkArrival
	n.Hooks.LinkArrival = func(p *Packet, at *Link) {
		if prevArr != nil {
			prevArr(p, at)
		}
		k := [3]int{int(n.Sim.Now() / r.interval), int(at.ID), int(p.Path)}
		e := r.counts[k]
		e[0]++
		r.counts[k] = e
	}
	prevDrop := n.Hooks.DataDropped
	n.Hooks.DataDropped = func(p *Packet, at *Link) {
		if prevDrop != nil {
			prevDrop(p, at)
		}
		k := [3]int{int(n.Sim.Now() / r.interval), int(at.ID), int(p.Path)}
		e := r.counts[k]
		e[1]++
		r.counts[k] = e
	}
	return r
}

// groundTruth mirrors Collector.GroundTruth on the reference counts.
func (r *refTruth) groundTruth(n *Network, duration Time, lossThreshold float64, maxInterval int) []LinkClassTruth {
	T := int(duration / r.interval)
	if T > maxInterval {
		T = maxInterval
	}
	out := make([]LinkClassTruth, n.Graph.NumLinks())
	for l := 0; l < n.Graph.NumLinks(); l++ {
		lt := LinkClassTruth{Link: graph.LinkID(l)}
		for _, p := range n.Graph.PathsThrough(graph.LinkID(l)) {
			congested, usable := 0, 0
			for t := 0; t < T; t++ {
				e := r.counts[[3]int{t, l, int(p)}]
				if e[0] == 0 {
					continue
				}
				usable++
				if float64(e[1])/float64(e[0]) >= lossThreshold {
					congested++
				}
			}
			prob := math.NaN()
			if usable > 0 {
				prob = float64(congested) / float64(usable)
			}
			lt.PerPath = append(lt.PerPath, PathProb{Path: p, Prob: prob})
		}
		sort.Slice(lt.PerPath, func(i, j int) bool { return lt.PerPath[i].Path < lt.PerPath[j].Path })
		out[l] = lt
	}
	return out
}

// truthCollector attaches a collector with ground truth enabled.
func truthCollector(t *testing.T, n *Network, interval Time) *Collector {
	t.Helper()
	col := NewCollector(n, interval)
	if err := col.EnableGroundTruth(n); err != nil {
		t.Fatal(err)
	}
	return col
}

// groundTruth reads the collector's truth at loss threshold 0.01.
func groundTruth(t *testing.T, col *Collector, duration Time) []LinkClassTruth {
	t.Helper()
	truth, err := col.GroundTruth(duration, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return truth
}

func truthEqual(t *testing.T, got, want []LinkClassTruth) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("truth for %d links, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Link != w.Link || len(g.PerPath) != len(w.PerPath) {
			t.Fatalf("link %d: shape mismatch: %+v vs %+v", i, g, w)
		}
		for j := range g.PerPath {
			gp, wp := g.PerPath[j], w.PerPath[j]
			if gp.Path != wp.Path {
				t.Fatalf("link %d entry %d: path %d vs %d", i, j, gp.Path, wp.Path)
			}
			if !(gp.Prob == wp.Prob || (math.IsNaN(gp.Prob) && math.IsNaN(wp.Prob))) {
				t.Fatalf("link %d path %d: prob %v vs %v", i, gp.Path, gp.Prob, wp.Prob)
			}
		}
	}
}

// TestGroundTruthPolicerMatchesMapReference drives a policed two-class
// network and requires the collector's ground truth to match the
// reference map-based accounting exactly: policer drops are charged to
// the differentiating link for the regulated class only.
func TestGroundTruthPolicerMatchesMapReference(t *testing.T) {
	sim, net := diffNet(t, &Differentiation{
		Kind: Police,
		Rate: map[graph.ClassID]float64{1: 0.2},
	})
	const interval = 0.1
	col := truthCollector(t, net, interval)
	ref := newRefTruth(net, interval)
	blast(sim, net, 0, 0, 400, 400)
	blast(sim, net, 1, 1, 800, 800)
	sim.Run(4)

	got := groundTruth(t, col, 4)
	want := ref.groundTruth(net, 4, 0.01, col.rows())
	truthEqual(t, got, want)

	// The policed class must show congestion on the shared link; the
	// unpoliced class must not.
	sh, _ := net.Graph.LinkByName("shared")
	lt := got[sh.ID]
	if p0, p1 := lt.Prob(0), lt.Prob(1); !(p1 > 0 && p0 == 0) {
		t.Fatalf("policer truth: path0=%v path1=%v, want drops only on the policed class", p0, p1)
	}
}

// TestGroundTruthShaperMatchesMapReference drives a shaped class hard
// enough to overflow its shaper queue and checks collector-vs-reference
// equality again: shaper-queue drops are ground-truth drops at the link.
func TestGroundTruthShaperMatchesMapReference(t *testing.T) {
	sim, net := diffNet(t, &Differentiation{
		Kind:             Shape,
		Rate:             map[graph.ClassID]float64{1: 0.1},
		ShaperQueueBytes: 15000,
	})
	const interval = 0.1
	col := truthCollector(t, net, interval)
	ref := newRefTruth(net, interval)
	blast(sim, net, 1, 1, 400, 4000)
	sim.Run(10)

	got := groundTruth(t, col, 10)
	want := ref.groundTruth(net, 10, 0.01, col.rows())
	truthEqual(t, got, want)

	sh, _ := net.Graph.LinkByName("shared")
	if p1 := got[sh.ID].Prob(1); !(p1 > 0) {
		t.Fatalf("shaper overflow produced no ground-truth congestion: %v", p1)
	}
	// Shaper delay alone (class under the rate) must not appear as loss.
	if d := net.Link(sh.ID).Dropped(); d == 0 {
		t.Fatal("scenario did not overflow the shaper queue")
	}
}

// TestGroundTruthIntervalEdges pins the interval-growth corners of the
// counter table: a packet landing exactly on an interval boundary is
// charged to the interval it opens, idle intervals stay all-zero (NaN
// probabilities, no phantom rows), and reading truth never grows the
// table.
func TestGroundTruthIntervalEdges(t *testing.T) {
	cfg := LinkConfig{Capacity: 1e6, Delay: 0, QueueBytes: 1 << 20}
	sim, net := twoHop(t, cfg, cfg, 0.1)
	const interval = 0.5
	col := truthCollector(t, net, interval)
	dst := net.RegisterHandler(DeliverFunc(func(p *Packet) {}))

	// One packet exactly at t=0 (opens interval 0), one exactly on the
	// t=1.0 boundary (must land in interval 2, not 1), none in interval 1.
	sendData(net, 0, 0, 1500, dst)
	sim.At(1.0, func() { sendData(net, 0, 1, 1500, dst) })
	sim.Run(2.5)

	if got := col.intervalOf(1.0); got != 2 {
		t.Fatalf("boundary instant charged to interval %d, want 2", got)
	}
	// Arrivals recorded at the first link: interval 0 and 2 only.
	la, _ := net.Graph.LinkByName("la")
	arrivedCol := col.truthCol + 2*col.hopOff[0] // path 0's first hop is la
	for ti, want := range map[int]int32{0: 1, 1: 0, 2: 1} {
		if got := col.cell(ti, arrivedCol); got != want {
			t.Fatalf("interval %d: arrived=%d, want %d", ti, got, want)
		}
	}
	// Truth over a horizon longer than any touched interval: the empty
	// interval contributes nothing (no arrivals -> not usable), and
	// intervals beyond the grown arrays read as zero instead of growing.
	rows := col.rows()
	truth := groundTruth(t, col, 100)
	if col.rows() != rows {
		t.Fatalf("GroundTruth grew the counter table from %d to %d rows", rows, col.rows())
	}
	if p := truth[la.ID].Prob(0); p != 0 {
		t.Fatalf("loss-free run has congestion probability %v", p)
	}
	// A path that never traversed a link reads NaN.
	if p := truth[la.ID].Prob(graph.PathID(99)); !math.IsNaN(p) {
		t.Fatalf("unknown path probability = %v, want NaN", p)
	}
}

// TestGroundTruthExportDeterministic runs the same differentiated
// scenario twice and requires identical PerPath slices — ordering
// included — so truth serialization can never depend on iteration order.
func TestGroundTruthExportDeterministic(t *testing.T) {
	run := func() []LinkClassTruth {
		sim, net := diffNet(t, &Differentiation{
			Kind: Police,
			Rate: map[graph.ClassID]float64{1: 0.2},
		})
		col := truthCollector(t, net, 0.1)
		blast(sim, net, 0, 0, 200, 400)
		blast(sim, net, 1, 1, 400, 800)
		sim.Run(2)
		return groundTruth(t, col, 2)
	}
	a, b := run(), run()
	truthEqual(t, a, b)
	for _, lt := range a {
		if !sort.SliceIsSorted(lt.PerPath, func(i, j int) bool { return lt.PerPath[i].Path < lt.PerPath[j].Path }) {
			t.Fatalf("link %d PerPath not sorted: %+v", lt.Link, lt.PerPath)
		}
	}
}

// TestCollectorColumnsBeforeRun: truth and delay columns are reserved
// only before the first packet event, once each, and truth is read only
// when it was recorded.
func TestCollectorColumnsBeforeRun(t *testing.T) {
	cfg := LinkConfig{Capacity: 1e6, Delay: 0.001}
	sim, net := twoHop(t, cfg, cfg, 0.1)
	col := NewCollector(net, 0.1)
	if _, err := col.GroundTruth(1, 0.01); err == nil {
		t.Fatal("GroundTruth succeeded without EnableGroundTruth")
	}
	if err := col.EnableGroundTruth(net); err != nil {
		t.Fatal(err)
	}
	if err := col.EnableGroundTruth(net); err == nil {
		t.Fatal("double EnableGroundTruth accepted")
	}
	dst := net.RegisterHandler(DeliverFunc(func(p *Packet) {}))
	sendData(net, 0, 0, 1500, dst)
	sim.Run(1)
	if err := col.EnableDelayTracking(net, 1); err == nil {
		t.Fatal("delay tracking enabled after the run started")
	}
	if _, err := col.GroundTruth(1, 0.01); err != nil {
		t.Fatal(err)
	}
}
