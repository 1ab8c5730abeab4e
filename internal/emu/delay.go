package emu

import (
	"fmt"

	"neutrality/internal/graph"
	"neutrality/internal/measure"
)

// Delay-based congestion observations — the extension sketched in the
// paper's Section 7 ("Performance metrics"): convert latency into a
// pathset-compatible metric by defining a path as congested in an interval
// when too many of its packets exceed a delay threshold. The resulting
// per-interval counts feed the standard Algorithm 2 + Algorithm 1 pipeline
// unchanged (delivered packets play the role of "sent", late packets the
// role of "lost").
//
// This matters for differentiation that buffers rather than drops: a
// shaper with a deep queue inflicts delay, not loss, and is invisible to
// the loss-frequency metric.

// EnableDelayTracking starts classifying every delivered data packet as
// on-time or late. A packet is late when its one-way delay exceeds the
// path's *neutral delay envelope* — propagation + transmission + factor ×
// the worst-case main-queue residence along the path. Delay beyond the
// envelope can only come from an additional buffering stage (e.g. a
// shaper's dedicated queue), which is exactly the differentiation this
// metric is meant to expose. factor 1 is the exact envelope; smaller
// values make the detector more sensitive (and more prone to flagging
// ordinary standing queues). It must be called before the run starts.
func (c *Collector) EnableDelayTracking(n *Network, factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("emu: delay factor %v must be positive", factor)
	}
	if c.lateAfter != nil {
		return fmt.Errorf("emu: delay tracking already enabled")
	}
	lateAfter := make([]Time, c.paths)
	for p := range lateAfter {
		base, queue := Time(0), Time(0)
		for _, lid := range n.Graph.Path(graph.PathID(p)).Links {
			l := n.Link(lid)
			base += l.Delay + 1500*8/l.Cap
			queue += float64(l.QLimit) * 8 / l.Cap
		}
		lateAfter[p] = base + factor*queue
	}
	col, err := c.addColumns("delay tracking", 2*c.paths)
	if err != nil {
		return err
	}
	c.delayCol, c.lateAfter = col, lateAfter
	prev := n.Hooks.Delivered
	n.Hooks.Delivered = func(pkt *Packet) {
		if prev != nil {
			prev(pkt)
		}
		r := c.row(c.intervalOf(n.Sim.now))
		r[c.delayCol+int(pkt.Path)]++
		if n.Sim.now-pkt.SentAt > c.lateAfter[pkt.Path] {
			r[c.delayCol+c.paths+int(pkt.Path)]++
		}
	}
	return nil
}

// DelayMeasurements exports latency-based observations in the standard
// Measurements shape: Sent = delivered packets, Lost = late packets. Feed
// the result to the normal inference pipeline with a loss threshold
// reinterpreted as a lateness-fraction threshold.
func (c *Collector) DelayMeasurements(duration Time, paths []graph.PathID) (*measure.Measurements, error) {
	if c.lateAfter == nil {
		return nil, fmt.Errorf("emu: delay tracking was not enabled")
	}
	T := int(duration / c.Interval)
	paths = pathsOrAll(paths, c.paths)
	m := measure.NewMeasurements(T, len(paths))
	for t := 0; t < T; t++ {
		for i, p := range paths {
			m.Sent[t][i] = int(c.cell(t, c.delayCol+int(p)))
			m.Lost[t][i] = int(c.cell(t, c.delayCol+c.paths+int(p)))
		}
	}
	return m, nil
}
