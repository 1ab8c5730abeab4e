package emu

import (
	"testing"
)

// TestSteadyStateForwardingAllocations saturates a single bottleneck link
// with self-clocked traffic — every delivery injects the next packet, so
// the queue never drains — with a collector attached, and bounds the
// allocations of a full second of simulated forwarding. Per-packet work
// (arena packets, ring queues, typed events, per-hop ground-truth
// counters) must allocate nothing; the only allowed steady-state
// allocations are the collector's table growth and incidental slice
// growth, so the bound is far below one allocation per forwarded packet.
func TestSteadyStateForwardingAllocations(t *testing.T) {
	cfg := LinkConfig{Capacity: 10e6, Delay: 0.001, QueueBytes: 60000}
	sim, net := twoHop(t, cfg, LinkConfig{Capacity: 1e9, Delay: 0.001, QueueBytes: 1 << 20}, 0.1)
	col := NewCollector(net, 0.1)
	if err := col.EnableGroundTruth(net); err != nil {
		t.Fatal(err)
	}

	var dst HandlerID
	dst = net.RegisterHandler(DeliverFunc(func(p *Packet) {
		// Self-clocking: replace every delivered packet immediately.
		sendData(net, 0, p.Seq+1, 1500, dst)
	}))
	// Fill the queue so the bottleneck stays saturated.
	for i := 0; i < 40; i++ {
		sendData(net, 0, i, 1500, dst)
	}
	// Warm up: grow rings, arenas, and collector rows.
	sim.Run(2)

	const simSeconds = 1.0
	avg := testing.AllocsPerRun(5, func() {
		sim.Run(sim.Now() + simSeconds)
	})
	// ~830 packets/s at 10 Mbps; the collector's table grows by doubling,
	// so it reallocates rarely. Anything per-packet would blow through
	// this bound.
	if avg > 100 {
		t.Fatalf("steady-state forwarding allocates %.0f allocs per %gs of simulated traffic (per-packet allocation leaked back in)", avg, simSeconds)
	}
	l := net.Link(0)
	if l.Forwarded() < 1000 {
		t.Fatalf("scenario not saturated: only %d packets forwarded", l.Forwarded())
	}
}
