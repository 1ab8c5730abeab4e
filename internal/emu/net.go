package emu

import (
	"fmt"

	"neutrality/internal/graph"
)

// PacketHandler receives packets at their destination end-host. Handlers
// are registered once with Network.RegisterHandler and referenced from
// packets by dense id, which keeps the packet arena pointer-free.
//
// The *Packet passed to HandlePacket points into the network's arena: it
// is read-only and valid only for the duration of the call. Allocating
// new packets inside the handler is safe (reads through the old pointer
// keep observing a consistent snapshot), but the handler must not retain
// the pointer or write through it.
type PacketHandler interface {
	HandlePacket(p *Packet)
}

// DeliverFunc adapts a function to PacketHandler, for tests and one-off
// traffic sources.
type DeliverFunc func(*Packet)

// HandlePacket implements PacketHandler.
func (f DeliverFunc) HandlePacket(p *Packet) { f(p) }

// HandlerID names a registered PacketHandler on a Network. The zero value
// is the first registered handler; senders must always set Packet.Dst.
type HandlerID int32

// Packet is one simulated packet. Data packets traverse the forward links
// of their path and are subject to queueing, differentiation, and loss;
// ACKs return over an uncongested reverse channel modeled as a fixed delay
// (the standard emulation simplification for forward-path studies: the
// paper congests only forward links).
//
// Packets live in a per-Network arena: a contiguous, pointer-free
// []Packet addressed by generation-checked PacketHandles (destinations
// are handler-table ids, so the arena holds no pointers and is invisible
// to the garbage collector). The network reclaims every packet at its
// terminal event (delivered to Dst, or dropped), so senders must not retain one after
// handing it to SendData/SendAck; a steady-state simulation allocates no
// packets at all.
type Packet struct {
	Path  graph.PathID
	Class graph.ClassID
	// Seq is the TCP segment sequence (in segments, not bytes).
	Seq int
	// Ack is the cumulative acknowledgement carried by an ACK packet.
	Ack int
	// Size is the wire size in bytes.
	Size int
	// IsAck marks reverse-direction packets.
	IsAck bool
	// Retx marks retransmissions (excluded from RTT sampling).
	Retx bool
	// Epoch is the sender's transfer generation: a recycled TCP flow bumps
	// it on every new transfer so packets still in flight from a finished
	// transfer are recognized and ignored on arrival.
	Epoch uint32
	// SentAt is the time the packet (this copy) was sent.
	SentAt Time
	// Dst names the registered handler that receives the packet at its
	// destination end-host.
	Dst HandlerID

	hop int32  // current hop index while in flight
	gen uint32 // arena slot generation (incremented on release)
}

// PacketHandle identifies a live packet in a Network's arena. Handles are
// generation-checked like TimerHandles: once the packet reaches its
// terminal event the slot is recycled and stale handles are rejected.
type PacketHandle struct {
	idx int32
	gen uint32
}

// LinkConfig describes one emulated link.
type LinkConfig struct {
	// Capacity in bits per second.
	Capacity float64
	// Delay is the one-way propagation delay in seconds.
	Delay Time
	// QueueBytes is the drop-tail queue limit; 0 derives it from the
	// bandwidth–delay product when the network is built (capacity × the
	// maximum RTT of the paths traversing the link, per Section 6.1).
	QueueBytes int
	// Diff optionally attaches a traffic-differentiation mechanism.
	Diff *Differentiation
}

// minQueueBytes floors a derived drop-tail queue limit: always room for a
// couple of full-size packets even on slow or short-RTT links.
const minQueueBytes = 3000

// minAckDelay is the reverse-channel delay used when a path's residual
// ACK delay is zero: the clock must always advance.
const minAckDelay = 1e-6

// idxRing is a FIFO of packet arena indices backed by a power-of-two
// ring, shared by link and shaper queues: steady-state forwarding
// performs no slice reallocation (the previous slice-shift queues'
// append-after-shift reallocated the backing array on nearly every
// enqueue, the single largest allocation source in profile).
type idxRing struct {
	buf   []int32
	head  int
	count int
}

func (r *idxRing) push(idx int32) {
	if r.count == len(r.buf) {
		grown := make([]int32, max(16, 2*len(r.buf)))
		for i := 0; i < r.count; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.count)&(len(r.buf)-1)] = idx
	r.count++
}

func (r *idxRing) pop() int32 {
	idx := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.count--
	return idx
}

// peek returns the head without removing it.
func (r *idxRing) peek() int32 { return r.buf[r.head] }

// Link is the runtime state of an emulated link. The drop-tail queue
// holds packet arena indices; the packet currently being serialized is
// not in the queue.
type Link struct {
	ID     graph.LinkID
	Name   string
	Cap    float64 // bits/s
	Delay  Time
	QLimit int // bytes

	sim *Sim
	net *Network
	// txLane holds the link's (at most one) pending transmit
	// completion, propLane its propagation arrivals, shared with every
	// link of the same Delay.
	txLane   int32
	propLane int32

	queue  idxRing
	qBytes int
	busy   bool

	// Differentiation state, indexed by class (nil entry = unregulated).
	policers []*tokenBucket
	shapers  []*shaperQueue

	forwarded uint64
	dropped   uint64
}

// QueueBytes returns the current main-queue occupancy in bytes (excluding
// any shaper queues and the packet currently being serialized).
func (l *Link) QueueBytes() int { return l.qBytes }

// ShaperBytes returns the bytes currently buffered in shaper queues.
func (l *Link) ShaperBytes() int {
	total := 0
	for _, s := range l.shapers {
		if s != nil {
			total += s.qBytes
		}
	}
	return total
}

// Forwarded returns the number of packets fully serialized by the link.
func (l *Link) Forwarded() uint64 { return l.forwarded }

// Dropped returns the number of packets the link discarded (queue
// overflow or policer).
func (l *Link) Dropped() uint64 { return l.dropped }

// pathRoute is the forward route and reverse-delay of one path.
type pathRoute struct {
	links    []*Link
	ackDelay Time
	rtt      Time
	// ackLane holds the path's ACKs in flight, shared with every path
	// of the same ackDelay.
	ackLane int32
}

// Hooks receive measurement events from the network. Nil hooks are
// skipped. The *Packet arguments point into the arena and are read-only,
// valid only for the duration of the call.
type Hooks struct {
	// DataSent fires when a data packet enters the network at its source.
	DataSent func(p *Packet)
	// DataDropped fires when a data packet is dropped anywhere (queue
	// overflow or policer).
	DataDropped func(p *Packet, at *Link)
	// LinkArrival fires when a data packet arrives at a link, before the
	// link's differentiation and drop decision. A Collector installs it
	// only when ground truth is enabled, so a nil hook costs the
	// forwarding path one branch per hop.
	LinkArrival func(p *Packet, at *Link)
	// Delivered fires when a data packet reaches its destination host.
	Delivered func(p *Packet)
}

// Network is the emulated network: the graph's links instantiated with
// capacities, delays, queues, and differentiation, plus per-path routes
// and the packet arena.
type Network struct {
	Sim   *Sim
	Graph *graph.Network
	Hooks Hooks

	id       int32
	links    []Link
	routes   []pathRoute
	pkts     []Packet
	pktFree  []int32
	handlers []PacketHandler
	shapers  []*shaperQueue
}

// PathRTT records the base round-trip time assigned to each path: forward
// propagation is spread across the path's links and the ACK return channel
// carries the other half.
type PathRTT map[graph.PathID]Time

// Build instantiates the emulated network. linkCfg must cover every link of
// g; rtts must cover every path.
func Build(sim *Sim, g *graph.Network, linkCfg map[graph.LinkID]LinkConfig, rtts PathRTT) (*Network, error) {
	n := &Network{Sim: sim, Graph: g}
	n.id = sim.registerNet(n)
	n.links = make([]Link, g.NumLinks())
	// Events scheduled a fixed delay after the current time come due in
	// the order they were scheduled, whichever link or path they belong
	// to, so one lane serves every link of a given Delay and every path
	// of a given ACK delay. Fewer lanes make a shallower lane tree.
	type delayKey struct {
		kind  EventKind
		delay Time
	}
	delayLanes := map[delayKey]int32{}
	delayLane := func(kind EventKind, delay Time) int32 {
		k := delayKey{kind, delay}
		li, ok := delayLanes[k]
		if !ok {
			li = sim.newLane(kind, n.id, nil)
			delayLanes[k] = li
		}
		return li
	}

	// Forward propagation delay: half the RTT spread evenly over the
	// path's links. When links are shared by paths with different RTTs the
	// first configuration wins for the link delay; per-path residual delay
	// is folded into the ACK channel so each path sees exactly its RTT.
	for i := 0; i < g.NumLinks(); i++ {
		id := graph.LinkID(i)
		cfg, ok := linkCfg[id]
		if !ok {
			return nil, fmt.Errorf("emu: no config for link %s", g.Link(id).Name)
		}
		if cfg.Capacity <= 0 {
			return nil, fmt.Errorf("emu: link %s has non-positive capacity", g.Link(id).Name)
		}
		l := &n.links[i]
		l.ID = id
		l.Name = g.Link(id).Name
		l.Cap = cfg.Capacity
		l.Delay = cfg.Delay
		l.QLimit = cfg.QueueBytes
		l.sim = sim
		l.net = n
		l.txLane = sim.newLane(evTxDone, n.id, nil)
		l.propLane = delayLane(evPropArrive, l.Delay)
		if cfg.Diff != nil {
			if err := l.attachDiff(cfg.Diff); err != nil {
				return nil, err
			}
		}
	}

	n.routes = make([]pathRoute, g.NumPaths())
	for p := 0; p < g.NumPaths(); p++ {
		pid := graph.PathID(p)
		rtt, ok := rtts[pid]
		if !ok {
			return nil, fmt.Errorf("emu: no RTT for path %s", g.Path(pid).Name)
		}
		route := pathRoute{rtt: rtt}
		fwd := Time(0)
		for _, lid := range g.Path(pid).Links {
			l := &n.links[lid]
			route.links = append(route.links, l)
			fwd += l.Delay
		}
		route.ackDelay = rtt - fwd
		if route.ackDelay < 0 {
			return nil, fmt.Errorf("emu: path %s RTT %.4gs smaller than forward propagation %.4gs", g.Path(pid).Name, rtt, fwd)
		}
		route.ackLane = delayLane(evAckDeliver, route.ackDelay)
		n.routes[p] = route
	}

	// Derive BDP queue limits where unset: capacity × max path RTT.
	for i := range n.links {
		l := &n.links[i]
		if l.QLimit > 0 {
			continue
		}
		maxRTT := Time(0)
		for _, pid := range g.PathsThrough(graph.LinkID(i)) {
			if r := n.routes[pid].rtt; r > maxRTT {
				maxRTT = r
			}
		}
		if maxRTT == 0 {
			maxRTT = 0.1
		}
		l.QLimit = int(l.Cap / 8 * maxRTT)
		if l.QLimit < minQueueBytes {
			l.QLimit = minQueueBytes
		}
	}
	return n, nil
}

// Link returns the runtime link with the given ID.
func (n *Network) Link(id graph.LinkID) *Link { return &n.links[id] }

// RegisterHandler adds a packet destination to the network's handler
// table and returns its id for Packet.Dst. Handlers are registered once
// per traffic endpoint (e.g. one per TCP flow slot), never per packet.
func (n *Network) RegisterHandler(h PacketHandler) HandlerID {
	n.handlers = append(n.handlers, h)
	return HandlerID(len(n.handlers) - 1)
}

// NewPacket takes a zeroed packet from the arena's free list (growing the
// arena if it is empty) and returns it with its generation-checked
// handle. The network reclaims packets automatically at their terminal
// event, so a steady-state simulation allocates no packets at all. The
// returned pointer is valid until the next NewPacket call; fill it and
// hand the handle to SendData/SendAck immediately.
func (n *Network) NewPacket() (*Packet, PacketHandle) {
	var idx int32
	if k := len(n.pktFree); k > 0 {
		idx = n.pktFree[k-1]
		n.pktFree = n.pktFree[:k-1]
	} else {
		n.pkts = append(n.pkts, Packet{})
		idx = int32(len(n.pkts) - 1)
	}
	p := &n.pkts[idx]
	*p = Packet{gen: p.gen}
	return p, PacketHandle{idx: idx, gen: p.gen}
}

// Pkt resolves a handle to its packet. It panics on a stale handle (the
// packet already reached its terminal event and the slot was recycled).
func (n *Network) Pkt(h PacketHandle) *Packet {
	p := &n.pkts[h.idx]
	if p.gen != h.gen {
		panic("emu: stale packet handle")
	}
	return p
}

// releasePacket returns an arena slot to the free list; the generation
// bump invalidates outstanding handles.
func (n *Network) releasePacket(idx int32) {
	n.pkts[idx].gen++
	n.pktFree = append(n.pktFree, idx)
}

// SendData injects a data packet at the source of its path. The network
// owns the packet from this point on.
func (n *Network) SendData(h PacketHandle) {
	p := n.Pkt(h)
	p.hop = 0
	p.SentAt = n.Sim.now
	if hk := n.Hooks.DataSent; hk != nil {
		hk(p)
	}
	n.arrive(h.idx)
}

// SendAck returns an acknowledgement to the path's source after the
// reverse-channel delay. ACKs are not subject to loss.
func (n *Network) SendAck(h PacketHandle) {
	p := n.Pkt(h)
	route := &n.routes[p.Path]
	delay := route.ackDelay
	if delay <= 0 {
		delay = minAckDelay
	}
	n.Sim.lanePush(route.ackLane, n.Sim.now+delay, h.idx, p.gen)
}

// txDone dispatches an evTxDone: the link at the packet's current hop
// finished serializing it.
func (n *Network) txDone(idx int32, gen uint32) {
	p := &n.pkts[idx]
	if p.gen != gen {
		panic("emu: transmit event for a recycled packet")
	}
	n.routes[p.Path].links[p.hop].txDone(idx, p)
}

// propArrive dispatches an evPropArrive: the packet finished propagating
// and arrives at its next hop.
func (n *Network) propArrive(idx int32, gen uint32) {
	p := &n.pkts[idx]
	if p.gen != gen {
		panic("emu: propagation event for a recycled packet")
	}
	p.hop++
	n.arrive(idx)
}

// ackDeliver dispatches an evAckDeliver: hand the ACK to its destination
// and recycle it.
func (n *Network) ackDeliver(idx int32, gen uint32) {
	p := &n.pkts[idx]
	if p.gen != gen {
		panic("emu: ack event for a recycled packet")
	}
	n.handlers[p.Dst].HandlePacket(p)
	n.releasePacket(idx)
}

// arrive processes a data packet arriving at its current hop.
func (n *Network) arrive(idx int32) {
	p := &n.pkts[idx]
	route := &n.routes[p.Path]
	if int(p.hop) >= len(route.links) {
		if h := n.Hooks.Delivered; h != nil {
			h(p)
		}
		n.handlers[p.Dst].HandlePacket(p)
		n.releasePacket(idx)
		return
	}
	l := route.links[p.hop]
	if h := n.Hooks.LinkArrival; h != nil {
		h(p, l)
	}
	l.receive(idx, p)
}

// receive runs the link's differentiation stage and then enqueues.
func (l *Link) receive(idx int32, p *Packet) {
	if l.policers != nil {
		if tb := l.policers[p.Class]; tb != nil {
			if !tb.take(l.sim.now, p.Size) {
				l.drop(idx, p)
				return
			}
		}
	}
	if l.shapers != nil {
		if sq := l.shapers[p.Class]; sq != nil {
			sq.submit(idx, p)
			return
		}
	}
	l.enqueue(idx, p)
}

// enqueue places the packet in the main drop-tail queue.
func (l *Link) enqueue(idx int32, p *Packet) {
	if l.qBytes+p.Size > l.QLimit {
		l.drop(idx, p)
		return
	}
	l.queue.push(idx)
	l.qBytes += p.Size
	if !l.busy {
		l.transmitNext()
	}
}

// transmitNext starts serializing the packet at the head of the queue;
// the evTxDone event fires when the last bit is on the wire.
func (l *Link) transmitNext() {
	if l.queue.count == 0 {
		l.busy = false
		return
	}
	l.busy = true
	idx := l.queue.pop()
	p := &l.net.pkts[idx]
	l.qBytes -= p.Size
	txTime := Time(p.Size*8) / l.Cap
	l.sim.lanePush(l.txLane, l.sim.now+txTime, idx, p.gen)
}

// txDone finishes the packet's transmission: propagation happens in
// parallel with the next transmission.
func (l *Link) txDone(idx int32, p *Packet) {
	l.forwarded++
	l.sim.lanePush(l.propLane, l.sim.now+l.Delay, idx, p.gen)
	l.transmitNext()
}

// drop discards the packet and recycles it.
func (l *Link) drop(idx int32, p *Packet) {
	l.dropped++
	if h := l.net.Hooks.DataDropped; h != nil {
		h(p, l)
	}
	l.net.releasePacket(idx)
}
