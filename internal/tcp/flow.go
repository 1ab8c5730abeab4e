package tcp

import (
	"math"

	"neutrality/internal/emu"
	"neutrality/internal/graph"
)

// Segment and timer constants.
const (
	// MSS is the segment size in bytes (one packet per segment).
	MSS = 1500
	// AckSize is the wire size of an acknowledgement.
	AckSize = 40
	// MinRTO and MaxRTO bound the retransmission timer (Linux-like floor;
	// RFC 6298 backoff cap).
	MinRTO = 0.2
	MaxRTO = 60
	// InitialRTO applies before the first RTT sample.
	InitialRTO = 1.0
)

// FlowConfig parameterizes one TCP transfer.
type FlowConfig struct {
	Path  graph.PathID
	Class graph.ClassID
	// SizeSegments is the number of MSS-sized segments to transfer.
	SizeSegments int
	// CC selects the congestion controller ("newreno" or "cubic").
	CC string
	// OnComplete is invoked once, when the last segment is acknowledged.
	OnComplete func(f *Flow)
}

// Per-segment sender-state flags (segRing.flags).
const (
	segHasTime uint8 = 1 << iota // first-transmission time recorded
	segRetxed                    // Karn's algorithm: no sampling from retransmits
)

// segRing stores per-segment sender state (first-transmission time and
// retransmission marks) for the outstanding window [highestAcked,
// maxSent) in a power-of-two ring indexed by sequence number, replacing
// per-segment map operations on the ACK-clocked hot path. Entries are
// cleared as the cumulative ACK advances, exactly where the map-based
// implementation deleted them.
type segRing struct {
	sentAt []float64
	flags  []uint8
}

func (r *segRing) init() {
	if r.sentAt == nil {
		r.sentAt = make([]float64, 64)
		r.flags = make([]uint8, 64)
	}
}

// grow doubles the ring until span sequence numbers fit, reindexing the
// live window [lo, hi).
func (r *segRing) grow(span, lo, hi int) {
	n := len(r.flags)
	for n <= span {
		n *= 2
	}
	sentAt := make([]float64, n)
	flags := make([]uint8, n)
	oldMask := len(r.flags) - 1
	for seq := lo; seq < hi; seq++ {
		sentAt[seq&(n-1)] = r.sentAt[seq&oldMask]
		flags[seq&(n-1)] = r.flags[seq&oldMask]
	}
	r.sentAt, r.flags = sentAt, flags
}

func (r *segRing) reset() {
	clear(r.flags)
}

// boolRing is a window-relative set of sequence numbers (the receiver's
// out-of-order buffer), a power-of-two ring of presence bits.
type boolRing struct {
	set []bool
}

func (r *boolRing) init() {
	if r.set == nil {
		r.set = make([]bool, 64)
	}
}

// grow doubles the ring until span fits, reindexing the live window.
// Every stored sequence satisfied seq-lo < cap when stored and lo only
// advances, so the live entries all fall in (lo, lo+cap] and each old
// slot corresponds to exactly one sequence in that range.
func (r *boolRing) grow(span, lo int) {
	old := r.set
	n := len(old)
	for n <= span {
		n *= 2
	}
	set := make([]bool, n)
	oldMask := len(old) - 1
	for seq := lo + 1; seq <= lo+len(old); seq++ {
		set[seq&(n-1)] = old[seq&oldMask]
	}
	r.set = set
}

func (r *boolRing) reset() {
	clear(r.set)
}

// Flow is one TCP connection: sender and receiver state folded into a
// single object, exchanging packets through the emulated network (data
// forward, ACKs over the reverse channel). Flows pull packets from the
// network's arena and arm the retransmission timer as a typed
// KindRTOFire event; per-segment state lives in window rings, so a
// running flow performs no per-segment map operations and allocates
// nothing per segment. A finished Flow can be recycled for a new
// transfer with Restart.
type Flow struct {
	net *emu.Network
	sim *emu.Sim
	cfg FlowConfig
	cc  CongestionControl
	dst emu.HandlerID

	// epoch is the transfer generation: packets carry it, and arrivals
	// from a previous transfer of a recycled Flow are ignored, exactly as
	// they were when each transfer had its own Flow object.
	epoch uint32

	// Sender state (sequence numbers count segments).
	nextSeq          int
	maxSent          int // highest sequence ever transmitted (exclusive)
	highestAcked     int
	dupAcks          int
	inRecovery       bool
	recover          int
	firstPartialSeen bool
	segs             segRing // first-tx times + retx marks for the window

	srtt, rttvar, rto float64
	rtoTimer          emu.TimerHandle
	backoff           float64

	// Receiver state.
	rcvNext  int
	buffered boolRing

	started  float64
	finished float64
	done     bool

	// Stats.
	SentSegments   int
	RetxSegments   int
	TimeoutEvents  int
	FastRetxEvents int
}

// Start launches the flow on the network.
func Start(net *emu.Network, cfg FlowConfig) *Flow {
	cc, err := NewCC(cfg.CC)
	if err != nil {
		panic(err)
	}
	if cfg.SizeSegments < 1 {
		cfg.SizeSegments = 1
	}
	f := &Flow{
		net:     net,
		sim:     net.Sim,
		cfg:     cfg,
		cc:      cc,
		rto:     InitialRTO,
		backoff: 1,
		started: net.Sim.Now(),
	}
	f.dst = net.RegisterHandler(f)
	f.segs.init()
	f.buffered.init()
	f.maybeSend()
	return f
}

// Restart begins a new transfer on a finished flow, reusing its rings,
// congestion controller, and identity on the network. Workload slots run
// one transfer at a time, so recycling the Flow keeps long runs from
// allocating per transfer; the epoch bump makes packets still in flight
// from the finished transfer inert, exactly as if they had arrived at the
// old, completed Flow object.
func (f *Flow) Restart(cfg FlowConfig) {
	if !f.done {
		panic("tcp: Restart on an unfinished flow")
	}
	if cfg.SizeSegments < 1 {
		cfg.SizeSegments = 1
	}
	if cfg.CC != f.cfg.CC {
		cc, err := NewCC(cfg.CC)
		if err != nil {
			panic(err)
		}
		f.cc = cc
	} else {
		f.cc.Reset()
	}
	f.cfg = cfg
	f.epoch++
	f.nextSeq, f.maxSent, f.highestAcked = 0, 0, 0
	f.dupAcks = 0
	f.inRecovery, f.firstPartialSeen = false, false
	f.recover = 0
	f.segs.reset()
	f.buffered.reset()
	f.srtt, f.rttvar = 0, 0
	f.rto, f.backoff = InitialRTO, 1
	f.rtoTimer = emu.TimerHandle{}
	f.rcvNext = 0
	f.started, f.finished, f.done = f.sim.Now(), 0, false
	f.SentSegments, f.RetxSegments, f.TimeoutEvents, f.FastRetxEvents = 0, 0, 0, 0
	f.maybeSend()
}

// Done reports completion.
func (f *Flow) Done() bool { return f.done }

// Duration returns the flow completion time (0 if unfinished).
func (f *Flow) Duration() float64 {
	if !f.done {
		return 0
	}
	return f.finished - f.started
}

func (f *Flow) inflight() int {
	fl := f.nextSeq - f.highestAcked
	if f.inRecovery {
		// Window inflation: each duplicate ACK signals a segment that left
		// the network.
		fl -= f.dupAcks
	}
	if fl < 0 {
		fl = 0
	}
	return fl
}

func (f *Flow) maybeSend() {
	if f.done {
		return
	}
	for f.nextSeq < f.cfg.SizeSegments && float64(f.inflight()) < f.cc.Cwnd() {
		// After an RTO the send pointer rewinds to the cumulative ACK
		// (go-back-N); anything below maxSent is a retransmission.
		f.sendSegment(f.nextSeq, f.nextSeq < f.maxSent)
		f.nextSeq++
		if f.nextSeq > f.maxSent {
			f.maxSent = f.nextSeq
		}
	}
	f.armRTOIfIdle()
}

func (f *Flow) sendSegment(seq int, retx bool) {
	f.SentSegments++
	if span := seq - f.highestAcked; span >= len(f.segs.flags) {
		f.segs.grow(span, f.highestAcked, f.maxSent)
	}
	if retx {
		f.RetxSegments++
		// Record the retransmission mark only for segments at or above the
		// cumulative ACK. After a timeout rewind, a cumulative ACK jump can
		// overtake the rewound send pointer, and the go-back-N loop then
		// re-sends already-acknowledged segments; their per-segment state is
		// never consulted again (RTT sampling and window clearing only look
		// at [highestAcked, maxSent)), so recording it would only poison the
		// ring slot for the sequence that reuses it a window later.
		if seq >= f.highestAcked {
			f.segs.flags[seq&(len(f.segs.flags)-1)] |= segRetxed
		}
	} else {
		slot := seq & (len(f.segs.flags) - 1)
		f.segs.sentAt[slot] = f.sim.Now()
		f.segs.flags[slot] = segHasTime
	}
	pkt, h := f.net.NewPacket()
	pkt.Path = f.cfg.Path
	pkt.Class = f.cfg.Class
	pkt.Seq = seq
	pkt.Size = MSS
	pkt.Retx = retx
	pkt.Epoch = f.epoch
	pkt.Dst = f.dst
	f.net.SendData(h)
}

// HandlePacket implements emu.PacketHandler: data packets arrive at the
// receiver side, ACKs at the sender side. Packets from a previous
// transfer of a recycled Flow carry a stale epoch and are ignored.
func (f *Flow) HandlePacket(p *emu.Packet) {
	if p.Epoch != f.epoch {
		return
	}
	if p.IsAck {
		f.onAckArrive(p)
	} else {
		f.onDataArrive(p)
	}
}

// OnEvent implements emu.Handler: the retransmission timer.
func (f *Flow) OnEvent(kind emu.EventKind, _ int32) {
	if kind != emu.KindRTOFire {
		return
	}
	f.rtoTimer = emu.TimerHandle{}
	f.onTimeout()
}

// onDataArrive is the receiver side: cumulative ACK generation.
func (f *Flow) onDataArrive(p *emu.Packet) {
	if f.done {
		return
	}
	seq := p.Seq
	if seq == f.rcvNext {
		f.rcvNext++
		mask := len(f.buffered.set) - 1
		for f.buffered.set[f.rcvNext&mask] {
			f.buffered.set[f.rcvNext&mask] = false
			f.rcvNext++
		}
	} else if seq > f.rcvNext {
		if span := seq - f.rcvNext; span >= len(f.buffered.set) {
			f.buffered.grow(span, f.rcvNext)
		}
		f.buffered.set[seq&(len(f.buffered.set)-1)] = true
	}
	ack, h := f.net.NewPacket()
	ack.Path = f.cfg.Path
	ack.Class = f.cfg.Class
	ack.Ack = f.rcvNext
	ack.Size = AckSize
	ack.IsAck = true
	ack.Epoch = f.epoch
	ack.Dst = f.dst
	f.net.SendAck(h)
}

// onAckArrive is the sender side: NewReno-style ACK clocking.
func (f *Flow) onAckArrive(p *emu.Packet) {
	if f.done {
		return
	}
	ack := p.Ack
	switch {
	case ack > f.highestAcked:
		f.newAck(ack)
	case ack == f.highestAcked:
		f.dupAck()
	}
}

func (f *Flow) newAck(ack int) {
	mask := len(f.segs.flags) - 1
	// RTT sample: only when the ACK advances by exactly one segment.
	// After a recovery hole fills, the cumulative ACK jumps over segments
	// that sat in the receiver's reorder buffer; timing those would
	// charge the whole recovery episode to the path RTT.
	if ack == f.highestAcked+1 {
		if fl := f.segs.flags[(ack-1)&mask]; fl&segHasTime != 0 && fl&segRetxed == 0 {
			f.updateRTT(f.sim.Now() - f.segs.sentAt[(ack-1)&mask])
		}
	}
	for seq := f.highestAcked; seq < ack; seq++ {
		f.segs.flags[seq&mask] = 0
	}
	f.highestAcked = ack
	f.dupAcks = 0

	rearm := true
	if f.inRecovery {
		if ack >= f.recover {
			// Full ACK: leave recovery with the deflated window.
			f.inRecovery = false
			f.backoff = 1
		} else {
			// Partial ACK: the next hole was also lost; retransmit it and
			// stay in recovery. Per the "Impatient" NewReno variant, only
			// the first partial ACK resets the retransmission timer, so a
			// long multi-hole recovery eventually falls back to RTO-driven
			// slow start instead of dribbling one hole per RTT.
			f.sendSegment(f.highestAcked, true)
			if !f.firstPartialSeen {
				f.firstPartialSeen = true
			} else {
				rearm = false
			}
		}
	} else {
		f.backoff = 1
		f.cc.OnAck(f.sim.Now(), f.srtt)
	}

	if f.highestAcked >= f.cfg.SizeSegments {
		f.complete()
		return
	}
	if rearm {
		f.armRTO()
	} else {
		f.armRTOIfIdle()
	}
	f.maybeSend()
}

func (f *Flow) dupAck() {
	f.dupAcks++
	if !f.inRecovery && f.dupAcks == 3 {
		f.FastRetxEvents++
		f.cc.OnLoss(f.sim.Now(), float64(f.nextSeq-f.highestAcked))
		f.inRecovery = true
		f.firstPartialSeen = false
		f.recover = f.nextSeq
		f.sendSegment(f.highestAcked, true)
		f.armRTO()
		return
	}
	if f.inRecovery {
		f.maybeSend() // window inflation admits new segments
	}
}

func (f *Flow) updateRTT(sample float64) {
	if sample <= 0 {
		return
	}
	if f.srtt == 0 {
		f.srtt = sample
		f.rttvar = sample / 2
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		f.rttvar = (1-beta)*f.rttvar + beta*math.Abs(f.srtt-sample)
		f.srtt = (1-alpha)*f.srtt + alpha*sample
	}
	f.rto = f.srtt + 4*f.rttvar
	if f.rto < MinRTO {
		f.rto = MinRTO
	}
	if f.rto > MaxRTO {
		f.rto = MaxRTO
	}
}

// armRTO (re)starts the retransmission timer unconditionally.
func (f *Flow) armRTO() {
	if f.done {
		return
	}
	f.rtoTimer.Cancel()
	f.rtoTimer = emu.TimerHandle{}
	if f.highestAcked >= f.nextSeq {
		return // nothing outstanding
	}
	d := f.rto * f.backoff
	if d > MaxRTO {
		d = MaxRTO
	}
	f.rtoTimer = f.sim.AfterEvent(d, emu.KindRTOFire, f, 0)
}

// armRTOIfIdle starts the timer only when none is pending, so that a
// deliberately un-reset timer (Impatient NewReno) keeps ticking.
func (f *Flow) armRTOIfIdle() {
	if f.rtoTimer == (emu.TimerHandle{}) {
		f.armRTO()
	}
}

func (f *Flow) onTimeout() {
	if f.done || f.highestAcked >= f.nextSeq {
		return
	}
	f.TimeoutEvents++
	f.cc.OnTimeout(f.sim.Now(), float64(f.nextSeq-f.highestAcked))
	f.inRecovery = false
	f.dupAcks = 0
	f.backoff *= 2
	if f.backoff > 64 {
		f.backoff = 64
	}
	// Go-back-N: everything outstanding is presumed lost; rewind the send
	// pointer so slow start retransmits from the hole. Segments the
	// receiver already buffered are re-acked cumulatively at once.
	f.nextSeq = f.highestAcked
	f.maybeSend()
	f.armRTO()
}

func (f *Flow) complete() {
	f.done = true
	f.finished = f.sim.Now()
	f.rtoTimer.Cancel()
	f.rtoTimer = emu.TimerHandle{}
	if f.cfg.OnComplete != nil {
		f.cfg.OnComplete(f)
	}
}
