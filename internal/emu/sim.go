// Package emu is a deterministic packet-level discrete-event network
// emulator, standing in for the paper's user-level emulator (Section 6.1,
// a ModelNet-like system called LINE). End-hosts exchange TCP traffic
// generated by the internal/tcp package; links have finite capacity,
// propagation delay, and drop-tail queues sized by the bandwidth–delay
// product; traffic differentiation is implemented by token-bucket policers
// and shapers, exactly the two mechanisms the paper deploys. Nothing about
// loss or queueing is sampled from a model — packets are individually
// enqueued, transmitted, and dropped.
//
// # Event engine
//
// The scheduler is allocation-free on its hot path. Events are typed, not
// closures: each carries an EventKind (txDone, propArrive, ackDeliver,
// shaperDrain for the network layer; KindRTOFire, KindFlowStart,
// KindSampleTick for client packages) plus compact integer operands, and
// the run loop dispatches on the kind with a switch. Every event is
// ordered by the IEEE-754 bit pattern of its non-negative time (which
// orders exactly like the float64 value) with a monotonic sequence number,
// taken when the event is scheduled, breaking ties in schedule order. The
// pending events wait in one of two places.
//
// FIFO lanes hold the data path: one transmit lane per link (its at most
// one pending evTxDone), one propagation lane per distinct link Delay
// (evPropArrive at now + Delay) and one ACK lane per distinct path ACK
// delay (evAckDeliver at now + that constant). The clock never runs back
// and each shared lane adds one constant delay, so a lane's times never
// decrease in schedule order; its sequence numbers always increase, so
// each lane is sorted by (time, seq) and only its head competes: a winner
// tree over the lane heads keeps the earliest at its root, and firing a
// head re-plays the ~log2(lanes) matches on one leaf-to-root path. A lane
// push earlier than the lane's tail (someone lowered Link.Delay mid-run)
// becomes an ordinary timer event instead, so lane order is a checked
// invariant, not an assumption.
//
// The timer heap holds everything else — the cancellable evFunc closures
// behind At/After, the exported kinds (RTO, flow start, sample tick),
// shaper drains — in a pointer-free value-typed arena with a free list,
// ordered by a 4-ary min-heap whose entries carry the ordering key inline
// so sift comparisons never touch the arena. Timers are identified by
// generation-checked handles (TimerHandle); cancelling physically removes
// the entry and recycles the slot, and a stale handle held after the
// event fired cancels nothing. Closures and Handler references live in
// small parallel slices so the arena stays invisible to the garbage
// collector.
//
// Each step fires the smaller of the tree root and the heap root by
// (time, seq). Both are minima of their sets, so the step fires the global
// (time, seq) minimum of every pending event — exactly the event a single
// heap of all events would pop. A lane changes only where an event
// waits, never its time or its sequence number (both are taken in the
// call that schedules it), so the firing order is that of one heap by
// construction. The split is a speed choice: roughly nine in ten events
// are transmit completions and propagation arrivals, and they merge
// among a few dozen lane heads instead of sifting past every armed RTO
// timer and idle flow-start slot, while RTO re-arming churns only the
// timer heap.
//
// # Packet arena and index-based queues
//
// Packets live in a per-Network value-typed arena ([]Packet, pointer-free:
// destinations are indices into a handler table, not interface values)
// addressed by generation-checked PacketHandles. Link and shaper queues
// hold packet indices in power-of-two rings, so the steady-state
// forwarding path allocates nothing and walks contiguous memory; the
// collector counts into one flat interval-major table. Invariants: a
// live packet is owned by exactly one pending event (its transmit
// completion, next propagation arrival, or ACK delivery), by exactly one
// link or shaper ring, or by the current call stack; packet and timer
// arena slots are generation-checked so a stale handle or event can never
// act on a recycled slot.
//
// Fully batched link transmission — computing a queued run's departure
// times at enqueue and scheduling propagation arrivals without any
// per-packet transmit-complete event — was prototyped and rejected. The
// main queue is FIFO and admission-drop-only, so departure times ARE
// fixed at enqueue; but ACK-clocked flows phase-lock onto the
// bottleneck's departure grid, making bitwise-equal event timestamps
// systematic, and the engine resolves such ties in schedule order. A
// propagation arrival's place in that order is assigned when its
// transmit-complete event fires — at the departure instant — and
// reproducing it from enqueue time requires the scheduling lineage of
// every queued predecessor (an unbounded recursive key). Removing the
// per-packet evTxDone therefore cannot stay byte-identical with the
// recorded goldens; the event remains, and the engine takes its speed
// from the data-path layout instead. The lanes above are not batching:
// every evTxDone still fires, and each propagation arrival still takes
// its sequence number when its evTxDone fires; only the place where the
// event waits changed.
//
// A quantized integer nanosecond clock was considered and rejected:
// rounding timestamps to any fixed tick perturbs RTT samples and
// token-bucket refills by up to half a tick, which flips marginal cwnd and
// policer comparisons and diverges entire runs. The bit-pattern key gives
// the heap pure integer comparisons while every timestamp stays bit-exact
// with the float arithmetic of the rest of the emulator, so the engine
// rewrite is provably output-preserving.
//
// Determinism: all randomness flows through an explicitly seeded source,
// and simultaneous events fire in schedule order, so a seed fully
// reproduces a run.
package emu

import (
	"context"
	"fmt"
	"math"
)

// Time is simulated time in seconds.
type Time = float64

// EventKind identifies the typed payload of a scheduled event. The
// unexported kinds are dispatched inside this package; the exported ones
// are scheduled by client packages through AtEvent/AfterEvent and
// delivered to their Handler.
type EventKind uint8

const (
	evNone EventKind = iota
	// evFunc is the generic closure event behind At/After.
	evFunc
	// evTxDone: the link at the packet's current hop finished serializing
	// the packet.
	evTxDone
	// evPropArrive: a packet finished propagating over a link and
	// arrives at its next hop (or destination).
	evPropArrive
	// evAckDeliver: an acknowledgement crossed the reverse channel.
	evAckDeliver
	// evShaperDrain: a shaper queue has accumulated tokens to release.
	evShaperDrain

	// KindRTOFire is a TCP retransmission timeout (armed by internal/tcp).
	KindRTOFire
	// KindFlowStart starts the next transfer of a workload slot.
	KindFlowStart
	// KindSampleTick samples queue occupancy for a trace.
	KindSampleTick
)

// Handler receives typed timer events scheduled with AtEvent/AfterEvent.
// Implementations should be pointer types so that scheduling does not
// allocate.
type Handler interface {
	OnEvent(kind EventKind, arg int32)
}

// timer is one arena slot: scheduling bookkeeping plus the compact typed
// operands of the event. The struct is pointer-free — closures (evFunc)
// and Handlers (exported kinds) live in the parallel fns/hs slices — so
// the arena is never scanned by the garbage collector. Slots are recycled
// through the free list; gen distinguishes incarnations so stale handles
// are inert.
type timer struct {
	at  Time
	gen uint32
	// pos is the slot's index in Sim.heap, -1 while free or fired.
	pos int32
	// Typed operands; only the fields the scheduled kind needs are set.
	// Internal kinds: a = network id, b = packet index (evPropArrive,
	// evAckDeliver) or shaper index (evShaperDrain), c = packet
	// generation. Exported kinds: a = the Handler argument.
	a    int32
	b    int32
	c    uint32
	kind EventKind
}

// heapEnt is one timer-heap or lane-tree entry: the integer ordering key
// (bit pattern of the non-negative event time) and the tie-breaking
// sequence number packed with the arena slot index (timer heap) or lane
// index (lane tree). Carrying the key here keeps comparisons inside the
// contiguous slice instead of chasing arena slots or lanes, and the
// 16-byte entry puts a 4-ary node's children in a single cache line.
//
// seqIdx is seq<<seqShift | idx. Sequence numbers are globally unique, so
// comparing the packed word compares seq; the low idx bits never decide.
type heapEnt struct {
	key    uint64
	seqIdx uint64
}

// seqShift leaves the low bits of seqIdx for the arena index. 2^24 slots
// bound the arena (tens of millions of concurrently pending timers —
// far beyond any run; schedule panics if ever exceeded) and leave 2^40
// sequence numbers, monotone for a trillion schedule calls per run.
const seqShift = 24

func (e heapEnt) idx() int32 { return int32(e.seqIdx & (1<<seqShift - 1)) }

func entLess(a, b *heapEnt) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seqIdx < b.seqIdx
}

// TimerHandle identifies a scheduled event. The zero value is inert;
// Cancel on it (or on a handle whose event already fired) is a no-op.
type TimerHandle struct {
	s   *Sim
	idx int32
	gen uint32
}

// Cancel removes the event from the schedule. Safe on the zero handle, on
// a handle whose event already fired, and when called repeatedly: the
// arena slot is generation-checked, so only the live incarnation is
// removed.
func (h TimerHandle) Cancel() {
	if h.s != nil {
		h.s.cancel(h.idx, h.gen)
	}
}

// Active reports whether the event is still scheduled.
func (h TimerHandle) Active() bool {
	if h.s == nil || int(h.idx) >= len(h.s.arena) {
		return false
	}
	tm := &h.s.arena[h.idx]
	return tm.gen == h.gen && tm.pos >= 0
}

// Sim is the discrete-event scheduler.
type Sim struct {
	now   Time
	seq   uint64
	arena []timer
	// fns and hs parallel the arena: fns[i] is the closure of an evFunc
	// slot, hs[i] the Handler of an exported-kind slot. Keeping them out
	// of the timer struct keeps the arena pointer-free.
	fns  []func()
	hs   []Handler
	free []int32
	heap []heapEnt
	// lanes are the FIFO event lanes (see the package doc) and tree the
	// winner tree merging their heads (see lane.go); a tree entry's
	// seqIdx carries the lane index instead of an arena slot. stale is
	// 1 + the lane whose tree path awaits its re-play, 0 for none.
	lanes  []lane
	tree   []heapEnt
	stale  int32
	queued int // entries waiting in lanes
	// nets are the networks built on this simulator; internal events
	// reference them by index so timers need no pointers.
	nets []*Network
	// Processed counts fired events (for benchmarking and runaway guards).
	Processed uint64
}

// NewSim returns a simulator at time zero.
func NewSim() *Sim { return &Sim{tree: []heapEnt{noEvent, noEvent}} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Pending returns the number of scheduled events, timers and lane
// entries alike. Cancelled events are removed from the heap immediately,
// so cancel-heavy workloads (e.g. TCP re-arming its retransmission timer
// on every ACK) do not accumulate dead entries.
func (s *Sim) Pending() int { return len(s.heap) + s.queued }

// registerNet assigns the network an id for compact event operands.
func (s *Sim) registerNet(n *Network) int32 {
	s.nets = append(s.nets, n)
	return int32(len(s.nets) - 1)
}

// eventKey validates an event time and returns its ordering key.
func (s *Sim) eventKey(t Time) uint64 {
	if t < s.now {
		panic(fmt.Sprintf("emu: scheduling into the past: %v < %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("emu: invalid event time %v", t))
	}
	if t == 0 {
		// Canonicalize -0.0: its bit pattern would sort after every
		// positive time instead of first.
		return 0
	}
	return math.Float64bits(t)
}

// schedule validates t, takes an arena slot, and pushes it on the timer
// heap. The caller fills the slot's payload fields through the returned
// index before any further scheduling call.
func (s *Sim) schedule(t Time) int32 {
	key := s.eventKey(t)
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.arena) >= 1<<seqShift {
			panic("emu: timer arena exceeds heap index capacity")
		}
		s.arena = append(s.arena, timer{})
		s.fns = append(s.fns, nil)
		s.hs = append(s.hs, nil)
		idx = int32(len(s.arena) - 1)
	}
	s.seq++
	tm := &s.arena[idx]
	tm.at = math.Float64frombits(key)
	tm.pos = int32(len(s.heap))
	s.heap = append(s.heap, heapEnt{key: key, seqIdx: s.seq<<seqShift | uint64(idx)})
	s.siftUp(len(s.heap) - 1)
	return idx
}

// release recycles an arena slot: the generation bump invalidates
// outstanding handles, and any closure or Handler reference is dropped
// for the GC.
func (s *Sim) release(idx int32) {
	tm := &s.arena[idx]
	tm.gen++
	tm.pos = -1
	switch tm.kind {
	case evFunc:
		s.fns[idx] = nil
	case evNone, evTxDone, evPropArrive, evAckDeliver, evShaperDrain:
		// Internal kinds carry no references.
	default:
		// Every exported kind stores its Handler here; clearing
		// unconditionally keeps an unknown future kind from leaking it.
		s.hs[idx] = nil
	}
	tm.kind = evNone
	s.free = append(s.free, idx)
}

func (s *Sim) cancel(idx int32, gen uint32) {
	if int(idx) >= len(s.arena) {
		return
	}
	tm := &s.arena[idx]
	if tm.gen != gen || tm.pos < 0 {
		return
	}
	s.heapRemove(int(tm.pos))
	s.release(idx)
}

// At schedules fn at absolute time t (>= Now) and returns its handle.
// This is the generic closure path; hot paths use the typed kinds.
func (s *Sim) At(t Time, fn func()) TimerHandle {
	idx := s.schedule(t)
	tm := &s.arena[idx]
	tm.kind = evFunc
	s.fns[idx] = fn
	return TimerHandle{s: s, idx: idx, gen: tm.gen}
}

// After schedules fn d seconds from now.
func (s *Sim) After(d Time, fn func()) TimerHandle { return s.At(s.now+d, fn) }

// AtEvent schedules a typed event at absolute time t: at t, h.OnEvent(kind,
// arg) is invoked. h should be a pointer type; the call does not allocate.
// kind must be one of the exported kinds — the internal ones carry packed
// operands, and dispatching a client arg through them would index into
// engine state.
func (s *Sim) AtEvent(t Time, kind EventKind, h Handler, arg int32) TimerHandle {
	if kind <= evShaperDrain {
		panic(fmt.Sprintf("emu: AtEvent with reserved kind %d", kind))
	}
	idx := s.schedule(t)
	tm := &s.arena[idx]
	tm.kind = kind
	tm.a = arg
	s.hs[idx] = h
	return TimerHandle{s: s, idx: idx, gen: tm.gen}
}

// AfterEvent schedules a typed event d seconds from now.
func (s *Sim) AfterEvent(d Time, kind EventKind, h Handler, arg int32) TimerHandle {
	return s.AtEvent(s.now+d, kind, h, arg)
}

// Internal typed scheduling, used by the network layer.

func (s *Sim) atShaperDrain(t Time, netID, shaperIdx int32) {
	idx := s.schedule(t)
	tm := &s.arena[idx]
	tm.kind = evShaperDrain
	tm.a = netID
	tm.b = shaperIdx
}

// Run executes events until the queue is empty or simulated time would
// exceed until. Events scheduled exactly at until still fire.
func (s *Sim) Run(until Time) {
	if until >= 0 {
		if until == 0 {
			// Canonicalize -0.0: its bit pattern would compare above
			// every finite time key and drain the whole schedule.
			until = 0
		}
		s.runChunk(math.Float64bits(until), math.MaxUint64)
	}
	if s.now < until {
		s.now = until
	}
}

// ctxCheckEvents is how many events RunCtx fires between context polls:
// large enough that the poll is invisible next to the event dispatch
// work (one branch per tens of thousands of events), small enough that
// cancelling an experiment interrupts it within milliseconds of real
// time at the engine's measured throughput.
const ctxCheckEvents = 32768

// RunCtx is Run with cooperative cancellation: it executes events like
// Run(until) but polls ctx between event batches and stops early —
// leaving the simulation mid-run — when the context is cancelled,
// returning the context's error. A nil ctx behaves exactly like Run.
// This is what lets an interrupted sweep abort its in-flight
// emulations promptly instead of draining them to completion.
func (s *Sim) RunCtx(ctx context.Context, until Time) error {
	if ctx == nil {
		s.Run(until)
		return nil
	}
	if until >= 0 {
		if until == 0 {
			until = 0 // canonicalize -0.0, as in Run
		}
		untilKey := math.Float64bits(until)
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !s.runChunk(untilKey, ctxCheckEvents) {
				break
			}
		}
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// runChunk fires up to maxEvents events whose key is <= untilKey and
// reports whether eligible events remain. This is the engine's hot
// loop: each step fires the smaller of the lane-tree root and the timer
// root by (key, seq). Run passes an unbounded budget so the
// extra counter is the only cost over the pre-chunking loop.
func (s *Sim) runChunk(untilKey uint64, maxEvents uint64) bool {
	if s.stale != 0 {
		s.replay(s.stale - 1)
		s.stale = 0
	}
	for fired := uint64(0); fired < maxEvents; fired++ {
		if lh := &s.tree[1]; len(s.heap) == 0 || entLess(lh, &s.heap[0]) {
			if lh.key > untilKey {
				return false
			}
			s.fireLane(lh.idx())
			continue
		}
		if s.heap[0].key > untilKey {
			return false
		}
		idx := s.heap[0].idx()
		s.heapPop()
		// Copy the event and recycle its slot before dispatching: the
		// callback may schedule (growing the arena) or hold a stale
		// handle to this very slot.
		ev := s.arena[idx]
		fn := s.fns[idx]
		h := s.hs[idx]
		s.release(idx)
		s.now = ev.at
		s.Processed++
		switch ev.kind {
		case evFunc:
			fn()
		case evTxDone:
			s.nets[ev.a].txDone(ev.b, ev.c)
		case evPropArrive:
			s.nets[ev.a].propArrive(ev.b, ev.c)
		case evAckDeliver:
			s.nets[ev.a].ackDeliver(ev.b, ev.c)
		case evShaperDrain:
			s.nets[ev.a].shapers[ev.b].drain()
		default:
			h.OnEvent(ev.kind, ev.a)
		}
	}
	return s.tree[1].key <= untilKey || len(s.heap) > 0 && s.heap[0].key <= untilKey
}

// The timer heap: a 4-ary min-heap of (key, seq, arena index) entries,
// ordered by the integer time key with seq breaking ties in schedule
// order. A wider node shortens the sift paths, and because entries carry
// their keys the compare loop stays inside the contiguous heap slice; the
// arena is only touched to maintain each slot's heap position for
// cancellation.

func (s *Sim) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(&e, &s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.arena[s.heap[i].idx()].pos = int32(i)
		i = p
	}
	s.heap[i] = e
	s.arena[e.idx()].pos = int32(i)
}

func (s *Sim) siftDown(i int) {
	n := len(s.heap)
	e := s.heap[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(&s.heap[j], &s.heap[best]) {
				best = j
			}
		}
		if !entLess(&s.heap[best], &e) {
			break
		}
		s.heap[i] = s.heap[best]
		s.arena[s.heap[i].idx()].pos = int32(i)
		i = best
	}
	s.heap[i] = e
	s.arena[e.idx()].pos = int32(i)
}

// heapPop removes the root. The popped slot's pos is left stale; callers
// immediately release or inspect it.
func (s *Sim) heapPop() {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.heap[0] = last
		s.arena[last.idx()].pos = 0
		s.siftDown(0)
	}
}

// heapRemove deletes the entry at heap position i, restoring the
// invariant by sifting the element moved into its place.
func (s *Sim) heapRemove(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.heap[i] = last
	s.arena[last.idx()].pos = int32(i)
	if i > 0 && entLess(&last, &s.heap[(i-1)>>2]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}
