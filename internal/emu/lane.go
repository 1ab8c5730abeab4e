package emu

import "math"

// laneEnt is one event waiting in a lane: its ordering key and sequence
// number, taken exactly when the event was scheduled, and its operands
// (a packet index and generation for the network kinds, the Handler
// argument for a handler lane).
type laneEnt struct {
	key uint64
	seq uint64
	arg int32
	gen uint32
}

// lane is a FIFO of events from one source whose times never decrease
// in schedule order: a link's transmit completions, a link's
// propagation arrivals, a path's ACK deliveries. Its entries are
// therefore sorted by (key, seq), and only the head takes part in the
// merge. Entries live in a power-of-two ring grown on demand.
type lane struct {
	ring  []laneEnt
	head  int
	count int
	kind  EventKind
	// net is the network id for the internal kinds; h receives the
	// events of a handler lane (an exported kind).
	net int32
	h   Handler
}

func (ln *lane) push(e laneEnt) {
	if ln.count == len(ln.ring) {
		grown := make([]laneEnt, max(4, 2*len(ln.ring)))
		for i := 0; i < ln.count; i++ {
			grown[i] = ln.ring[(ln.head+i)&(len(ln.ring)-1)]
		}
		ln.ring = grown
		ln.head = 0
	}
	ln.ring[(ln.head+ln.count)&(len(ln.ring)-1)] = e
	ln.count++
}

func (ln *lane) pop() laneEnt {
	e := ln.ring[ln.head]
	ln.head = (ln.head + 1) & (len(ln.ring) - 1)
	ln.count--
	return e
}

// noEvent is the tree entry of an empty lane. Keys are bit patterns of
// finite non-negative times, so it orders after every real event and
// above every Run deadline.
var noEvent = heapEnt{key: math.MaxUint64, seqIdx: math.MaxUint64}

// headEnt is the lane's head as a tree entry, noEvent when it is empty.
func (ln *lane) headEnt(li int32) heapEnt {
	if ln.count == 0 {
		return noEvent
	}
	e := &ln.ring[ln.head]
	return heapEnt{key: e.key, seqIdx: e.seq<<seqShift | uint64(li)}
}

// The lane heads are merged by a winner tree: with n lanes, tree[n+i]
// holds lane i's head and each inner node tree[j] the smaller of
// tree[2j] and tree[2j+1], so tree[1] is the earliest lane event.
// Replacing a head re-plays the ~log2(n) matches on its path to the
// root.

// newLane registers a lane and returns its index. Internal kinds
// dispatch into network net; an exported kind is delivered to h.
func (s *Sim) newLane(kind EventKind, net int32, h Handler) int32 {
	if len(s.lanes) >= 1<<seqShift {
		panic("emu: lane count exceeds heap index capacity")
	}
	s.lanes = append(s.lanes, lane{kind: kind, net: net, h: h})
	// Lay the tree out again for one more leaf; lanes are registered
	// when a network is built, so this is not a hot path.
	s.tree = make([]heapEnt, 2*len(s.lanes))
	for i := range s.tree {
		s.tree[i] = noEvent
	}
	for i := range s.lanes {
		s.replay(int32(i))
	}
	return int32(len(s.lanes) - 1)
}

// replay re-plays the matches on lane li's path after its head changed.
func (s *Sim) replay(li int32) {
	t := s.tree
	j := len(t)/2 + int(li)
	w := s.lanes[li].headEnt(li)
	t[j] = w
	for ; j > 1; j >>= 1 {
		if o := &t[j^1]; entLess(o, &w) {
			w = *o
		}
		t[j>>1] = w
	}
}

// lanePush schedules an event of lane li at time t, taking its sequence
// number exactly as schedule would. A time earlier than the lane's tail
// (a link whose Delay was lowered mid-run) would break the lane's order,
// so that event becomes an ordinary timer-heap event instead.
func (s *Sim) lanePush(li int32, t Time, arg int32, gen uint32) {
	key := s.eventKey(t)
	ln := &s.lanes[li]
	if ln.count > 0 && key < ln.ring[(ln.head+ln.count-1)&(len(ln.ring)-1)].key {
		idx := s.schedule(t)
		tm := &s.arena[idx]
		tm.kind = ln.kind
		if ln.h != nil {
			tm.a = arg
			s.hs[idx] = ln.h
		} else {
			tm.a, tm.b, tm.c = ln.net, arg, gen
		}
		return
	}
	s.seq++
	ln.push(laneEnt{key: key, seq: s.seq, arg: arg, gen: gen})
	s.queued++
	if ln.count > 1 {
		return
	}
	// A new head replaces an empty leaf, so it can only win matches on
	// its path: carry it up until it loses one.
	e := heapEnt{key: key, seqIdx: s.seq<<seqShift | uint64(li)}
	tr := s.tree
	j := len(tr)/2 + int(li)
	tr[j] = e
	for j >>= 1; j >= 1 && entLess(&e, &tr[j]); j >>= 1 {
		tr[j] = e
	}
}

// fireLane dispatches the head of lane li, the winner at tree[1]. The
// tree is re-played after dispatch, once, whatever the callback pushed
// onto the lane. Until then the fired entry stays on li's path; it
// orders before every event the callback can schedule, so pushes onto
// other lanes stop below it and leave the tree consistent. stale marks
// the pending re-play for a Run that starts after a callback panicked.
func (s *Sim) fireLane(li int32) {
	ln := &s.lanes[li]
	e := ln.pop()
	s.queued--
	s.now = math.Float64frombits(e.key)
	s.Processed++
	s.stale = li + 1
	switch ln.kind {
	case evTxDone:
		s.nets[ln.net].txDone(e.arg, e.gen)
	case evPropArrive:
		s.nets[ln.net].propArrive(e.arg, e.gen)
	case evAckDeliver:
		s.nets[ln.net].ackDeliver(e.arg, e.gen)
	default:
		ln.h.OnEvent(ln.kind, e.arg)
	}
	s.stale = 0
	s.replay(li)
}
