package emu

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refEvent is one pending event of the reference scheduler.
type refEvent struct {
	at  Time
	seq uint64
	id  int32
}

// schedDriver runs the same random schedule against a Sim and against a
// reference that keeps every pending event in a list and fires the
// (time, seq) minimum. Every firing is checked against the reference
// the moment it happens, so the two firing sequences are identical or
// the test stops at the first divergence.
type schedDriver struct {
	t     *testing.T
	rng   *rand.Rand
	s     *Sim
	lanes []int32
	tails []Time // latest time pushed on each lane
	ref   []refEvent
	seq   uint64 // the reference's copy of the Sim's sequence counter
	next  int32  // next event id
	// handles holds every timer handle ever returned, live, fired or
	// cancelled; ids parallels it.
	handles []TimerHandle
	ids     []int32
	fired   int
	// cancelAt, when positive, cancels cancel after that many firings.
	cancelAt int
	cancel   context.CancelFunc
}

func (d *schedDriver) OnEvent(kind EventKind, arg int32) { d.fire(arg) }

// step is a time offset on a coarse binary grid, so lanes and timers
// often land on bit-equal times and the seq tie-break decides.
func (d *schedDriver) step() Time { return Time(d.rng.Intn(4)) * 0.25 }

func (d *schedDriver) add(at Time) int32 {
	d.seq++
	id := d.next
	d.next++
	d.ref = append(d.ref, refEvent{at: at, seq: d.seq, id: id})
	return id
}

// schedule performs one random scheduling or cancelling action on both
// sides.
func (d *schedDriver) schedule() {
	now := d.s.Now()
	switch op := d.rng.Intn(10); {
	case op < 5: // monotone lane push
		li := d.rng.Intn(len(d.lanes))
		at := max(d.tails[li], now) + d.step()
		d.tails[li] = at
		d.s.lanePush(d.lanes[li], at, d.add(at), 0)
	case op == 5: // lane push earlier than the lane's tail: falls back to the timer heap
		li := d.rng.Intn(len(d.lanes))
		at := now + d.step()
		d.s.lanePush(d.lanes[li], at, d.add(at), 0)
		d.tails[li] = max(d.tails[li], at)
	case op == 6: // closure timer
		at := now + d.step()
		id := d.add(at)
		d.handles = append(d.handles, d.s.At(at, func() { d.fire(id) }))
		d.ids = append(d.ids, id)
	case op == 7: // typed timer
		at := now + d.step()
		id := d.add(at)
		d.handles = append(d.handles, d.s.AtEvent(at, KindRTOFire, d, id))
		d.ids = append(d.ids, id)
	default: // cancel a random handle: live, fired, already cancelled or stale
		if len(d.handles) == 0 {
			return
		}
		k := d.rng.Intn(len(d.handles))
		live := -1
		for i, e := range d.ref {
			if e.id == d.ids[k] {
				live = i
			}
		}
		if d.handles[k].Active() != (live >= 0) {
			d.t.Fatalf("handle of event %d: Active = %v, reference live = %v", d.ids[k], d.handles[k].Active(), live >= 0)
		}
		d.handles[k].Cancel()
		if live >= 0 {
			d.ref = append(d.ref[:live], d.ref[live+1:]...)
		}
	}
}

// fire checks one firing against the reference minimum, then schedules
// follow-up events from inside the callback.
func (d *schedDriver) fire(id int32) {
	best := -1
	for i, e := range d.ref {
		if best < 0 || e.at < d.ref[best].at || e.at == d.ref[best].at && e.seq < d.ref[best].seq {
			best = i
		}
	}
	if best < 0 {
		d.t.Fatalf("event %d fired with nothing pending in the reference", id)
	}
	if want := d.ref[best]; want.id != id || want.at != d.s.Now() {
		d.t.Fatalf("firing %d: got event %d at %v, want event %d at %v", d.fired, id, d.s.Now(), want.id, want.at)
	}
	d.ref = append(d.ref[:best], d.ref[best+1:]...)
	d.fired++
	if d.fired == d.cancelAt {
		d.cancel()
	}
	// Keep the population between ~20 and ~200 pending events.
	n := 1
	if len(d.ref) < 20 {
		n = 2
	} else if len(d.ref) > 200 {
		n = 0
	}
	for i := 0; i < n; i++ {
		d.schedule()
	}
	d.checkPending()
}

func (d *schedDriver) checkPending() {
	if got, want := d.s.Pending(), len(d.ref); got != want {
		d.t.Fatalf("after %d firings: Pending = %d, reference holds %d", d.fired, got, want)
	}
}

// checkDrained asserts that nothing at or before until is left pending.
func (d *schedDriver) checkDrained(until Time) {
	for _, e := range d.ref {
		if e.at <= until {
			d.t.Fatalf("event %d at %v still pending after running to %v", e.id, e.at, until)
		}
	}
	d.checkPending()
}

// TestSchedulerDifferential drives lanes, closure and typed timers,
// cancels of live, fired and stale handles, Run deadlines and RunCtx
// chunk boundaries (including ctxCheckEvents crossings and a
// cancellation landing mid-chunk) against a reference that fires in
// (time, seq) order from a plain list.
func TestSchedulerDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			d := &schedDriver{t: t, rng: rand.New(rand.NewSource(seed)), s: NewSim()}
			for i := 0; i < 5; i++ {
				d.lanes = append(d.lanes, d.s.newLane(KindSampleTick, -1, d))
				d.tails = append(d.tails, 0)
			}
			for round := 0; round < 40; round++ {
				for i := d.rng.Intn(30); i > 0; i-- {
					d.schedule()
				}
				d.checkPending()
				switch d.rng.Intn(4) {
				case 0: // short deadline, possibly between bit-equal times
					until := d.s.Now() + d.step()
					d.s.Run(until)
					d.checkDrained(until)
				case 1: // long RunCtx crossing several context polls
					until := d.s.Now() + 200
					if err := d.s.RunCtx(context.Background(), until); err != nil {
						t.Fatal(err)
					}
					d.checkDrained(until)
				case 2: // RunCtx cancelled from a callback, mid-chunk
					ctx, cancel := context.WithCancel(context.Background())
					d.cancelAt, d.cancel = d.fired+1+d.rng.Intn(ctxCheckEvents+100), cancel
					if err := d.s.RunCtx(ctx, d.s.Now()+1e6); !errors.Is(err, context.Canceled) {
						t.Fatalf("RunCtx = %v, want context.Canceled", err)
					}
					cancel()
					d.checkPending()
				default: // nil context behaves like Run
					until := d.s.Now() + 1
					if err := d.s.RunCtx(nil, until); err != nil {
						t.Fatal(err)
					}
					d.checkDrained(until)
				}
			}
			if uint64(d.fired) != d.s.Processed {
				t.Fatalf("Processed = %d, reference fired %d", d.s.Processed, d.fired)
			}
			if d.fired < 4*ctxCheckEvents {
				t.Fatalf("only %d firings: the schedule never crossed enough context polls", d.fired)
			}
		})
	}
}

// TestLoweredLinkDelayKeepsOrder lowers a link's Delay mid-run, so
// packets transmitted afterwards overtake packets already
// propagating: their arrivals take the timer-heap fallback
// instead of the link's propagation lane, and every packet still
// arrives at exactly its transmit-complete time plus the delay it was
// sent with, in time order.
func TestLoweredLinkDelayKeepsOrder(t *testing.T) {
	cfg := LinkConfig{Capacity: 1e6, Delay: 0.1, QueueBytes: 1 << 20}
	sim, net := twoHop(t, cfg, LinkConfig{Capacity: 1e9, Delay: 0, QueueBytes: 1 << 20}, 0.5)
	la := net.Link(0)
	const tx = 1500 * 8 / 1e6
	var got []Time
	var seqs []int
	dst := net.RegisterHandler(DeliverFunc(func(p *Packet) {
		got = append(got, sim.Now())
		seqs = append(seqs, p.Seq)
	}))
	for i := 0; i < 20; i++ {
		sendData(net, 0, i, 1500, dst)
	}
	// Packet i finishes transmitting at (i+1)·tx; lower the delay between
	// packet 7's completion and packet 8's.
	sim.At(8*tx+tx/2, func() { la.Delay = 0.01 })
	sim.Run(10)
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20 packets", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("delivery %d at %v before delivery %d at %v", i, got[i], i-1, got[i-1])
		}
	}
	lb := Time(1500*8) / 1e9
	for i, seq := range seqs {
		delay := 0.1
		if seq >= 8 {
			delay = 0.01
		}
		if want := Time(seq+1)*tx + delay + lb; got[i] < want-1e-12 || got[i] > want+1e-12 {
			t.Fatalf("packet %d delivered at %v, want %v", seq, got[i], want)
		}
	}
	// Packet 8, sent at the lowered delay, overtakes packets 1–7.
	if seqs[0] != 0 || seqs[1] != 8 || seqs[2] != 1 {
		t.Fatalf("delivery order starts %v, want [0 8 1 ...]", seqs[:3])
	}
}

// panickyHandler records its events and panics on event 0.
type panickyHandler struct{ args []int32 }

func (h *panickyHandler) OnEvent(_ EventKind, arg int32) {
	h.args = append(h.args, arg)
	if arg == 0 {
		panic("boom")
	}
}

// TestLaneCallbackPanicRecovers: a lane callback that panics leaves the
// lane merge mid-event; a later Run still fires the remaining events in
// (time, seq) order.
func TestLaneCallbackPanicRecovers(t *testing.T) {
	s := NewSim()
	h := &panickyHandler{}
	a := s.newLane(KindSampleTick, -1, h)
	b := s.newLane(KindSampleTick, -1, h)
	s.lanePush(a, 1, 0, 0) // panics
	s.lanePush(a, 5, 3, 0)
	s.lanePush(b, 2, 1, 0)
	s.lanePush(b, 3, 2, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("callback did not panic")
			}
		}()
		s.Run(10)
	}()
	s.Run(10)
	if fmt.Sprint(h.args) != "[0 1 2 3]" || s.Pending() != 0 {
		t.Fatalf("fired %v with %d pending, want [0 1 2 3] and none", h.args, s.Pending())
	}
}
