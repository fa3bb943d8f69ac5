// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock (nanosecond resolution) by executing
// events in timestamp order. Events scheduled for the same instant run in
// the order they were scheduled (a strictly monotone sequence number breaks
// ties; Reserve lets a model claim numbers before it schedules under them),
// which makes every run byte-for-byte reproducible.
//
// The kernel is single-threaded by design: event callbacks run on the
// goroutine that calls Run, so model code needs no locking. This mirrors the
// structure of classic DES engines (e.g. ns-3, SimPy) and is what makes the
// energy accounting in package energy exact — power-state changes are totally
// ordered on the virtual timeline.
//
// There is one scheduling API: an event is a Callback plus the Arg it is
// delivered (AtCall, AfterCall, and AtCallSeq under a reserved sequence
// number), and a completion handed to a device model is the same pair as a
// Done value. Models implement Callback once and dispatch on Arg.Op, so no
// event captures a closure.
//
// Internally pending events live in a value-typed arena of 64-byte slots
// with a free list; a slot's only pointer is its Callback, since an Arg is
// three integers. The run queue is a sorted slice of arena indices with
// slack at both ends: dispatch takes the front, and an insert binary-searches
// its rank and shifts whichever side of it is shorter. Models schedule most
// events close to the present, so the shorter side is a handful of entries:
// on each of the repository benchmark's workloads at least 91% of inserts
// shift 7 entries or fewer, and the queue is at most 33 deep outside the one
// that queues a harvest trace up front (1,454). The worst case is a deep queue
// fed at random ranks: 10k deep, it costs more per event than a heap
// (DESIGN.md §7). Steady-state schedule→dispatch performs no heap
// allocations: dispatched slots are recycled, and cancellation is safe
// across recycling because EventIDs carry a per-slot generation counter.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is an instant on the virtual timeline, in nanoseconds since the start
// of the simulation. It is a distinct type from time.Duration to keep virtual
// and wall-clock time from being mixed up at compile time.
type Time int64

// Duration converts a virtual instant to the duration elapsed since t=0.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the instant in seconds since the start of the simulation.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the instant as a duration offset, e.g. "12.5ms".
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the event queue drained.
var ErrStopped = errors.New("simulation stopped")

// Arg is the context an event carries to a Callback: a small operation
// discriminator plus two integer payloads. It holds no pointer: a model names
// its objects by index (a stream, a work slot, a job), so an event slot is
// three words of context that the collector never scans. It rides inside the
// event's arena slot, so scheduling captures no closure and a handler fired
// millions of times per run with different context allocates nothing.
type Arg struct {
	// Op discriminates event kinds when one Callback handles several
	// (typically a switch in OnEvent).
	Op     int
	I0, I1 int64
}

// Callback is the event handler: OnEvent receives the Arg the event was
// scheduled with. Model objects implement it once and dispatch on
// Arg.Op, so a long-lived object schedules unbounded events with zero
// per-event allocations.
type Callback interface {
	OnEvent(Arg)
}

// Done is a completion notification value: a Callback plus the Arg to
// deliver. Being a value, it is copied into work queues without allocating.
// The zero Done means "no notification".
type Done struct {
	CB  Callback
	Arg Arg
}

// Invoke delivers the notification; a zero Done is a no-op.
func (d Done) Invoke() {
	if d.CB != nil {
		d.CB.OnEvent(d.Arg)
	}
}

// event is one arena slot (64 bytes on 64-bit). A slot is pending — queued
// in the run queue — while cb != nil: release clears cb before the event runs
// or once it is cancelled. gen
// increments every time the slot is released, which invalidates any EventID
// minted for an earlier occupancy.
type event struct {
	at  Time
	seq uint64 // tie-breaker: schedule order, or a seq claimed by Reserve
	cb  Callback
	arg Arg
	gen uint32
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// value identifies no event. IDs are generation-counted: once the event has
// run or been cancelled its arena slot may be reused, and a stale ID for the
// old occupancy keeps reporting false from Cancel (no ABA confusion).
type EventID struct {
	slot int32 // 1-based arena index; 0 means "no event"
	gen  uint32
}

// Scheduler is the discrete-event engine. The zero value is not usable; call
// NewScheduler.
type Scheduler struct {
	now   Time
	seq   uint64
	arena []event
	free  []int32 // stack of recyclable arena slots
	// q[lo:hi] is the run queue: pending arena indices in (at, seq) order.
	// The slack on both sides lets an insert shift its shorter side.
	q       []int32
	lo, hi  int
	stopped bool
	running bool

	// Kernel traffic counters, always on (two integer adds): the DES analog
	// of oprofile's interrupt-descriptor statistics. The observability layer
	// copies them out via Stats; sim cannot import obs (obs imports sim).
	scheduled uint64
	cancelled uint64
}

// Stats reports kernel traffic since construction: events scheduled and
// events removed by Cancel before dispatch.
func (s *Scheduler) Stats() (scheduled, cancelled uint64) {
	return s.scheduled, s.cancelled
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending reports how many events are currently scheduled.
func (s *Scheduler) Pending() int { return s.hi - s.lo }

// AtCall schedules cb.OnEvent(arg) at instant t. The context rides in the
// event's arena slot, so steady-state scheduling performs zero allocations.
// Scheduling in the past (t < Now) or with a nil cb is a programming error in
// the model and returns an error; the event is not scheduled.
func (s *Scheduler) AtCall(t Time, cb Callback, arg Arg) (EventID, error) {
	if t < s.now || cb == nil {
		return EventID{}, s.reject(t)
	}
	idx, ev := s.alloc(t, s.seq)
	s.seq++
	ev.cb = cb
	// Field by field: arg is spilled in 8-byte words around alloc's rare slab
	// growth, and a whole-struct copy reloads it with 16-byte moves that
	// straddle those spills, defeating store-to-load forwarding.
	ev.arg.Op, ev.arg.I0, ev.arg.I1 = arg.Op, arg.I0, arg.I1
	s.insert(idx, t, ev.seq)
	return EventID{slot: idx + 1, gen: ev.gen}, nil
}

// AfterCall schedules cb.OnEvent(arg) d after the current virtual time.
// Negative d is clamped to zero so "run as soon as possible" is easy to
// express.
func (s *Scheduler) AfterCall(d time.Duration, cb Callback, arg Arg) (EventID, error) {
	if d < 0 {
		d = 0
	}
	return s.AtCall(s.now.Add(d), cb, arg)
}

// Reserve claims the next n sequence numbers and returns the first. An event
// later scheduled with AtCallSeq under one of them sorts as if it had been
// scheduled at the Reserve call: ties at an instant break in claim order.
// This lets a model queue a long periodic series lazily — each event
// scheduling its successor — without changing the dispatch order of a run
// that queued the whole series up front, provided every event of the series
// is scheduled before any event that sorts after it dispatches. n must not
// be negative.
func (s *Scheduler) Reserve(n int) uint64 {
	first := s.seq
	s.seq += uint64(n)
	return first
}

// AtCallSeq is AtCall under a sequence number claimed earlier by Reserve.
// Each reserved number must be scheduled at most once; a number that was
// never reserved is an error.
func (s *Scheduler) AtCallSeq(t Time, seq uint64, cb Callback, arg Arg) (EventID, error) {
	if seq >= s.seq {
		return EventID{}, fmt.Errorf("sim: seq %d was never reserved", seq)
	}
	if t < s.now || cb == nil {
		return EventID{}, s.reject(t)
	}
	idx, ev := s.alloc(t, seq)
	ev.cb = cb
	ev.arg.Op, ev.arg.I0, ev.arg.I1 = arg.Op, arg.I0, arg.I1 // as in AtCall
	s.insert(idx, t, seq)
	return EventID{slot: idx + 1, gen: ev.gen}, nil
}

// reject explains why an event at t with a nil callback or before now was
// not scheduled. Kept out of line so the schedule fast paths stay small.
func (s *Scheduler) reject(t Time) error {
	if t < s.now {
		return fmt.Errorf("sim: schedule at %v before now %v", t, s.now)
	}
	return errors.New("sim: schedule nil callback")
}

// alloc claims an arena slot for an event at instant t under sequence number
// seq and returns its index, ready for the caller to attach the callback and
// queue it. Small enough to inline into the schedule paths.
func (s *Scheduler) alloc(t Time, seq uint64) (int32, *event) {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, event{})
		idx = int32(len(s.arena) - 1)
	}
	ev := &s.arena[idx]
	ev.at = t
	ev.seq = seq
	s.scheduled++
	return idx, ev
}

// Cancel removes a scheduled event. Cancelling an event that already ran or
// was already cancelled is a no-op and reports false — including when its
// arena slot has since been reused by a newer event, which the generation
// counter detects.
func (s *Scheduler) Cancel(id EventID) bool {
	idx := id.slot - 1
	if idx < 0 || int(idx) >= len(s.arena) {
		return false
	}
	ev := &s.arena[idx]
	if ev.gen != id.gen || ev.cb == nil {
		return false
	}
	// (at, seq) is unique among pending events, so its rank is the slot's.
	pos := s.rank(ev.at, ev.seq)
	if pos == s.hi || s.q[pos] != idx {
		panic("sim: run queue lost a pending event (reserved seq scheduled twice?)")
	}
	if pos-s.lo < s.hi-pos-1 {
		copy(s.q[s.lo+1:pos+1], s.q[s.lo:pos])
		s.lo++
	} else {
		copy(s.q[pos:], s.q[pos+1:s.hi])
		s.hi--
	}
	s.release(idx)
	s.cancelled++
	return true
}

// release returns an arena slot to the free list. Bumping gen here is what
// invalidates outstanding EventIDs; clearing cb releases the callback to the
// collector (the Arg holds no pointer, and the next occupant overwrites it).
func (s *Scheduler) release(idx int32) {
	ev := &s.arena[idx]
	ev.cb = nil
	ev.gen++
	s.free = append(s.free, idx)
}

// Reset rewinds the scheduler to its post-NewScheduler state — clock at
// zero, queue empty, counters zeroed — while keeping the arena, free-list,
// and run-queue capacity, so a pooled scheduler re-runs a scenario without
// re-growing its slabs. EventIDs minted before the Reset must not be used
// afterwards: slots restart at generation zero, so a stale ID could collide
// with a new occupancy (holders reset alongside the scheduler, so none
// survive in practice). Must not be called from inside Run.
func (s *Scheduler) Reset() {
	mid := len(s.q) / 2
	*s = Scheduler{arena: s.arena[:0], free: s.free[:0], q: s.q, lo: mid, hi: mid}
}

// Stop halts the simulation: the currently executing event finishes and Run
// returns ErrStopped. Safe to call from inside an event callback.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events until the queue is empty. It returns ErrStopped if the
// run was halted by Stop.
func (s *Scheduler) Run() error {
	return s.run(math.MaxInt64)
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (s *Scheduler) RunUntil(deadline Time) error {
	err := s.run(deadline)
	if err == nil && s.now < deadline {
		s.now = deadline
	}
	return err
}

func (s *Scheduler) run(deadline Time) error {
	if s.running {
		return errors.New("sim: Run re-entered from an event callback")
	}
	s.running = true
	defer func() { s.running = false }()
	s.stopped = false
	for s.lo < s.hi {
		if s.stopped {
			return ErrStopped
		}
		idx := s.q[s.lo]
		ev := &s.arena[idx]
		at := ev.at
		if at > deadline {
			return nil
		}
		s.lo++
		cb, arg := ev.cb, ev.arg
		s.release(idx)
		s.now = at
		cb.OnEvent(arg)
	}
	return nil
}

// rank returns the position in q[lo:hi] of the first pending event that does
// not sort before (at, seq). The order is total because seq is unique among
// pending events, so dispatch never depends on where an event was inserted.
func (s *Scheduler) rank(at Time, seq uint64) int {
	i, j := s.lo, s.hi
	for i < j {
		h := int(uint(i+j) >> 1)
		e := &s.arena[s.q[h]]
		if e.at < at || (e.at == at && e.seq < seq) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// insert queues arena slot idx, keyed (at, seq), at its rank, shifting the
// shorter side of the run queue into the slack beyond it.
func (s *Scheduler) insert(idx int32, at Time, seq uint64) {
	pos := s.rank(at, seq)
	front := pos-s.lo < s.hi-pos
	if (front && s.lo == 0) || (!front && s.hi == len(s.q)) {
		pos = s.recenter(pos)
	}
	if front {
		copy(s.q[s.lo-1:], s.q[s.lo:pos])
		s.lo--
		s.q[pos-1] = idx
		return
	}
	copy(s.q[pos+1:s.hi+1], s.q[pos:s.hi])
	s.hi++
	s.q[pos] = idx
}

// recenter moves the run queue to the middle of its slice, doubling the
// slice first when the queue fills more than half of it, so each side keeps
// at least a quarter of the slice as slack. It returns where position pos
// moved to.
func (s *Scheduler) recenter(pos int) int {
	n := s.hi - s.lo
	q := s.q
	if 2*(n+1) > len(q) {
		q = make([]int32, max(64, 2*len(q)))
	}
	lo := (len(q) - n) / 2
	copy(q[lo:], s.q[s.lo:s.hi])
	pos += lo - s.lo
	s.q, s.lo, s.hi = q, lo, lo+n
	return pos
}
