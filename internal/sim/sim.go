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
// Internally the queue is an index-based 4-ary min-heap over a value-typed
// event arena with a free list, so steady-state schedule→dispatch performs
// no heap allocations: popped slots are recycled, and cancellation is safe
// across recycling because EventIDs carry a per-slot generation counter.
package sim

import (
	"errors"
	"fmt"
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
// discriminator plus two integer payloads and one pointer payload. It rides
// inside the event's arena slot, so scheduling with AtCall/AfterCall captures
// no closure — the allocation-free alternative to At/After for hot paths that
// fire the same handler with different context millions of times per run.
type Arg struct {
	// Op discriminates event kinds when one Callback handles several
	// (typically a switch in OnEvent).
	Op     int
	I0, I1 int64
	P0     any
}

// Callback is the closure-free event handler: OnEvent receives the Arg the
// event was scheduled with. Model objects implement it once and dispatch on
// Arg.Op, so a long-lived object schedules unbounded events with zero
// per-event allocations.
type Callback interface {
	OnEvent(Arg)
}

// Done is a completion notification value: a Callback plus the Arg to
// deliver. It replaces `done func()` parameters on hot execution paths —
// being a value, it is copied into work queues without allocating. The zero
// Done means "no notification".
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

// funcCB adapts a plain func() to Callback. Func values are pointer-shaped,
// so the conversion to the interface does not allocate.
type funcCB func()

func (f funcCB) OnEvent(Arg) { f() }

// Call wraps a plain completion func as a Done, so func-based convenience
// APIs can delegate to their Done-based siblings. A nil fn yields the zero
// (no-op) Done.
func Call(fn func()) Done {
	if fn == nil {
		return Done{}
	}
	return Done{CB: funcCB(fn)}
}

// event is one arena slot (80 bytes on 64-bit). A slot is live while it sits
// in the heap (pos >= 0) and free otherwise; gen increments every time the
// slot is released, which invalidates any EventID minted for an earlier
// occupancy. Every live slot has a cb: At/After store their func as a funcCB.
type event struct {
	at  Time
	seq uint64 // tie-breaker: schedule order, or a seq claimed by Reserve
	cb  Callback
	arg Arg
	gen uint32
	pos int32 // heap index, -1 while the slot is free or executing
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
	now     Time
	seq     uint64
	arena   []event
	free    []int32 // stack of recyclable arena slots
	heap    []int32 // 4-ary min-heap of arena indices, ordered by (at, seq)
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
func (s *Scheduler) Pending() int { return len(s.heap) }

// At schedules fn to run at instant t. Scheduling in the past (t < Now) is a
// programming error in the model and returns an error; the event is not
// scheduled.
func (s *Scheduler) At(t Time, fn func()) (EventID, error) {
	if fn == nil {
		return EventID{}, errors.New("sim: schedule nil callback")
	}
	return s.AtCall(t, funcCB(fn), Arg{})
}

// After schedules fn to run d after the current virtual time. Negative d is
// clamped to zero so "run as soon as possible" is easy to express.
func (s *Scheduler) After(d time.Duration, fn func()) (EventID, error) {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// AtCall schedules cb.OnEvent(arg) at instant t. The context rides in the
// event's arena slot, so — unlike At with a capturing closure — steady-state
// scheduling performs zero allocations. Dispatch order is identical to At:
// the two forms share one (at, seq) sequence.
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
	ev.arg.Op, ev.arg.I0, ev.arg.I1, ev.arg.P0 = arg.Op, arg.I0, arg.I1, arg.P0
	s.heapPush(idx)
	return EventID{slot: idx + 1, gen: ev.gen}, nil
}

// AfterCall schedules cb.OnEvent(arg) d after the current virtual time.
// Negative d is clamped to zero, mirroring After.
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
	ev.arg.Op, ev.arg.I0, ev.arg.I1, ev.arg.P0 = arg.Op, arg.I0, arg.I1, arg.P0 // as in AtCall
	s.heapPush(idx)
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
	if ev.gen != id.gen || ev.pos < 0 {
		return false
	}
	s.heapRemove(ev.pos)
	s.release(idx)
	s.cancelled++
	return true
}

// release returns an arena slot to the free list. Bumping gen here is what
// invalidates outstanding EventIDs; clearing cb/arg releases the callback's
// closure and context pointers to the collector.
func (s *Scheduler) release(idx int32) {
	ev := &s.arena[idx]
	ev.cb = nil
	ev.arg = Arg{}
	ev.pos = -1
	ev.gen++
	s.free = append(s.free, idx)
}

// Reset rewinds the scheduler to its post-NewScheduler state — clock at
// zero, queue empty, counters zeroed — while keeping the arena, free-list,
// and heap capacity, so a pooled scheduler re-runs a scenario without
// re-growing its slabs. EventIDs minted before the Reset must not be used
// afterwards: slots restart at generation zero, so a stale ID could collide
// with a new occupancy (holders reset alongside the scheduler, so none
// survive in practice). Must not be called from inside Run.
func (s *Scheduler) Reset() {
	s.now = 0
	s.seq = 0
	s.arena = s.arena[:0]
	s.free = s.free[:0]
	s.heap = s.heap[:0]
	s.stopped = false
	s.running = false
	s.scheduled = 0
	s.cancelled = 0
}

// Stop halts the simulation: the currently executing event finishes and Run
// returns ErrStopped. Safe to call from inside an event callback.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events until the queue is empty. It returns ErrStopped if the
// run was halted by Stop.
func (s *Scheduler) Run() error {
	return s.run(func(Time) bool { return true })
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (s *Scheduler) RunUntil(deadline Time) error {
	err := s.run(func(t Time) bool { return t <= deadline })
	if err == nil && s.now < deadline {
		s.now = deadline
	}
	return err
}

func (s *Scheduler) run(keep func(Time) bool) error {
	if s.running {
		return errors.New("sim: Run re-entered from an event callback")
	}
	s.running = true
	defer func() { s.running = false }()
	s.stopped = false
	for len(s.heap) > 0 {
		if s.stopped {
			return ErrStopped
		}
		top := s.heap[0]
		at := s.arena[top].at
		if !keep(at) {
			return nil
		}
		s.popTop()
		cb := s.arena[top].cb
		arg := s.arena[top].arg
		s.release(top)
		s.now = at
		cb.OnEvent(arg)
	}
	return nil
}

// less orders arena indices by (at, seq). seq is unique, so the order is
// total and the dispatch sequence is independent of heap shape or arity.
func (s *Scheduler) less(a, b int32) bool {
	ea, eb := &s.arena[a], &s.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (s *Scheduler) heapPush(idx int32) {
	s.heap = append(s.heap, idx)
	s.siftUp(int32(len(s.heap) - 1))
}

// popTop removes heap[0]. The caller still owns the arena slot and must
// release it after reading the callback.
func (s *Scheduler) popTop() {
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

// heapRemove deletes the element at heap position pos (cancellation path).
func (s *Scheduler) heapRemove(pos int32) {
	n := int32(len(s.heap)) - 1
	if pos != n {
		s.heap[pos] = s.heap[n]
		s.heap = s.heap[:n]
		if pos > 0 && s.less(s.heap[pos], s.heap[(pos-1)/4]) {
			s.siftUp(pos)
		} else {
			s.siftDown(pos)
		}
	} else {
		s.heap = s.heap[:n]
	}
}

func (s *Scheduler) siftUp(i int32) {
	h := s.heap
	moving := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(moving, h[parent]) {
			break
		}
		h[i] = h[parent]
		s.arena[h[i]].pos = i
		i = parent
	}
	h[i] = moving
	s.arena[moving].pos = i
}

func (s *Scheduler) siftDown(i int32) {
	h := s.heap
	n := int32(len(h))
	moving := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(h[c], h[best]) {
				best = c
			}
		}
		if !s.less(h[best], moving) {
			break
		}
		h[i] = h[best]
		s.arena[h[i]].pos = i
		i = best
	}
	h[i] = moving
	s.arena[moving].pos = i
}
