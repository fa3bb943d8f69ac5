package sim

import (
	"math"
	"testing"
)

// refEvent is one pending event of the reference queue: its key and the
// token that names it in the dispatch log.
type refEvent struct {
	at    Time
	seq   uint64
	token int64
}

// refQueue is the brute-force reference the run queue is checked against:
// pending events in a plain slice, and dispatch picks the minimum (at, seq)
// by scanning all of them.
type refQueue struct {
	now                  Time
	seq                  uint64
	pending              []refEvent
	scheduled, cancelled uint64
}

// min returns the index of the pending event with the smallest (at, seq),
// or -1 when none is pending.
func (q *refQueue) min() int {
	best := -1
	for i, e := range q.pending {
		if best < 0 || e.at < q.pending[best].at || (e.at == q.pending[best].at && e.seq < q.pending[best].seq) {
			best = i
		}
	}
	return best
}

// cancel removes the event named token, reporting whether it was pending.
func (q *refQueue) cancel(token int64) bool {
	for i, e := range q.pending {
		if e.token == token {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			q.cancelled++
			return true
		}
	}
	return false
}

// queueFuzz drives a Scheduler and the reference in lockstep from fuzz
// bytes. Every event carries a token: its index in ids, where the EventID
// the scheduler returned for it is kept. Top-level operations and the
// actions callbacks take consume the same byte stream, in dispatch order.
type queueFuzz struct {
	t        *testing.T
	data     []byte
	s        *Scheduler
	ref      refQueue
	ids      []EventID // by token, since the last Reset
	reserved []uint64  // seqs claimed by Reserve and not yet scheduled
	deadline Time      // of the Run or RunUntil in progress
	total    int       // events scheduled over the whole input
}

// next consumes one byte modulo mod; an exhausted stream reads as zeros.
func (q *queueFuzz) next(mod int) int {
	if len(q.data) == 0 {
		return 0
	}
	b := q.data[0]
	q.data = q.data[1:]
	return int(b) % mod
}

// Caps on what one input can build: a queue deep enough for the run queue
// to grow and recenter several times, and few enough events in all that the
// reference's linear scans keep every input fast.
const (
	maxPending = 1024
	maxEvents  = 20_000
)

// schedule queues one event at at through the form named by how (0 AtCall,
// 1 AtCall with a second Callback, 2 AfterCall, 3 AtCallSeq under a
// reserved seq) and mirrors it in the reference. depth limits how far callbacks keep scheduling.
func (q *queueFuzz) schedule(how int, at Time, depth int64) {
	if len(q.ref.pending) >= maxPending || q.total >= maxEvents {
		return
	}
	token := int64(len(q.ids))
	arg := Arg{I0: token, I1: depth}
	seq := q.ref.seq
	var id EventID
	var err error
	switch how {
	case 0:
		id, err = q.s.AtCall(at, q, arg)
	case 1:
		id, err = schedAt(q.s, at, func() { q.OnEvent(arg) })
	case 2:
		id, err = q.s.AfterCall((at - q.s.Now()).Duration(), q, arg)
	case 3:
		if len(q.reserved) == 0 {
			return
		}
		i := q.next(len(q.reserved))
		seq = q.reserved[i]
		q.reserved = append(q.reserved[:i], q.reserved[i+1:]...)
		id, err = q.s.AtCallSeq(at, seq, q, arg)
	}
	if err != nil {
		q.t.Fatalf("schedule at %v (now %v): %v", at, q.s.Now(), err)
	}
	if how != 3 {
		q.ref.seq++
	}
	q.ref.pending = append(q.ref.pending, refEvent{at: at, seq: seq, token: token})
	q.ref.scheduled++
	q.ids = append(q.ids, id)
	q.total++
}

// cancel cancels the event named by a byte-chosen token — pending, already
// run, cancelled, or sharing a reused slot — or, now and then, the zero
// EventID, and checks the result against the reference.
func (q *queueFuzz) cancel() {
	pick := q.next(256)
	if len(q.ids) == 0 || pick == 255 {
		if q.s.Cancel(EventID{}) {
			q.t.Fatal("Cancel of the zero EventID reported true")
		}
		return
	}
	token := int64(pick % len(q.ids))
	want := q.ref.cancel(token)
	if got := q.s.Cancel(q.ids[token]); got != want {
		q.t.Fatalf("Cancel(token %d) = %v, reference %v", token, got, want)
	}
}

// OnEvent checks the dispatched event is the reference's minimum, then takes
// a byte-chosen action: more events (colliding instants included), a
// cancel, or a cancel of itself.
func (q *queueFuzz) OnEvent(a Arg) {
	i := q.ref.min()
	if i < 0 {
		q.t.Fatalf("dispatched token %d with the reference empty", a.I0)
	}
	e := q.ref.pending[i]
	if e.token != a.I0 || e.at != q.s.Now() || e.at > q.deadline {
		q.t.Fatalf("dispatched token %d at %v; reference expects token %d at %v (deadline %v)",
			a.I0, q.s.Now(), e.token, e.at, q.deadline)
	}
	q.ref.pending = append(q.ref.pending[:i], q.ref.pending[i+1:]...)
	q.ref.now = e.at
	q.check()
	if a.I1 >= 3 {
		return
	}
	now := q.s.Now()
	switch q.next(8) {
	case 1, 2, 3:
		q.schedule(q.next(4), now+Time(q.next(3)), a.I1+1)
	case 4:
		q.cancel()
	case 5:
		if q.s.Cancel(q.ids[a.I0]) {
			q.t.Fatalf("token %d cancelled itself while running", a.I0)
		}
	case 6:
		at := now + Time(q.next(2))
		q.schedule(q.next(4), at, a.I1+1)
		q.schedule(q.next(4), at, a.I1+1)
	}
}

// check compares the scheduler's clock, depth and counters with the
// reference.
func (q *queueFuzz) check() {
	q.t.Helper()
	if q.s.Now() != q.ref.now {
		q.t.Fatalf("Now = %v, reference %v", q.s.Now(), q.ref.now)
	}
	if q.s.Pending() != len(q.ref.pending) {
		q.t.Fatalf("Pending = %d, reference %d", q.s.Pending(), len(q.ref.pending))
	}
	sched, canc := q.s.Stats()
	if sched != q.ref.scheduled || canc != q.ref.cancelled {
		q.t.Fatalf("Stats = (%d, %d), reference (%d, %d)", sched, canc, q.ref.scheduled, q.ref.cancelled)
	}
}

// run drains every event due by deadline and checks none due is left.
func (q *queueFuzz) run(deadline Time) {
	q.deadline = deadline
	var err error
	if deadline == math.MaxInt64 {
		err = q.s.Run()
	} else {
		err = q.s.RunUntil(deadline)
		q.ref.now = max(q.ref.now, deadline)
	}
	if err != nil {
		q.t.Fatal(err)
	}
	if i := q.ref.min(); i >= 0 && q.ref.pending[i].at <= deadline {
		q.t.Fatalf("token %d at %v still pending after running to %v", q.ref.pending[i].token, q.ref.pending[i].at, deadline)
	}
}

// step performs one top-level operation.
func (q *queueFuzz) step() {
	now := q.s.Now()
	switch q.next(10) {
	case 0, 1, 2:
		q.schedule(q.next(3), now+Time(q.next(4)), 0)
	case 3:
		n := 1 + q.next(4)
		base := q.s.Reserve(n)
		if base != q.ref.seq {
			q.t.Fatalf("Reserve = %d, reference %d", base, q.ref.seq)
		}
		for k := 0; k < n; k++ {
			q.reserved = append(q.reserved, base+uint64(k))
		}
		q.ref.seq += uint64(n)
	case 4:
		q.schedule(3, now+Time(q.next(4)), 0)
	case 5:
		q.cancel()
	case 6:
		q.run(now + Time(q.next(6)))
	case 7:
		q.run(math.MaxInt64)
	case 8:
		// A burst deep enough to make the run queue grow and recenter, at
		// instants from a small generator so ranks land all over it.
		n, x := 1+q.next(128), uint32(q.next(256))
		for k := 0; k < n; k++ {
			x = x*1664525 + 1013904223
			q.schedule(int(x>>30)%3, now+Time(x>>26%16), 0)
		}
	case 9:
		q.s.Reset()
		q.ref = refQueue{}
		q.ids = q.ids[:0]
		q.reserved = q.reserved[:0]
	}
	q.check()
}

// FuzzQueueOrder checks the run queue against a brute-force reference that
// scans a plain slice for the minimum (at, seq). Random interleavings of
// AtCall (through two Callbacks) and AfterCall at colliding instants, Reserve + AtCallSeq, Cancel of
// pending, already-run, stale-generation and self IDs (also from inside
// callbacks), RunUntil partitions and Reset must dispatch the reference's
// minimum every time, with Now, Pending and Stats matching after every
// dispatch and every operation.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 3, 1, 0, 2, 2, 5, 2, 7, 8, 6, 9, 7})
	f.Add([]byte{3, 3, 4, 1, 4, 0, 0, 0, 2, 6, 6, 5, 40, 4, 2, 7, 9, 0, 1, 1, 5, 0, 7})
	f.Add([]byte{8, 127, 200, 6, 3, 5, 17, 8, 90, 13, 7, 1, 2, 3, 4, 5, 6, 7, 6, 1, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := &queueFuzz{t: t, data: data, s: NewScheduler()}
		for len(q.data) > 0 {
			q.step()
		}
		q.run(math.MaxInt64)
		q.check()
	})
}
