package sim

import (
	"testing"
	"time"
)

// TestSteadyStateScheduleDispatchZeroAlloc pins the kernel's core contract:
// once the arena and heap have warmed up, a schedule→dispatch cycle performs
// no heap allocations — popped slots are recycled through the free list.
func TestSteadyStateScheduleDispatchZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm up: grow the arena, heap, and free list to steady-state capacity.
	for i := 0; i < 64; i++ {
		if _, err := schedAfter(s, time.Microsecond, fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			if _, err := schedAfter(s, time.Microsecond, fn); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("steady-state schedule+dispatch allocates %v per run, want 0", got)
	}
}

// TestSteadyStateCancelZeroAlloc covers the resilience layer's pattern:
// schedule/cancel interleave must also be allocation-free once warm.
func TestSteadyStateCancelZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 64; i++ {
		if _, err := schedAfter(s, time.Microsecond, fn); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		id, err := schedAfter(s, time.Millisecond, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Cancel(id) {
			t.Fatal("Cancel of pending event reported false")
		}
	})
	if got != 0 {
		t.Errorf("steady-state schedule+cancel allocates %v per run, want 0", got)
	}
}

// TestCancelAfterSlotReuseReportsFalse exercises the generation counter: an
// EventID whose arena slot has been recycled by newer events must keep
// reporting false from Cancel instead of cancelling the new occupant (the
// classic ABA hazard of index-based pools).
func TestCancelAfterSlotReuseReportsFalse(t *testing.T) {
	s := NewScheduler()
	stale, err := schedAt(s, 10, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil { // stale's slot is released here
		t.Fatal(err)
	}

	ran := false
	fresh, err := schedAt(s, 20, func() { ran = true }) // reuses the freed slot
	if err != nil {
		t.Fatal(err)
	}
	if fresh.slot != stale.slot {
		t.Fatalf("expected slot reuse (LIFO free list): fresh slot %d, stale slot %d", fresh.slot, stale.slot)
	}
	if fresh.gen == stale.gen {
		t.Fatal("generation not bumped on slot reuse")
	}

	if s.Cancel(stale) {
		t.Error("Cancel of a stale EventID reported true after slot reuse")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("stale Cancel removed the slot's new occupant")
	}
	// And the fresh ID is itself stale now that it has run.
	if s.Cancel(fresh) {
		t.Error("Cancel reported true for an event that already ran")
	}
}

// TestCancelHeavyInterleaveOrdering stresses the cancellation path of the
// run queue: half the events are cancelled in an interleaved pattern and
// the survivors must still fire in exact (at, seq) order.
func TestCancelHeavyInterleaveOrdering(t *testing.T) {
	s := NewScheduler()
	const n = 1000
	ids := make([]EventID, 0, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		// Deliberately colliding timestamps to exercise the seq tie-break.
		id, err := schedAt(s, Time(i%37), func() { fired = append(fired, i) })
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < n; i += 2 {
		if !s.Cancel(ids[i]) {
			t.Fatalf("Cancel #%d reported false for a pending event", i)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != n/2 {
		t.Fatalf("%d events fired, want %d", len(fired), n/2)
	}
	// Survivors are the odd i; for equal timestamps, schedule order wins.
	at := func(i int) int { return i % 37 }
	for k := 1; k < len(fired); k++ {
		a, b := fired[k-1], fired[k]
		if at(a) > at(b) || (at(a) == at(b) && a > b) {
			t.Fatalf("dispatch order violated: %d (t=%d) before %d (t=%d)", a, at(a), b, at(b))
		}
	}
}

// BenchmarkSchedulerCancelHeavy measures the schedule/cancel interleave the
// resilience layer produces (watchdogs armed per window and disarmed on
// success): for every dispatched event, three are scheduled and two
// cancelled.
func BenchmarkSchedulerCancelHeavy(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keep, err := schedAfter(s, time.Microsecond, fn)
		if err != nil {
			b.Fatal(err)
		}
		_ = keep
		w1, err := schedAfter(s, time.Millisecond, fn)
		if err != nil {
			b.Fatal(err)
		}
		w2, err := schedAfter(s, time.Second, fn)
		if err != nil {
			b.Fatal(err)
		}
		if !s.Cancel(w1) || !s.Cancel(w2) {
			b.Fatal("Cancel reported false for pending watchdogs")
		}
		if i%64 == 63 {
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
