package sim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsEventsInOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	mustAt(t, s, 30, func() { got = append(got, 3) })
	mustAt(t, s, 10, func() { got = append(got, 1) })
	mustAt(t, s, 20, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now = %v, want 30", s.Now())
	}
}

func TestSchedulerTieBreakIsFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		mustAt(t, s, 5, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want FIFO", got)
		}
	}
}

func TestSchedulerRejectsPast(t *testing.T) {
	s := NewScheduler()
	mustAt(t, s, 100, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := schedAt(s, 50, func() {}); err == nil {
		t.Fatal("AtCall in the past succeeded, want error")
	}
}

func TestSchedulerRejectsNilCallback(t *testing.T) {
	s := NewScheduler()
	if _, err := s.AtCall(0, nil, Arg{}); err == nil {
		t.Fatal("AtCall(nil) succeeded, want error")
	}
}

func TestAfterClampsNegative(t *testing.T) {
	s := NewScheduler()
	ran := false
	if _, err := schedAfter(s, -time.Second, func() { ran = true }); err != nil {
		t.Fatalf("AfterCall: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Error("negative AfterCall never ran")
	}
	if s.Now() != 0 {
		t.Errorf("Now = %v, want 0", s.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	var got []Time
	mustAt(t, s, 10, func() {
		got = append(got, s.Now())
		if _, err := schedAfter(s, 5*time.Nanosecond, func() { got = append(got, s.Now()) }); err != nil {
			t.Errorf("nested AfterCall: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v, want [10 15]", got)
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	s := NewScheduler()
	ranEarly, ranLate := false, false
	mustAt(t, s, 10, func() { ranEarly = true })
	mustAt(t, s, 100, func() { ranLate = true })
	if err := s.RunUntil(50); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !ranEarly || ranLate {
		t.Fatalf("ranEarly=%v ranLate=%v, want true/false", ranEarly, ranLate)
	}
	if s.Now() != 50 {
		t.Errorf("Now = %v, want 50", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ranLate {
		t.Error("late event never ran after Run")
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 5; i++ {
		mustAt(t, s, Time(i), func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	err := s.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run err = %v, want ErrStopped", err)
	}
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
	// A fresh Run resumes with the remaining events.
	if err := s.Run(); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if count != 5 {
		t.Errorf("count after resume = %d, want 5", count)
	}
}

func TestCancelRemovesEvent(t *testing.T) {
	s := NewScheduler()
	ran := false
	id, err := schedAt(s, 10, func() { ran = true })
	if err != nil {
		t.Fatalf("AtCall: %v", err)
	}
	if !s.Cancel(id) {
		t.Fatal("Cancel reported false for a pending event")
	}
	if s.Cancel(id) {
		t.Fatal("second Cancel reported true")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestCancelZeroID(t *testing.T) {
	s := NewScheduler()
	if s.Cancel(EventID{}) {
		t.Error("Cancel of zero EventID reported true")
	}
}

func TestRunReentrancyRejected(t *testing.T) {
	s := NewScheduler()
	var inner error
	mustAt(t, s, 1, func() { inner = s.Run() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if inner == nil {
		t.Fatal("re-entrant Run succeeded, want error")
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if got := tm.Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
	if got := tm.Add(500 * time.Millisecond); got != Time(2*time.Second) {
		t.Errorf("Add = %v, want 2s", got)
	}
	if got := tm.String(); got != "1.5s" {
		t.Errorf("String = %q, want 1.5s", got)
	}
	if got := tm.Duration(); got != 1500*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
}

// Property: for any set of non-negative offsets, events fire in sorted order
// and the clock never moves backwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, off := range offsets {
			at := Time(off)
			if _, err := schedAt(s, at, func() { fired = append(fired, s.Now()) }); err != nil {
				return false
			}
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RunUntil(d) never executes an event scheduled after d, and a
// following Run executes exactly the remainder.
func TestPropertyRunUntilPartition(t *testing.T) {
	f := func(offsets []uint16, deadline uint16) bool {
		s := NewScheduler()
		early, late := 0, 0
		wantEarly, wantLate := 0, 0
		for _, off := range offsets {
			at := Time(off)
			if at <= Time(deadline) {
				wantEarly++
			} else {
				wantLate++
			}
			cb := func() {
				if s.Now() <= Time(deadline) {
					early++
				} else {
					late++
				}
			}
			if _, err := schedAt(s, at, cb); err != nil {
				return false
			}
		}
		if err := s.RunUntil(Time(deadline)); err != nil {
			return false
		}
		if early != wantEarly || late != 0 {
			return false
		}
		if err := s.Run(); err != nil {
			return false
		}
		return late == wantLate
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// thunk adapts a plain func to Callback, so tests can schedule closures
// through the scheduler's one typed API.
type thunk func()

func (f thunk) OnEvent(Arg) { f() }

// schedAt and schedAfter schedule fn at instant t, or d after now.
func schedAt(s *Scheduler, t Time, fn func()) (EventID, error) {
	return s.AtCall(t, thunk(fn), Arg{})
}

func schedAfter(s *Scheduler, d time.Duration, fn func()) (EventID, error) {
	return s.AfterCall(d, thunk(fn), Arg{})
}

func mustAt(t *testing.T, s *Scheduler, at Time, fn func()) {
	t.Helper()
	if _, err := schedAt(s, at, fn); err != nil {
		t.Fatalf("AtCall(%v): %v", at, err)
	}
}
