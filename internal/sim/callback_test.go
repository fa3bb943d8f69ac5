package sim

import (
	"testing"
	"time"
)

// recorderCB collects the Args it receives, tagged with the virtual time of
// delivery, so tests can assert both payload fidelity and dispatch order.
type recorderCB struct {
	s    *Scheduler
	args []Arg
	ats  []Time
}

func (r *recorderCB) OnEvent(a Arg) {
	r.args = append(r.args, a)
	r.ats = append(r.ats, r.s.Now())
}

// TestAtCallDeliversArg pins the Arg round trip: every field scheduled is
// the field delivered, at the scheduled instant.
func TestAtCallDeliversArg(t *testing.T) {
	s := NewScheduler()
	rec := &recorderCB{s: s}
	want := Arg{Op: 7, I0: -3, I1: 1 << 40}
	if _, err := s.AtCall(25, rec, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.args) != 1 {
		t.Fatalf("%d deliveries, want 1", len(rec.args))
	}
	if rec.args[0] != want {
		t.Errorf("Arg = %+v, want %+v", rec.args[0], want)
	}
	if rec.ats[0] != 25 {
		t.Errorf("delivered at %v, want 25ns", rec.ats[0])
	}
}

// TestAtCallErrors: scheduling in the past or with a nil callback is
// rejected without touching the queue.
func TestAtCallErrors(t *testing.T) {
	s := NewScheduler()
	rec := &recorderCB{s: s}
	if _, err := schedAt(s, 10, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AtCall(5, rec, Arg{}); err == nil {
		t.Error("AtCall in the past succeeded")
	}
	if _, err := s.AtCall(20, nil, Arg{}); err == nil {
		t.Error("AtCall with nil callback succeeded")
	}
	if s.Pending() != 0 {
		t.Errorf("%d events pending after rejected schedules", s.Pending())
	}
}

// TestAtCallCancel covers cancellation of the typed form.
func TestAtCallCancel(t *testing.T) {
	s := NewScheduler()
	rec := &recorderCB{s: s}
	id, err := s.AfterCall(time.Millisecond, rec, Arg{Op: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(id) {
		t.Fatal("Cancel of pending AtCall event reported false")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.args) != 0 {
		t.Errorf("cancelled event delivered %d times", len(rec.args))
	}
}

// TestDoneInvoke pins the zero-value contract: a zero Done is a no-op, and
// a bound Done delivers its Arg to its Callback.
func TestDoneInvoke(t *testing.T) {
	Done{}.Invoke() // must not panic
	rec := &recorderCB{s: NewScheduler()}
	want := Arg{Op: 3, I0: 9}
	Done{CB: rec, Arg: want}.Invoke()
	if len(rec.args) != 1 || rec.args[0] != want {
		t.Errorf("Invoke delivered %+v, want [%+v]", rec.args, want)
	}
}

// TestSteadyStateAtCallZeroAlloc pins the typed form's reason to exist:
// schedule→dispatch with context in the Arg performs zero allocations once
// the arena is warm.
func TestSteadyStateAtCallZeroAlloc(t *testing.T) {
	s := NewScheduler()
	sink := &recorderCB{s: s}
	sink.args = make([]Arg, 0, 4096)
	sink.ats = make([]Time, 0, 4096)
	for i := 0; i < 64; i++ {
		if _, err := s.AfterCall(time.Microsecond, sink, Arg{I0: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		sink.args = sink.args[:0]
		sink.ats = sink.ats[:0]
		for i := 0; i < 16; i++ {
			if _, err := s.AfterCall(time.Microsecond, sink, Arg{Op: i, I0: int64(i), I1: int64(-i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("steady-state AtCall schedule+dispatch allocates %v per run, want 0", got)
	}
}

// TestResetReplaysIdentically runs a workload, Resets, and re-runs it: the
// second pass must observe the same clock, sequence of deliveries, and
// kernel counters as a fresh scheduler — the contract arena reuse is built
// on.
func TestResetReplaysIdentically(t *testing.T) {
	workload := func(s *Scheduler) ([]Time, uint64, uint64) {
		rec := &recorderCB{s: s}
		for i := 0; i < 20; i++ {
			if _, err := s.AtCall(Time(i%5)*10, rec, Arg{Op: i}); err != nil {
				t.Fatal(err)
			}
		}
		id, err := schedAt(s, 100, func() {})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Cancel(id) {
			t.Fatal("Cancel reported false")
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		sched, canc := s.Stats()
		return rec.ats, sched, canc
	}

	fresh := NewScheduler()
	wantAts, wantSched, wantCanc := workload(fresh)

	reused := NewScheduler()
	workload(reused)
	reused.Reset()
	if reused.Now() != 0 || reused.Pending() != 0 {
		t.Fatalf("post-Reset: now=%v pending=%d, want 0/0", reused.Now(), reused.Pending())
	}
	if sched, canc := reused.Stats(); sched != 0 || canc != 0 {
		t.Fatalf("post-Reset stats = (%d, %d), want zeroed", sched, canc)
	}
	gotAts, gotSched, gotCanc := workload(reused)
	if gotSched != wantSched || gotCanc != wantCanc {
		t.Errorf("replay stats = (%d, %d), fresh = (%d, %d)", gotSched, gotCanc, wantSched, wantCanc)
	}
	if len(gotAts) != len(wantAts) {
		t.Fatalf("replay delivered %d events, fresh %d", len(gotAts), len(wantAts))
	}
	for i := range gotAts {
		if gotAts[i] != wantAts[i] {
			t.Fatalf("delivery %d at %v on reuse, %v fresh", i, gotAts[i], wantAts[i])
		}
	}
}

// TestResetReuseZeroAlloc pins the arena-reuse payoff: once a scheduler has
// run one workload, Reset + an identical workload allocates nothing.
func TestResetReuseZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	workload := func() {
		for i := 0; i < 32; i++ {
			if _, err := schedAfter(s, time.Duration(i)*time.Microsecond, fn); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	workload()
	got := testing.AllocsPerRun(100, func() {
		s.Reset()
		workload()
	})
	if got != 0 {
		t.Errorf("Reset+replay allocates %v per run, want 0", got)
	}
}
