package radio

import (
	"math"
	"reflect"
	"testing"
	"time"

	"iothub/internal/energy"
	"iothub/internal/sim"
)

func newRadio(t *testing.T, params Params) (*Radio, *sim.Scheduler, *energy.Meter) {
	t.Helper()
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	r, err := New(s, m, "radio", params)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, s, m
}

func TestParamsValidate(t *testing.T) {
	bad := DefaultMainParams()
	bad.BytesPerSec = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero goodput accepted")
	}
	bad = DefaultMainParams()
	bad.PerTxOverhead = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative overhead accepted")
	}
	bad = DefaultMainParams()
	bad.TxW, bad.IdleW = 0.1, 0.5
	if err := bad.Validate(); err == nil {
		t.Error("TxW < IdleW accepted")
	}
}

func TestTxDuration(t *testing.T) {
	r, _, _ := newRadio(t, Params{TxW: 1, IdleW: 0, BytesPerSec: 1000, PerTxOverhead: time.Millisecond})
	if got := r.TxDuration(0); got != 0 {
		t.Errorf("empty burst duration = %v", got)
	}
	if got := r.TxDuration(1000); got != time.Millisecond+time.Second {
		t.Errorf("1000B duration = %v", got)
	}
}

func TestTransmitEnergy(t *testing.T) {
	params := Params{TxW: 0.7, IdleW: 0, BytesPerSec: 1000, PerTxOverhead: 0}
	r, s, m := newRadio(t, params)
	done := false
	if err := r.Transmit(500, energy.AppCompute, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("done never ran")
	}
	got := m.Total()[energy.AppCompute]
	want := 0.7 * 0.5
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("tx energy = %v, want %v", got, want)
	}
}

func TestTransmitSerializesBursts(t *testing.T) {
	params := Params{TxW: 1, IdleW: 0, BytesPerSec: 1000, PerTxOverhead: 0}
	r, s, m := newRadio(t, params)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		if err := r.Transmit(100, energy.AppCompute, func() { ends = append(ends, s.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 3 {
		t.Fatalf("ends = %d", len(ends))
	}
	if ends[2] != sim.Time(300*time.Millisecond) {
		t.Errorf("third burst ended at %v, want 300ms", ends[2])
	}
	// Exactly 300 ms of airtime at 1 W.
	if got := m.Total()[energy.AppCompute]; math.Abs(got-0.3) > 1e-9 {
		t.Errorf("airtime energy = %v, want 0.3", got)
	}
}

func TestTransmitZeroAndNegative(t *testing.T) {
	r, s, m := newRadio(t, DefaultMCUParams())
	ran := false
	if err := r.Transmit(0, energy.AppCompute, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("zero-byte done not invoked synchronously")
	}
	if err := r.Transmit(-1, energy.AppCompute, nil); err == nil {
		t.Error("negative payload accepted")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Total()[energy.AppCompute]; got != 0 {
		t.Errorf("energy = %v, want 0", got)
	}
}

func TestIdleDraw(t *testing.T) {
	r, s, m := newRadio(t, DefaultMainParams())
	_ = r
	if err := s.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	got := m.Total()[energy.Idle]
	want := DefaultMainParams().IdleW * 2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("idle energy = %v, want %v", got, want)
	}
}

func TestBackToBackKeepsTxLevel(t *testing.T) {
	params := Params{TxW: 1, IdleW: 0.1, BytesPerSec: 1000, PerTxOverhead: 0}
	r, s, m := newRadio(t, params)
	if err := r.Transmit(100, energy.AppCompute, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Transmit(100, energy.AppCompute, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	b := m.Total()
	// 200 ms at 1 W, 800 ms idle at 0.1 W — the first burst's end must not
	// drop the level mid-queue.
	if math.Abs(b[energy.AppCompute]-0.2) > 1e-9 {
		t.Errorf("tx energy = %v, want 0.2", b[energy.AppCompute])
	}
	if math.Abs(b[energy.Idle]-0.08) > 1e-9 {
		t.Errorf("idle energy = %v, want 0.08", b[energy.Idle])
	}
}

func TestOutageDefersBurst(t *testing.T) {
	r, s, _ := newRadio(t, DefaultMCUParams())
	if err := r.AddOutage(sim.Time(0), sim.Time(50*time.Millisecond)); err != nil {
		t.Fatalf("AddOutage: %v", err)
	}
	var doneAt sim.Time
	if err := r.Transmit(300, energy.AppCompute, func() { doneAt = s.Now() }); err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := sim.Time(50 * time.Millisecond).Add(r.TxDuration(300))
	if doneAt != want {
		t.Errorf("burst finished at %v, want %v (deferred past the outage)", doneAt, want)
	}
	if r.Deferred() != 1 || r.DroppedBursts() != 0 {
		t.Errorf("deferred=%d dropped=%d, want 1 deferred", r.Deferred(), r.DroppedBursts())
	}
}

func TestBoundedQueueDropsOverflow(t *testing.T) {
	r, s, _ := newRadio(t, DefaultMCUParams())
	if err := r.AddOutage(sim.Time(0), sim.Time(100*time.Millisecond)); err != nil {
		t.Fatalf("AddOutage: %v", err)
	}
	r.SetQueueLimit(500)
	delivered := 0
	dropped := 0
	for i := 0; i < 3; i++ {
		if err := r.Transmit(300, energy.AppCompute, func() {
			if s.Now() == 0 {
				dropped++ // drop callbacks run synchronously at submit time
			} else {
				delivered++
			}
		}); err != nil {
			t.Fatalf("Transmit %d: %v", i, err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 500-byte buffer holds one 300-byte burst during the outage; the second
	// would overflow (600 > 500) and is dropped. The third arrives after the
	// first dequeues... it is submitted at t=0 too, so it also overflows.
	if r.DroppedBursts() != 2 || r.DroppedBytes() != 600 {
		t.Errorf("dropped %d bursts / %d bytes, want 2 / 600", r.DroppedBursts(), r.DroppedBytes())
	}
	if delivered != 1 || dropped != 2 {
		t.Errorf("delivered=%d dropped-callbacks=%d, want 1 and 2", delivered, dropped)
	}
}

func TestOutageFreePathUnchanged(t *testing.T) {
	a, sa, ma := newRadio(t, DefaultMainParams())
	b, sb, mb := newRadio(t, DefaultMainParams())
	if err := b.AddOutage(sim.Time(time.Hour), sim.Time(2*time.Hour)); err != nil {
		t.Fatalf("AddOutage: %v", err)
	}
	b.SetQueueLimit(10)
	for _, r := range []*Radio{a, b} {
		if err := r.Transmit(1000, energy.AppCompute, nil); err != nil {
			t.Fatalf("Transmit: %v", err)
		}
	}
	if err := sa.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := sb.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if ea, eb := ma.Total().Total(), mb.Total().Total(); ea != eb {
		t.Errorf("energy diverged with an un-hit outage: %v vs %v", ea, eb)
	}
	if b.Deferred() != 0 || b.DroppedBursts() != 0 {
		t.Errorf("un-hit outage deferred=%d dropped=%d", b.Deferred(), b.DroppedBursts())
	}
}

func TestAddOutageRejectsEmptySpan(t *testing.T) {
	r, _, _ := newRadio(t, DefaultMainParams())
	if err := r.AddOutage(sim.Time(5), sim.Time(5)); err == nil {
		t.Error("empty outage accepted")
	}
	if err := r.AddOutage(sim.Time(-1), sim.Time(5)); err == nil {
		t.Error("negative outage accepted")
	}
}

// TestTransmitSteadyStateZeroAlloc pins the typed burst events: once the
// scheduler arena and the completion ring are warm, a burst with a pre-bound
// completion allocates nothing, also when a completion chains the next
// burst.
func TestTransmitSteadyStateZeroAlloc(t *testing.T) {
	r, s, _ := newRadio(t, DefaultMainParams())
	left := 0
	var next func()
	next = func() {
		if left > 0 {
			left--
			if err := r.Transmit(64, energy.DataTransfer, next); err != nil {
				t.Fatal(err)
			}
		}
	}
	burst := func() {
		left = 3
		for i := 0; i < 4; i++ {
			if err := r.Transmit(256, energy.AppCompute, next); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if got := testing.AllocsPerRun(100, burst); got != 0 {
		t.Errorf("warmed Transmit allocates %v per run, want 0", got)
	}
}

// thunk adapts a plain func to sim.Callback.
type thunk func()

func (f thunk) OnEvent(sim.Arg) { f() }

// radioReading is every exported reading of a radio after a run.
type radioReading struct {
	Deferred, DroppedBursts, DroppedBytes int
	Done                                  []sim.Time
	Energy                                energy.Breakdown
}

// probeRadio runs one fixed workload on r — back-to-back bursts, one pushed
// past an outage and one dropped at the bounded queue — and returns the
// readings.
func probeRadio(t *testing.T, r *Radio, s *sim.Scheduler) radioReading {
	t.Helper()
	var done []sim.Time
	note := func() { done = append(done, s.Now()) }
	r.SetQueueLimit(30000)
	if err := r.AddOutage(sim.Time(20*time.Millisecond), sim.Time(40*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{25000, 10000, 25000} {
		if err := r.Transmit(n, energy.AppCompute, note); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AfterCall(25*time.Millisecond, thunk(func() {
		if err := r.Transmit(25000, energy.AppCompute, note); err != nil {
			t.Error(err)
		}
	}), sim.Arg{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return radioReading{r.Deferred(), r.DroppedBursts(), r.DroppedBytes(), done, r.Track().Breakdown()}
}

// TestResetMidRunMatchesFresh resets a radio caught mid-run — off the air
// with a burst waiting out the outage and one dropped — and checks that it
// then reads exactly like a freshly built one.
func TestResetMidRunMatchesFresh(t *testing.T) {
	r, s, m := newRadio(t, DefaultMainParams())
	r.SetQueueLimit(1000)
	if err := r.AddOutage(0, sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.Transmit(800, energy.AppCompute, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(sim.Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if r.Deferred() != 1 || r.DroppedBursts() != 1 {
		t.Fatalf("setup: %d deferred, %d dropped; want 1 each", r.Deferred(), r.DroppedBursts())
	}
	s.Reset()
	m.Reset()
	if err := r.Reset(DefaultMainParams()); err != nil {
		t.Fatal(err)
	}
	got := probeRadio(t, r, s)
	fresh, fs, _ := newRadio(t, DefaultMainParams())
	if want := probeRadio(t, fresh, fs); !reflect.DeepEqual(got, want) {
		t.Errorf("reset radio reads %+v\nfresh radio reads %+v", got, want)
	}
}
