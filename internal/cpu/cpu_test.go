package cpu

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"iothub/internal/energy"
	"iothub/internal/sim"
	"iothub/internal/sim/simtest"
)

func newCPU(t *testing.T) (*CPU, *sim.Scheduler, *energy.Meter) {
	t.Helper()
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	c, err := New(s, m, "cpu", DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, s, m
}

// thunk adapts a plain func to sim.Callback, so tests can hand closures to
// the typed scheduling API. It is a pointer: the scheduler interns a
// completion's callback by ==, and func values do not compare.
type thunk struct{ fn func() }

func (t *thunk) OnEvent(sim.Arg) { t.fn() }

// exec queues work whose completion runs fn (nil for none).
func exec(c *CPU, d time.Duration, r energy.Routine, fn func()) error {
	if fn == nil {
		return c.ExecCall(d, r, sim.Done{})
	}
	return c.ExecCall(d, r, sim.Done{CB: &thunk{fn}})
}

// after schedules fn d from now.
func after(s *sim.Scheduler, d time.Duration, fn func()) (sim.EventID, error) {
	return s.AfterCall(d, &thunk{fn}, sim.Arg{})
}

func run(t *testing.T, s *sim.Scheduler) {
	t.Helper()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNewRejectsZeroMIPS(t *testing.T) {
	s := sim.NewScheduler()
	if _, err := New(s, energy.NewMeter(s), "cpu", Params{}); err == nil {
		t.Error("zero MIPS accepted")
	}
}

func TestExecChargesActivePower(t *testing.T) {
	c, s, m := newCPU(t)
	done := false
	if err := exec(c, 100*time.Millisecond, energy.AppCompute, func() { done = true }); err != nil {
		t.Fatalf("ExecCall: %v", err)
	}
	run(t, s)
	if !done {
		t.Fatal("done callback never ran")
	}
	got := m.Total()[energy.AppCompute]
	want := c.Params().ActiveW * 0.1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("AppCompute energy = %v, want %v", got, want)
	}
	if c.State() != WFI {
		t.Errorf("post-work state = %v, want WFI", c.State())
	}
}

func TestExecSerializesFIFO(t *testing.T) {
	c, s, _ := newCPU(t)
	var order []int
	var at []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		err := exec(c, 10*time.Millisecond, energy.DataTransfer, func() {
			order = append(order, i)
			at = append(at, s.Now())
		})
		if err != nil {
			t.Fatalf("ExecCall: %v", err)
		}
	}
	run(t, s)
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	if at[2] != sim.Time(30*time.Millisecond) {
		t.Errorf("third item ended at %v, want 30ms", at[2])
	}
}

func TestExecRejectsNegativeDuration(t *testing.T) {
	c, _, _ := newCPU(t)
	if err := exec(c, -1, energy.AppCompute, nil); err == nil {
		t.Error("negative duration accepted")
	}
}

// TestExecRejectsUnknownRoutine refuses work attributed to no routine up
// front, instead of accepting it and failing when its busy time is accrued;
// 265 would wrap to Interrupt in the work item's one-byte routine.
func TestExecRejectsUnknownRoutine(t *testing.T) {
	c, s, _ := newCPU(t)
	for _, r := range []energy.Routine{0, energy.Idle + 1, 9, 265} {
		if err := exec(c, time.Millisecond, r, nil); err == nil {
			t.Errorf("ExecCall accepted %v", r)
		}
	}
	if c.Busy() {
		t.Error("a refused item was queued")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIdlePicksWFIForShortGap(t *testing.T) {
	c, _, _ := newCPU(t)
	if err := c.Idle(500*time.Microsecond, energy.DataTransfer, false); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.State() != WFI {
		t.Errorf("state = %v, want WFI (gap below break-even %v)", c.State(), c.Params().SleepBreakEven())
	}
}

func TestIdlePicksSleepForLongGap(t *testing.T) {
	c, _, _ := newCPU(t)
	if err := c.Idle(20*time.Millisecond, energy.DataTransfer, false); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.State() != Sleep {
		t.Errorf("state = %v, want Sleep", c.State())
	}
}

func TestIdlePicksDeepSleepOnlyWhenAllowed(t *testing.T) {
	c, _, _ := newCPU(t)
	if err := c.Idle(time.Second, energy.AppCompute, false); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.State() != Sleep {
		t.Errorf("state = %v, want Sleep without allowDeep", c.State())
	}
	if err := c.Idle(time.Second, energy.AppCompute, true); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.State() != DeepSleep {
		t.Errorf("state = %v, want DeepSleep", c.State())
	}
}

func TestIdleWhileBusyFails(t *testing.T) {
	c, s, _ := newCPU(t)
	if err := exec(c, time.Millisecond, energy.AppCompute, nil); err != nil {
		t.Fatalf("ExecCall: %v", err)
	}
	if err := c.Idle(time.Second, energy.Idle, false); !errors.Is(err, ErrBusy) {
		t.Errorf("Idle while busy = %v, want ErrBusy", err)
	}
	run(t, s)
}

func TestWakeFromSleepChargesTransition(t *testing.T) {
	c, s, m := newCPU(t)
	if err := c.Idle(time.Second, energy.DataTransfer, false); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	// Sleep for 100 ms of virtual time, then new work arrives.
	if _, err := after(s, 100*time.Millisecond, func() {
		if err := exec(c, 10*time.Millisecond, energy.Interrupt, nil); err != nil {
			t.Errorf("ExecCall: %v", err)
		}
	}); err != nil {
		t.Fatalf("After: %v", err)
	}
	run(t, s)
	p := c.Params()
	b := m.Total()
	wantSleep := p.SleepW * 0.1
	wantIrq := p.TransitionW*p.WakeFromSleep.Seconds() + p.ActiveW*0.01
	if math.Abs(b[energy.DataTransfer]-wantSleep) > 1e-9 {
		t.Errorf("sleep energy = %v, want %v", b[energy.DataTransfer], wantSleep)
	}
	if math.Abs(b[energy.Interrupt]-wantIrq) > 1e-9 {
		t.Errorf("wake+work energy = %v, want %v", b[energy.Interrupt], wantIrq)
	}
	if c.Wakes() != 1 {
		t.Errorf("Wakes = %d, want 1", c.Wakes())
	}
	// Work completion is delayed by the wake latency.
	if got, want := s.Now(), sim.Time(100*time.Millisecond+p.WakeFromSleep+10*time.Millisecond); got != want {
		t.Errorf("end time = %v, want %v", got, want)
	}
}

func TestSleepBreakEvenMatchesPaperShape(t *testing.T) {
	p := DefaultParams()
	be := p.SleepBreakEven()
	// 2.5 W × 1.6 ms / (1.2 − 0.5) W ≈ 5.7 ms: longer than the 1 ms sample
	// period (so Baseline never sleeps) and far shorter than a batching
	// window (so Batching always sleeps).
	if be <= time.Millisecond {
		t.Errorf("break-even %v too short: baseline would sleep between samples", be)
	}
	if be >= 100*time.Millisecond {
		t.Errorf("break-even %v too long: batching would never sleep", be)
	}
}

func TestSleepBreakEvenDegenerate(t *testing.T) {
	p := DefaultParams()
	p.SleepW = p.WFIW // no saving: break-even should be effectively infinite
	if got := p.SleepBreakEven(); got < time.Hour {
		t.Errorf("degenerate break-even = %v, want huge", got)
	}
}

func TestBusyByRoutine(t *testing.T) {
	c, s, _ := newCPU(t)
	if err := exec(c, 5*time.Millisecond, energy.Interrupt, nil); err != nil {
		t.Fatal(err)
	}
	if err := exec(c, 7*time.Millisecond, energy.DataTransfer, nil); err != nil {
		t.Fatal(err)
	}
	// A routine whose items all took zero time still has an entry: the
	// golden CPUBusy JSON depends on it.
	if err := exec(c, 0, energy.AppCompute, nil); err != nil {
		t.Fatal(err)
	}
	run(t, s)
	b := c.BusyByRoutine()
	if b[energy.Interrupt] != 5*time.Millisecond || b[energy.DataTransfer] != 7*time.Millisecond {
		t.Errorf("BusyByRoutine = %v", b)
	}
	if d, ok := b[energy.AppCompute]; !ok || d != 0 || len(b) != 3 {
		t.Errorf("BusyByRoutine = %v, want a zero AppCompute entry and nothing else", b)
	}
}

// TestQueuesSizedToPeakBacklog pushes 1000 items down each lane while each
// keeps 20 outstanding (every completion queues the next), so the lanes
// never drain. Each lane's queue capacity must be the smallest power of two
// >= its backlog, and the item pool must hold the peak of items outstanding,
// not one slot per item.
func TestQueuesSizedToPeakBacklog(t *testing.T) {
	c, s, _ := newCPU(t)
	const backlog, total = 20, 1000
	type lane struct {
		r                  energy.Routine
		pushed, live, peak int
	}
	lanes := []*lane{{r: energy.Interrupt}, {r: energy.AppCompute}}
	outstanding, peakOutstanding := 0, 0
	var push func(l *lane)
	push = func(l *lane) {
		l.pushed++
		l.live++
		outstanding++
		l.peak = max(l.peak, l.live)
		peakOutstanding = max(peakOutstanding, outstanding)
		if err := exec(c, time.Millisecond, l.r, func() {
			l.live--
			outstanding--
			if l.pushed < total {
				push(l)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < backlog; i++ {
		for _, l := range lanes {
			push(l)
		}
	}
	run(t, s)
	for _, l := range lanes {
		if l.pushed != total || l.peak != backlog {
			t.Fatalf("%v lane: pushed %d with peak backlog %d, want %d and %d", l.r, l.pushed, l.peak, total, backlog)
		}
	}
	if got, want := c.queueIO.Cap(), nextPow2(backlog); got != want {
		t.Errorf("IO queue capacity %d, want %d", got, want)
	}
	if got, want := c.queueCompute.Cap(), nextPow2(backlog); got != want {
		t.Errorf("compute queue capacity %d, want %d", got, want)
	}
	if len(c.items) != peakOutstanding {
		t.Errorf("item pool holds %d slots, want %d (peak outstanding)", len(c.items), peakOutstanding)
	}
}

// nextPow2 is the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

func TestDoneCallbackCanChainExec(t *testing.T) {
	c, s, _ := newCPU(t)
	var second sim.Time
	err := exec(c, time.Millisecond, energy.Interrupt, func() {
		if err := exec(c, time.Millisecond, energy.DataTransfer, func() { second = s.Now() }); err != nil {
			t.Errorf("chained ExecCall: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	run(t, s)
	if second != sim.Time(2*time.Millisecond) {
		t.Errorf("chained work ended at %v, want 2ms", second)
	}
}

func TestForceState(t *testing.T) {
	c, s, m := newCPU(t)
	if err := c.ForceState(Sleep, energy.Idle); err != nil {
		t.Fatalf("ForceState: %v", err)
	}
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	got := m.Total()[energy.Idle]
	if math.Abs(got-c.Params().SleepW) > 1e-9 {
		t.Errorf("idle-hub energy = %v, want %v", got, c.Params().SleepW)
	}
	if err := c.ForceState(Waking, energy.Idle); err == nil {
		t.Error("ForceState(Waking) accepted")
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		Active: "Active", WFI: "WFI", Sleep: "Sleep",
		DeepSleep: "DeepSleep", Waking: "Waking", State(42): "State(42)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("State(%d) = %q, want %q", int(st), got, want)
		}
	}
}

// cpuReading is every exported reading of a processor after a run.
type cpuReading struct {
	Busy   map[energy.Routine]time.Duration
	Resid  map[State]time.Duration
	Wakes  int
	State  State
	Ends   []sim.Time
	Energy energy.Breakdown
}

// probeCPU runs one fixed workload on c — work on both lanes, a deep sleep,
// and a wake — and returns the readings.
func probeCPU(t *testing.T, c *CPU, s *sim.Scheduler) cpuReading {
	t.Helper()
	var ends []sim.Time
	done := func() { ends = append(ends, s.Now()) }
	for _, r := range []energy.Routine{energy.Interrupt, energy.AppCompute, energy.DataTransfer, energy.AppCompute} {
		if err := exec(c, 2*time.Millisecond, r, done); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := after(s, 20*time.Millisecond, func() {
		if err := c.Idle(time.Second, energy.AppCompute, true); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := after(s, 100*time.Millisecond, func() {
		if err := exec(c, time.Millisecond, energy.Interrupt, done); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	run(t, s)
	return cpuReading{c.BusyByRoutine(), c.Residency(), c.Wakes(), c.State(), ends, c.Track().Breakdown()}
}

// TestResetMidRunMatchesFresh resets a processor caught mid-run — woken from
// deep sleep, both lanes busy, more work queued — and checks that it then
// reads exactly like a freshly built one.
func TestResetMidRunMatchesFresh(t *testing.T) {
	c, s, m := newCPU(t)
	if err := c.Idle(time.Second, energy.AppCompute, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := exec(c, 10*time.Millisecond, energy.AppCompute, nil); err != nil {
			t.Fatal(err)
		}
		if err := exec(c, time.Millisecond, energy.Interrupt, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(sim.Time(8 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !c.Busy() || c.Wakes() != 1 {
		t.Fatalf("setup: busy %v, wakes %d; want a woken processor with work left", c.Busy(), c.Wakes())
	}
	s.Reset()
	m.Reset()
	if err := c.Reset(DefaultParams()); err != nil {
		t.Fatal(err)
	}
	got := probeCPU(t, c, s)
	fresh, fs, _ := newCPU(t)
	if want := probeCPU(t, fresh, fs); !reflect.DeepEqual(got, want) {
		t.Errorf("reset processor reads %+v\nfresh processor reads %+v", got, want)
	}
}

// TestWorkItemSize pins the work item every ExecCall copies into its slot
// (DESIGN.md §7): a field that makes it larger makes every device call dearer.
func TestWorkItemSize(t *testing.T) {
	if got, max := reflect.TypeOf(workItem{}).Size(), uintptr(40); got > max {
		t.Errorf("cpu workItem is %d bytes, want at most %d: see DESIGN.md §7 before growing a hot record", got, max)
	}
}

// TestWorkItemHoldsNoPointer keeps the slot pool out of the collector's
// sight: a queued completion is a scheduler handle and an Arg, not a
// callback (DESIGN.md §7).
func TestWorkItemHoldsNoPointer(t *testing.T) {
	if simtest.MayHoldPointer(reflect.TypeOf(workItem{})) {
		t.Error("cpu workItem can hold a pointer: see DESIGN.md §7")
	}
}
