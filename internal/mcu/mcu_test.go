package mcu

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"iothub/internal/energy"
	"iothub/internal/sim"
	"iothub/internal/sim/simtest"
)

func newMCU(t *testing.T) (*MCU, *sim.Scheduler, *energy.Meter) {
	t.Helper()
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	mc, err := New(s, m, "mcu", DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return mc, s, m
}

func TestNewRejectsBadParams(t *testing.T) {
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	bad := DefaultParams()
	bad.ReservedBytes = bad.RAMBytes
	if _, err := New(s, m, "m", bad); err == nil {
		t.Error("zero usable RAM accepted")
	}
	bad = DefaultParams()
	bad.BaseSlowdown = 0
	if _, err := New(s, m, "m", bad); err == nil {
		t.Error("zero slowdown accepted")
	}
}

func TestRAMAccounting(t *testing.T) {
	mc, _, _ := newMCU(t)
	free := mc.RAMFree()
	if free != mc.Params().UsableRAM() {
		t.Fatalf("initial free = %d, want %d", free, mc.Params().UsableRAM())
	}
	if err := mc.Alloc(10_000); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if mc.RAMUsed() != 10_000 || mc.RAMFree() != free-10_000 {
		t.Errorf("used=%d free=%d after alloc", mc.RAMUsed(), mc.RAMFree())
	}
	if err := mc.Free(10_000); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if mc.RAMUsed() != 0 {
		t.Errorf("used = %d after free, want 0", mc.RAMUsed())
	}
}

func TestAllocOverflowFailsWithErrNoRAM(t *testing.T) {
	mc, _, _ := newMCU(t)
	err := mc.Alloc(mc.RAMFree() + 1)
	if !errors.Is(err, ErrNoRAM) {
		t.Errorf("oversized Alloc = %v, want ErrNoRAM", err)
	}
	if mc.RAMUsed() != 0 {
		t.Errorf("failed alloc leaked %d bytes", mc.RAMUsed())
	}
	if err := mc.Alloc(-1); err == nil {
		t.Error("negative Alloc accepted")
	}
}

func TestFreeValidation(t *testing.T) {
	mc, _, _ := newMCU(t)
	if err := mc.Free(1); err == nil {
		t.Error("Free beyond allocation accepted")
	}
	if err := mc.Free(-1); err == nil {
		t.Error("negative Free accepted")
	}
}

func TestHeavyAppDoesNotFit(t *testing.T) {
	// A11's 1.43 GB footprint must never fit the 80 KB part.
	mc, _, _ := newMCU(t)
	if err := mc.Alloc(1_430_000_000); !errors.Is(err, ErrNoRAM) {
		t.Errorf("1.43 GB alloc = %v, want ErrNoRAM", err)
	}
}

func TestExecChargesActiveEnergy(t *testing.T) {
	mc, s, m := newMCU(t)
	if err := exec(mc, 50*time.Millisecond, energy.DataCollection, nil); err != nil {
		t.Fatalf("ExecCall: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := m.Total()[energy.DataCollection]
	want := mc.Params().ActiveW * 0.05
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("energy = %v, want %v", got, want)
	}
}

func TestExecSerializes(t *testing.T) {
	mc, s, _ := newMCU(t)
	var end sim.Time
	for i := 0; i < 4; i++ {
		if err := exec(mc, time.Millisecond, energy.AppCompute, func() { end = s.Now() }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != sim.Time(4*time.Millisecond) {
		t.Errorf("last item ended at %v, want 4ms", end)
	}
	if got := mc.BusyByRoutine()[energy.AppCompute]; got != 4*time.Millisecond {
		t.Errorf("busy = %v, want 4ms", got)
	}
}

func TestExecRejectsNegative(t *testing.T) {
	mc, _, _ := newMCU(t)
	if err := exec(mc, -1, energy.AppCompute, nil); err == nil {
		t.Error("negative duration accepted")
	}
}

// TestExecRejectsUnknownRoutine refuses work attributed to no routine up
// front, instead of accepting it and failing when its busy time is accrued;
// 265 would wrap to Interrupt in the work item's one-byte routine.
func TestExecRejectsUnknownRoutine(t *testing.T) {
	mc, s, _ := newMCU(t)
	for _, r := range []energy.Routine{0, energy.Idle + 1, 9, 265} {
		if err := exec(mc, time.Millisecond, r, nil); err == nil {
			t.Errorf("ExecCall accepted %v", r)
		}
	}
	if mc.Busy() {
		t.Error("a refused item was queued")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOffloadTimeSlowdown(t *testing.T) {
	mc, _, _ := newMCU(t)
	base := mc.OffloadTime(time.Millisecond, 1)
	if base != 19*time.Millisecond {
		t.Errorf("base offload = %v, want 19ms", base)
	}
	fp := mc.OffloadTime(time.Millisecond, 8)
	if fp != 152*time.Millisecond {
		t.Errorf("FP offload = %v, want 152ms", fp)
	}
	// Penalties below 1 are clamped.
	if got := mc.OffloadTime(time.Millisecond, 0); got != base {
		t.Errorf("clamped offload = %v, want %v", got, base)
	}
}

func TestCrashLosesRAMAndRestartsWork(t *testing.T) {
	mc, s, _ := newMCU(t)
	if err := mc.Alloc(12_000); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	var doneAt sim.Time
	if err := exec(mc, 10*time.Millisecond, energy.AppCompute, func() { doneAt = s.Now() }); err != nil {
		t.Fatalf("ExecCall: %v", err)
	}
	alive := sim.Time(-1)
	// Crash 4 ms into the 10 ms item; it restarts in full after the reboot.
	if _, err := after(s, 4*time.Millisecond, func() {
		if err := mc.Crash(100*time.Millisecond, call(func() { alive = s.Now() })); err != nil {
			t.Errorf("Crash: %v", err)
		}
		if mc.Alive() {
			t.Error("Alive during reboot")
		}
		if mc.RAMUsed() != 0 {
			t.Errorf("RAM survived the crash: %d bytes", mc.RAMUsed())
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !mc.Alive() || mc.Crashes() != 1 {
		t.Errorf("alive=%v crashes=%d after run", mc.Alive(), mc.Crashes())
	}
	if alive != sim.Time(104*time.Millisecond) {
		t.Errorf("onAlive at %v, want 104ms", alive)
	}
	// 4 ms partial run discarded + 100 ms reboot + full 10 ms rerun.
	if want := sim.Time(114 * time.Millisecond); doneAt != want {
		t.Errorf("work completed at %v, want %v", doneAt, want)
	}
}

func TestCrashEnergyAndQueueSurvival(t *testing.T) {
	mc, s, m := newMCU(t)
	order := []int{}
	// Two queued items; the crash hits while the first runs. Both still
	// complete, in order, after the reboot.
	for i := 0; i < 2; i++ {
		i := i
		if err := exec(mc, 10*time.Millisecond, energy.AppCompute, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := after(s, 5*time.Millisecond, func() {
		if err := mc.Crash(50*time.Millisecond, sim.Done{}); err != nil {
			t.Errorf("Crash: %v", err)
		}
		// A crash during the reboot is absorbed, not double-counted.
		if err := mc.Crash(time.Millisecond, sim.Done{}); err != nil {
			t.Errorf("nested Crash: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if mc.Crashes() != 1 {
		t.Errorf("crashes = %d, want 1 (nested crash absorbed)", mc.Crashes())
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Errorf("completion order %v, want [0 1]", order)
	}
	// Reboot draw lands on the Idle routine: 50 ms at RebootW.
	wantReboot := mc.Params().RebootW * 0.05
	idleJ := m.Total()[energy.Idle]
	if idleJ < wantReboot-1e-9 {
		t.Errorf("idle-routine energy %v J missing the %v J reboot draw", idleJ, wantReboot)
	}
	// Active energy covers the discarded partial run plus both full reruns.
	wantActive := mc.Params().ActiveW * (0.005 + 0.010 + 0.010)
	if got := m.Total()[energy.AppCompute]; math.Abs(got-wantActive) > 1e-9 {
		t.Errorf("active energy = %v J, want %v (partial + 2 full items)", got, wantActive)
	}
}

func TestExecDuringRebootQueuesUntilAlive(t *testing.T) {
	mc, s, _ := newMCU(t)
	if err := mc.Crash(20*time.Millisecond, sim.Done{}); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	var doneAt sim.Time
	if err := exec(mc, time.Millisecond, energy.DataCollection, func() { doneAt = s.Now() }); err != nil {
		t.Fatalf("ExecCall during reboot: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := sim.Time(21 * time.Millisecond); doneAt != want {
		t.Errorf("queued work completed at %v, want %v", doneAt, want)
	}
}

// Property: Alloc/Free sequences never drive usage negative or beyond the
// usable RAM, and a successful Alloc is always reversible.
func TestPropertyRAMInvariant(t *testing.T) {
	f := func(ops []int16) bool {
		mc, _, _ := newMCUQuiet()
		for _, op := range ops {
			n := int(op)
			if n >= 0 {
				if err := mc.Alloc(n); err == nil {
					defer func(n int) { _ = mc.Free(n) }(n)
				}
			} else if -n <= mc.RAMUsed() {
				if err := mc.Free(-n); err != nil {
					return false
				}
			}
			if mc.RAMUsed() < 0 || mc.RAMUsed() > mc.Params().UsableRAM() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newMCUQuiet() (*MCU, *sim.Scheduler, *energy.Meter) {
	s := sim.NewScheduler()
	m := energy.NewMeter(s)
	mc, err := New(s, m, "mcu", DefaultParams())
	if err != nil {
		panic(err)
	}
	return mc, s, m
}

// nextPow2 is the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// TestQueueSizedToPeakBacklog pushes 1000 items through a board that always
// has 20 outstanding (each completion queues the next), so the queue never
// drains. Its capacity must follow the peak backlog, not the item count.
func TestQueueSizedToPeakBacklog(t *testing.T) {
	mc, s, _ := newMCU(t)
	const backlog, total = 20, 1000
	pushed, live, peak := 0, 0, 0
	var push func()
	push = func() {
		pushed++
		live++
		peak = max(peak, live)
		if err := exec(mc, time.Millisecond, energy.DataCollection, func() {
			live--
			if pushed < total {
				push()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < backlog; i++ {
		push()
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if pushed != total || peak != backlog {
		t.Fatalf("pushed %d items with peak backlog %d, want %d and %d", pushed, peak, total, backlog)
	}
	if got, want := mc.queue.Cap(), nextPow2(peak); got != want {
		t.Errorf("queue capacity %d after %d items, want %d (peak backlog %d)", got, total, want, peak)
	}
}

// TestTakeDownAfterWrapKeepsFIFO interrupts the running item once the
// queue's ring has wrapped — the interrupted item sits at the end of the
// buffer and later items at its start — by a crash and by a power gate. The
// interrupted item must restart first and every item finish in FIFO order,
// without the queue growing.
func TestTakeDownAfterWrapKeepsFIFO(t *testing.T) {
	for _, tc := range []struct {
		name string
		down func(mc *MCU, s *sim.Scheduler) error
	}{
		{"crash", func(mc *MCU, _ *sim.Scheduler) error { return mc.Crash(10*time.Millisecond, sim.Done{}) }},
		{"power-gate", func(mc *MCU, s *sim.Scheduler) error {
			if err := mc.PowerGate(); err != nil {
				return err
			}
			_, err := after(s, 5*time.Millisecond, func() {
				if err := mc.PowerRestore(sim.Done{}); err != nil {
					t.Errorf("PowerRestore: %v", err)
				}
			})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc, s, _ := newMCU(t)
			var order []int
			var restartedAt, downAt sim.Time
			push := func(i int) {
				err := exec(mc, time.Millisecond, energy.AppCompute, func() {
					order = append(order, i)
					if i == 2 {
						restartedAt = s.Now() - sim.Time(time.Millisecond)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				push(i)
			}
			// Items 0 and 1 are done and item 2 runs from the ring's third
			// slot, so items 4 and 5 wrap into the first two.
			mustAfter(t, s, 2500*time.Microsecond, func() {
				push(4)
				push(5)
				if got := mc.queue.Cap(); got != 4 {
					t.Errorf("queue capacity %d before the take-down, want 4 (wrapped, not grown)", got)
				}
			})
			mustAfter(t, s, 2700*time.Microsecond, func() {
				downAt = s.Now()
				if err := tc.down(mc, s); err != nil {
					t.Fatal(err)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(order, want) {
				t.Errorf("completion order %v, want %v", order, want)
			}
			if restartedAt <= downAt {
				t.Errorf("item 2 restarted at %v, not after the take-down at %v", restartedAt, downAt)
			}
			if got := mc.queue.Cap(); got != 4 {
				t.Errorf("queue capacity %d after the take-down, want 4", got)
			}
		})
	}
}

// TestBusyByRoutineKeepsZeroTimeRoutines pins that a routine whose items all
// took zero time still has an entry: the golden MCUBusy JSON depends on it.
// aliveLog records which alive notifications arrive, and when; onAlive, if
// set, runs after each one is recorded.
type aliveLog struct {
	s       *sim.Scheduler
	ops     []int
	ats     []sim.Time
	onAlive func(op int)
}

func (l *aliveLog) OnEvent(a sim.Arg) {
	l.ops = append(l.ops, a.Op)
	l.ats = append(l.ats, l.s.Now())
	if l.onAlive != nil {
		l.onAlive(a.Op)
	}
}

// TestAliveNotificationsSurviveCutRestores cuts a crash's reboot with a
// power gate, then cuts the restore's reboot with a second gate. Every
// notification is held until the one reboot that completes, where the
// crash's, the first restore's and the second restore's arrive once each,
// in that order.
func TestAliveNotificationsSurviveCutRestores(t *testing.T) {
	mc, s, _ := newMCU(t)
	log := &aliveLog{s: s}
	notify := func(op int) sim.Done { return sim.Done{CB: log, Arg: sim.Arg{Op: op}} }
	step := func(at time.Duration, fn func() error) {
		mustAfter(t, s, at, func() {
			if err := fn(); err != nil {
				t.Error(err)
			}
		})
	}
	step(0, func() error { return mc.Crash(100*time.Millisecond, notify(1)) })
	step(10*time.Millisecond, mc.PowerGate)
	step(20*time.Millisecond, func() error { return mc.PowerRestore(notify(2)) })
	step(50*time.Millisecond, mc.PowerGate)
	step(60*time.Millisecond, func() error { return mc.PowerRestore(notify(3)) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3}; !slices.Equal(log.ops, want) {
		t.Fatalf("notifications %v, want %v", log.ops, want)
	}
	end := sim.Time(60*time.Millisecond + mc.Params().RebootTime)
	for i, at := range log.ats {
		if at != end {
			t.Errorf("notification %d at %v, want %v (the completed reboot)", log.ops[i], at, end)
		}
	}
	if !mc.Alive() || mc.Crashes() != 1 {
		t.Errorf("alive=%v crashes=%d, want true/1", mc.Alive(), mc.Crashes())
	}
}

// TestAliveNotificationQueuedDuringDeliveryWaits crashes the board again
// from inside an alive notification: the new crash's notification waits for
// its own reboot instead of arriving with the list being delivered.
func TestAliveNotificationQueuedDuringDeliveryWaits(t *testing.T) {
	mc, s, _ := newMCU(t)
	log := &aliveLog{s: s}
	notify := func(op int) sim.Done { return sim.Done{CB: log, Arg: sim.Arg{Op: op}} }
	log.onAlive = func(op int) {
		if op == 1 {
			if err := mc.Crash(30*time.Millisecond, notify(3)); err != nil {
				t.Error(err)
			}
		}
	}
	mustAfter(t, s, 0, func() {
		if err := mc.Crash(10*time.Millisecond, notify(1)); err != nil {
			t.Error(err)
		}
		if err := mc.PowerGate(); err != nil {
			t.Error(err)
		}
		if err := mc.PowerRestore(notify(2)); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	first := sim.Time(mc.Params().RebootTime)
	wantAts := []sim.Time{first, first, first + sim.Time(30*time.Millisecond)}
	if want := []int{1, 2, 3}; !slices.Equal(log.ops, want) || !slices.Equal(log.ats, wantAts) {
		t.Errorf("notifications %v at %v, want %v at %v", log.ops, log.ats, want, wantAts)
	}
	if mc.Crashes() != 2 {
		t.Errorf("crashes = %d, want 2", mc.Crashes())
	}
}

func TestBusyByRoutineKeepsZeroTimeRoutines(t *testing.T) {
	mc, s, _ := newMCU(t)
	if err := exec(mc, 0, energy.Interrupt, nil); err != nil {
		t.Fatal(err)
	}
	if err := exec(mc, 2*time.Millisecond, energy.DataTransfer, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	b := mc.BusyByRoutine()
	if d, ok := b[energy.Interrupt]; !ok || d != 0 || b[energy.DataTransfer] != 2*time.Millisecond || len(b) != 2 {
		t.Errorf("BusyByRoutine = %v, want Interrupt:0s and DataTransfer:2ms only", b)
	}
}

// thunk adapts a plain func to sim.Callback, so tests can hand closures to
// the typed scheduling API. It is a pointer: the scheduler interns a
// completion's callback by ==, and func values do not compare.
type thunk struct{ fn func() }

func (t *thunk) OnEvent(sim.Arg) { t.fn() }

// call binds fn as a completion; nil is the zero Done.
func call(fn func()) sim.Done {
	if fn == nil {
		return sim.Done{}
	}
	return sim.Done{CB: &thunk{fn}}
}

// exec queues work whose completion runs fn (nil for none).
func exec(mc *MCU, d time.Duration, r energy.Routine, fn func()) error {
	return mc.ExecCall(d, r, call(fn))
}

// after schedules fn d from now.
func after(s *sim.Scheduler, d time.Duration, fn func()) (sim.EventID, error) {
	return s.AfterCall(d, &thunk{fn}, sim.Arg{})
}

func mustAfter(t *testing.T, s *sim.Scheduler, d time.Duration, fn func()) {
	t.Helper()
	if _, err := after(s, d, fn); err != nil {
		t.Fatal(err)
	}
}

// mcuReading is every exported reading of a board after a run.
type mcuReading struct {
	Busy                        map[energy.Routine]time.Duration
	Crashes, RAMUsed, HighWater int
	Alive, Gated, Pending       bool
	Notified                    []int
	NotifiedAt                  []sim.Time
	Energy                      energy.Breakdown
}

// probeMCU runs one fixed workload on mc — queued work, an allocation, a
// crash, and a power gate with its restore — and returns the readings; log
// collects the alive notifications.
func probeMCU(t *testing.T, mc *MCU, s *sim.Scheduler, log *aliveLog) mcuReading {
	t.Helper()
	for i := 0; i < 3; i++ {
		if err := exec(mc, 5*time.Millisecond, energy.DataCollection, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := mc.Alloc(4096); err != nil {
		t.Fatal(err)
	}
	notify := func(op int) sim.Done { return sim.Done{CB: log, Arg: sim.Arg{Op: op}} }
	mustAfter(t, s, 7*time.Millisecond, func() {
		if err := mc.Crash(0, notify(1)); err != nil {
			t.Error(err)
		}
	})
	mustAfter(t, s, 300*time.Millisecond, func() {
		if err := mc.PowerGate(); err != nil {
			t.Error(err)
		}
	})
	mustAfter(t, s, 400*time.Millisecond, func() {
		if err := mc.PowerRestore(notify(2)); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return mcuReading{mc.BusyByRoutine(), mc.Crashes(), mc.RAMUsed(), mc.RAMHighWater(),
		mc.Alive(), mc.Gated(), mc.Busy(), log.ops, log.ats, mc.Track().Breakdown()}
}

// TestResetMidRunMatchesFresh resets a board caught mid-run — work queued, a
// crash's reboot absorbed into a power gate with its alive notification held
// — and checks that it then reads exactly like a freshly built one.
func TestResetMidRunMatchesFresh(t *testing.T) {
	mc, s, m := newMCU(t)
	log := &aliveLog{s: s}
	for i := 0; i < 4; i++ {
		if err := exec(mc, 10*time.Millisecond, energy.AppCompute, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := mc.Alloc(20000); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(sim.Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := mc.Crash(time.Second, sim.Done{CB: log, Arg: sim.Arg{Op: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := mc.PowerGate(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	m.Reset()
	if err := mc.Reset(DefaultParams()); err != nil {
		t.Fatal(err)
	}
	got := probeMCU(t, mc, s, log)
	fresh, fs, _ := newMCU(t)
	if want := probeMCU(t, fresh, fs, &aliveLog{s: fs}); !reflect.DeepEqual(got, want) {
		t.Errorf("reset board reads %+v\nfresh board reads %+v", got, want)
	}
}

// TestWorkItemSize pins the work item every ExecCall copies into the queue
// ring (DESIGN.md §7): a field that makes it larger makes every device call
// dearer.
func TestWorkItemSize(t *testing.T) {
	if got, max := reflect.TypeOf(workItem{}).Size(), uintptr(40); got > max {
		t.Errorf("mcu workItem is %d bytes, want at most %d: see DESIGN.md §7 before growing a hot record", got, max)
	}
}

// TestWorkItemHoldsNoPointer keeps the queue ring and the held alive
// notifications out of the collector's sight: a queued completion is a
// scheduler handle and an Arg, not a callback (DESIGN.md §7).
func TestWorkItemHoldsNoPointer(t *testing.T) {
	for _, v := range []any{workItem{}, notice{}} {
		if typ := reflect.TypeOf(v); simtest.MayHoldPointer(typ) {
			t.Errorf("%v can hold a pointer: see DESIGN.md §7", typ)
		}
	}
}
