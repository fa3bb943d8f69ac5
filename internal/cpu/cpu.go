// Package cpu models the IoT hub's main-board processor — the Raspberry Pi
// 3B of the paper's testbed — as a power-state machine with a work queue.
//
// The model has four resident states plus a wake transition:
//
//   - Active: executing a routine (5 W).
//   - WFI: clock-gated busy-wait between closely spaced events (1.2 W). The
//     paper's baseline CPU "is in the active mode all the time" because
//     per-sample gaps are below the sleep break-even; WFI is that stalling
//     state, and its energy is charged to the routine the CPU stalls for.
//   - Sleep: suspend (0.5 W), worth entering only when the expected idle gap
//     exceeds the break-even derived from the wake cost (§III-A's 1.14 ms
//     analysis, recomputed from this model's constants).
//   - DeepSleep: power-gated (0.15 W), only entered when the scheme declares
//     the CPU fully freed (COM), with a longer wake latency.
//
// Work items are serialized FIFO; waking charges the transition power to the
// routine that caused the wake, exactly like the paper's 4 mJ wake overhead.
package cpu

import (
	"errors"
	"fmt"
	"time"

	"iothub/internal/energy"
	"iothub/internal/obs"
	"iothub/internal/sim"
)

// State is the processor's power state.
type State int

// Processor power states.
const (
	Active State = iota + 1
	WFI
	Sleep
	DeepSleep
	Waking
)

// String names the state.
func (s State) String() string {
	switch s {
	case Active:
		return "Active"
	case WFI:
		return "WFI"
	case Sleep:
		return "Sleep"
	case DeepSleep:
		return "DeepSleep"
	case Waking:
		return "Waking"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Params are the processor's calibration constants (DESIGN.md §4).
type Params struct {
	MIPS          float64       // per-core instruction throughput, million instr/s
	Cores         int           // concurrent work items (Pi 3B: 4)
	ActiveW       float64       // chip draw while any core executes
	WFIW          float64       // stalling between events
	SleepW        float64       // suspended
	DeepSleepW    float64       // power-gated
	TransitionW   float64       // average draw while waking
	WakeFromSleep time.Duration // sleep → active latency
	WakeFromDeep  time.Duration // deep sleep → active latency
	DeepGapMin    time.Duration // minimum gap before deep sleep is considered
}

// DefaultParams returns the Raspberry Pi 3B calibration.
func DefaultParams() Params {
	return Params{
		MIPS:          24_000,
		Cores:         4,
		ActiveW:       5.0,
		WFIW:          1.5,
		SleepW:        0.35,
		DeepSleepW:    0.18,
		TransitionW:   2.5,
		WakeFromSleep: 1600 * time.Microsecond,
		WakeFromDeep:  5 * time.Millisecond,
		DeepGapMin:    50 * time.Millisecond,
	}
}

// SleepBreakEven is the idle gap above which suspending beats stalling:
// the wake overhead divided by the power saved relative to WFI.
func (p Params) SleepBreakEven() time.Duration {
	saved := p.WFIW - p.SleepW
	if saved <= 0 {
		return time.Duration(1<<62 - 1)
	}
	overhead := p.TransitionW * p.WakeFromSleep.Seconds()
	return time.Duration(overhead / saved * float64(time.Second))
}

// workItem is one queued or running piece of work: 40 bytes with no
// pointer, so the slot pool is neither scanned by the collector nor
// write-barriered. Its completion is the scheduler handle of the Done's
// callback plus the Done's Arg. It records no start instant: an item that
// starts runs for d without interruption, so its routine span starts d
// before it ends.
type workItem struct {
	d    time.Duration
	arg  sim.Arg
	done sim.Handle
	r    uint8 // energy.Routine, checked by ExecCall
}

// Ops for the CPU's own scheduled events (see OnEvent).
const (
	opWake = iota + 1 // wake transition completed
	opEnd             // work item finished; I0 is its slot in items
)

// CPU is one main-board processor instance with two execution lanes that
// mirror how a Linux hub actually schedules this work:
//
//   - The IO lane (capacity 1) runs interrupt handling and data transfers —
//     the kernel's IRQ + UART driver path is serialized, so concurrent apps'
//     per-sample transfers queue behind each other.
//   - The compute lane (capacity Cores-1, at least 1) runs app-specific
//     computations, which parallelize across the remaining cores.
//
// The chip draws ActiveW whenever any lane is busy (one power rail). When
// lanes overlap, the draw is attributed to AppCompute — the compute item is
// the long-running occupant; IO slices are interleaved noise within it.
type CPU struct {
	sched  *sim.Scheduler
	meter  *energy.Meter
	name   string
	track  *energy.Track
	params Params
	state  State

	// Work items live in a slot pool from ExecCall until they finish, so they
	// start and finish in place and the completion event carries only a slot
	// index. The lanes queue slot indices; the compute lane runs items
	// concurrently, so they can finish out of order.
	items        []workItem
	itemsFree    []int32
	queueIO      sim.Ring[int32]
	queueCompute sim.Ring[int32]
	ioBusy       bool
	ioRoutine    energy.Routine
	computeBusy  int

	busy  energy.RoutineTimes
	wakes int

	obs *obs.Recorder
	// Residency accounting: virtual time spent in each power state, settled
	// on every transition. Always on — one subtraction per state change.
	resid     [Waking + 1]time.Duration
	lastTrans sim.Time
}

// isIO reports whether a routine executes on the serialized IO lane.
func isIO(r energy.Routine) bool {
	return r == energy.Interrupt || r == energy.DataTransfer
}

// Validate checks the calibration.
func (p Params) Validate() error {
	if p.MIPS <= 0 {
		return fmt.Errorf("cpu: MIPS = %v, want > 0", p.MIPS)
	}
	if p.Cores < 1 {
		return fmt.Errorf("cpu: Cores = %d, want >= 1", p.Cores)
	}
	if p.ActiveW < 0 || p.WFIW < 0 || p.SleepW < 0 || p.DeepSleepW < 0 || p.TransitionW < 0 {
		return fmt.Errorf("cpu: negative power draw (active %v, WFI %v, sleep %v, deep sleep %v, transition %v W)",
			p.ActiveW, p.WFIW, p.SleepW, p.DeepSleepW, p.TransitionW)
	}
	return nil
}

// New returns an idle (WFI) processor metered on the named track.
func New(sched *sim.Scheduler, meter *energy.Meter, name string, params Params) (*CPU, error) {
	c := &CPU{sched: sched, meter: meter, name: name}
	if err := c.Reset(params); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset readies the processor for a new run: idle in WFI, with only its
// identity and its queue and slot capacity kept. The scheduler and meter must
// have been reset first; the track is re-requested so it registers at this
// call's position in the meter's component order.
func (c *CPU) Reset(params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	c.queueIO.Reset()
	c.queueCompute.Reset()
	*c = CPU{
		sched:        c.sched,
		meter:        c.meter,
		name:         c.name,
		track:        c.meter.Track(c.name),
		params:       params,
		state:        WFI,
		items:        c.items[:0],
		itemsFree:    c.itemsFree[:0],
		queueIO:      c.queueIO,
		queueCompute: c.queueCompute,
	}
	c.track.Set(params.WFIW, energy.Idle)
	return nil
}

// Observe attaches an observability recorder: routine spans are emitted at
// work completion. A nil recorder (the default) costs one branch per call.
func (c *CPU) Observe(r *obs.Recorder) { c.obs = r }

// setState moves the power-state machine, settling residency for the state
// being left.
func (c *CPU) setState(s State) {
	now := c.sched.Now()
	c.resid[c.state] += time.Duration(now - c.lastTrans)
	c.lastTrans = now
	c.state = s
}

// Residency reports cumulative virtual time per power state, including the
// still-open occupancy of the current state.
func (c *CPU) Residency() map[State]time.Duration {
	out := make(map[State]time.Duration, len(c.resid))
	for s := Active; s <= Waking; s++ {
		d := c.resid[s]
		if s == c.state {
			d += time.Duration(c.sched.Now() - c.lastTrans)
		}
		if d > 0 {
			out[s] = d
		}
	}
	return out
}

// Params returns the processor's calibration constants.
func (c *CPU) Params() Params { return c.params }

// State reports the current power state.
func (c *CPU) State() State { return c.state }

// Busy reports whether work is executing or queued.
func (c *CPU) Busy() bool {
	return len(c.items) > len(c.itemsFree)
}

// computeCapacity is the number of concurrent compute-lane items.
func (c *CPU) computeCapacity() int {
	if c.params.Cores <= 1 {
		return 1
	}
	return c.params.Cores - 1
}

// Wakes reports how many sleep→active transitions have occurred.
func (c *CPU) Wakes() int { return c.wakes }

// BusyByRoutine returns cumulative execution (not stall) time per routine.
func (c *CPU) BusyByRoutine() map[energy.Routine]time.Duration { return c.busy.Map() }

// ExecCall queues d of work attributed to routine r; done (the zero Done for
// none, else with a comparable callback) is delivered when the work
// completes. Interrupt and DataTransfer work serializes on the IO lane;
// everything else parallelizes on the compute lane. If the processor is
// sleeping, the wake transition is charged to r and delays the work. A
// negative d or a routine outside DataCollection..Idle is an error.
func (c *CPU) ExecCall(d time.Duration, r energy.Routine, done sim.Done) error {
	if d < 0 {
		return fmt.Errorf("cpu: negative work duration %v", d)
	}
	if r < energy.DataCollection || r > energy.Idle {
		return fmt.Errorf("cpu: work attributed to unknown %v", r)
	}
	var slot int32
	if n := len(c.itemsFree); n > 0 {
		slot = c.itemsFree[n-1]
		c.itemsFree = c.itemsFree[:n-1]
	} else {
		slot = int32(len(c.items))
		c.items = append(c.items, workItem{})
	}
	it := &c.items[slot]
	it.d, it.arg, it.done, it.r = d, done.Arg, c.sched.Handle(done.CB), uint8(r)
	if isIO(r) {
		*c.queueIO.Push() = slot
	} else {
		*c.queueCompute.Push() = slot
	}
	return c.maybeStart()
}

func (c *CPU) maybeStart() error {
	if c.queueIO.Len() == 0 && c.queueCompute.Len() == 0 {
		return nil
	}
	switch c.state {
	case Waking:
		// Dispatch resumes when the wake transition completes.
		return nil
	case Sleep, DeepSleep:
		wake := c.params.WakeFromSleep
		if c.state == DeepSleep {
			wake = c.params.WakeFromDeep
		}
		wakeFor := energy.AppCompute
		if c.queueIO.Len() > 0 {
			wakeFor = energy.Routine(c.items[*c.queueIO.Front()].r)
		}
		c.setState(Waking)
		c.wakes++
		c.track.Set(c.params.TransitionW, wakeFor)
		if _, err := c.sched.AfterCall(wake, c, sim.Arg{Op: opWake}); err != nil {
			return fmt.Errorf("cpu: schedule wake: %w", err)
		}
		return nil
	default:
		if !c.ioBusy && c.queueIO.Len() > 0 {
			slot := *c.queueIO.Front()
			c.queueIO.Pop()
			c.ioBusy = true
			c.ioRoutine = energy.Routine(c.items[slot].r)
			if err := c.beginWork(slot); err != nil {
				return err
			}
		}
		for c.computeBusy < c.computeCapacity() && c.queueCompute.Len() > 0 {
			slot := *c.queueCompute.Front()
			c.queueCompute.Pop()
			c.computeBusy++
			if err := c.beginWork(slot); err != nil {
				return err
			}
		}
		return nil
	}
}

// OnEvent dispatches the processor's own scheduled events — wake completion
// and work completion — without a per-event closure. Scheduling in a DES
// only fails on programming errors; failures stop the run.
func (c *CPU) OnEvent(a sim.Arg) {
	switch a.Op {
	case opWake:
		c.setState(WFI)
		if err := c.maybeStart(); err != nil {
			c.sched.Stop()
		}
	case opEnd:
		c.endWork(int32(a.I0))
	}
}

func (c *CPU) beginWork(slot int32) error {
	c.setState(Active)
	c.setActivePower()
	_, err := c.sched.AfterCall(c.items[slot].d, c, sim.Arg{Op: opEnd, I0: int64(slot)})
	if err != nil {
		return fmt.Errorf("cpu: schedule work end: %w", err)
	}
	return nil
}

// setActivePower re-attributes the chip's active draw: compute work wins
// over interleaved IO slices.
func (c *CPU) setActivePower() {
	switch {
	case c.computeBusy > 0:
		c.track.Set(c.params.ActiveW, energy.AppCompute)
	case c.ioBusy:
		c.track.Set(c.params.ActiveW, c.ioRoutine)
	}
}

// endWork retires the item in slot, freeing the slot before its completion
// runs so the completion can queue more work.
func (c *CPU) endWork(slot int32) {
	it := c.items[slot]
	r := energy.Routine(it.r)
	c.busy.Add(r, it.d)
	if c.obs.Tracing() {
		now := c.sched.Now()
		c.obs.Span("cpu", r.String(), now-sim.Time(it.d), now)
	}
	if isIO(r) {
		c.ioBusy = false
	} else {
		c.computeBusy--
	}
	c.itemsFree = append(c.itemsFree, slot)
	if c.ioBusy || c.computeBusy > 0 {
		c.setActivePower()
	} else if c.queueIO.Len() == 0 && c.queueCompute.Len() == 0 {
		// Default to stalling; the scheme's done callback typically refines
		// this with an Idle call carrying the expected gap.
		c.setState(WFI)
		c.track.Set(c.params.WFIW, energy.Idle)
	}
	c.sched.Call(it.done, it.arg)
	if err := c.maybeStart(); err != nil {
		c.sched.Stop()
	}
}

// ErrBusy is returned by Idle when work is executing or queued.
var ErrBusy = errors.New("cpu: busy")

// Idle tells the governor the processor has nothing to do for roughly gap.
// It picks the cheapest state whose wake cost the gap amortizes: WFI below
// the break-even, Sleep above it, DeepSleep when allowDeep and the gap
// clears DeepGapMin. The idle draw is charged to routine r (the paper
// charges baseline stalls to DataTransfer and COM idleness to AppCompute).
func (c *CPU) Idle(gap time.Duration, r energy.Routine, allowDeep bool) error {
	if c.Busy() {
		return ErrBusy
	}
	switch {
	case allowDeep && gap >= c.params.DeepGapMin:
		c.setState(DeepSleep)
		c.track.Set(c.params.DeepSleepW, r)
	case gap > c.params.SleepBreakEven():
		c.setState(Sleep)
		c.track.Set(c.params.SleepW, r)
	default:
		c.setState(WFI)
		c.track.Set(c.params.WFIW, r)
	}
	return nil
}

// ForceState pins the processor into a state regardless of the governor —
// used to model the idle hub (everything suspended) and for tests.
func (c *CPU) ForceState(s State, r energy.Routine) error {
	if c.Busy() {
		return ErrBusy
	}
	var w float64
	switch s {
	case Active:
		w = c.params.ActiveW
	case WFI:
		w = c.params.WFIW
	case Sleep:
		w = c.params.SleepW
	case DeepSleep:
		w = c.params.DeepSleepW
	default:
		return fmt.Errorf("cpu: cannot force state %v", s)
	}
	c.setState(s)
	c.track.Set(w, r)
	return nil
}

// Track exposes the processor's energy track (for trace capture).
func (c *CPU) Track() *energy.Track { return c.track }
