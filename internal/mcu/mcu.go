// Package mcu models the auxiliary micro-controller board — the ESP8266 of
// the paper's testbed.
//
// The MCU is a single in-order core with a small RAM. It executes work items
// FIFO at ActiveW and idles at IdleW. Offloaded app computations run slower
// than on the CPU by the base slowdown factor (the paper measures ~19×),
// multiplied by a per-workload floating-point penalty: the ESP8266's L106
// core has no FPU, so FP-heavy code (A3's string-to-double formatting, A8's
// ECG feature extraction) degrades far more — this is what produces the
// Figure 13 slowdowns.
//
// RAM is explicitly accounted: batch buffers and offloaded app footprints
// must fit in the usable RAM or the allocation fails, which is exactly the
// capacity gate that makes heavy-weight apps non-offloadable.
package mcu

import (
	"errors"
	"fmt"
	"time"

	"iothub/internal/energy"
	"iothub/internal/obs"
	"iothub/internal/sim"
)

// Params are the MCU's calibration constants (DESIGN.md §4).
type Params struct {
	RAMBytes      int           // total user-data RAM (ESP8266: 80 KB)
	ReservedBytes int           // RTOS + driver working set
	ActiveW       float64       // executing or polling
	IdleW         float64       // idle
	BaseSlowdown  float64       // execution-time multiplier vs the CPU
	PerReadCPU    time.Duration // availability check + driver formatting per read
	IrqRaise      time.Duration // raising one interrupt toward the CPU
	RebootTime    time.Duration // crash-to-alive span (boot ROM + RTOS init)
	RebootW       float64       // draw while rebooting
}

// DefaultParams returns the ESP8266 calibration.
func DefaultParams() Params {
	return Params{
		RAMBytes:      80 * 1024,
		ReservedBytes: 16 * 1024,
		ActiveW:       1.0,
		IdleW:         0.08,
		BaseSlowdown:  19,
		PerReadCPU:    100 * time.Microsecond,
		IrqRaise:      10 * time.Microsecond,
		RebootTime:    150 * time.Millisecond,
		RebootW:       0.9,
	}
}

// UsableRAM is the RAM available to batch buffers and offloaded apps.
func (p Params) UsableRAM() int { return p.RAMBytes - p.ReservedBytes }

// Errors callers match on.
var (
	// ErrNoRAM is returned when an allocation exceeds the usable RAM.
	ErrNoRAM = errors.New("mcu: out of RAM")
	// ErrBusy is returned by Idle when work is executing or queued.
	ErrBusy = errors.New("mcu: busy")
)

// workItem is one queued or running piece of work. It records no start
// instant: once an item starts it runs for d uninterrupted (a crash cancels
// its end and restarts it from scratch), so its routine span starts d before
// it ends.
type workItem struct {
	d    time.Duration
	r    energy.Routine
	done sim.Done
}

// The MCU's typed events: the running item finished (the L106 is a single
// core, so the item is always the queue's front — no slot needed), and a
// reboot completed. Keeping the reboot end as a typed, cancellable event is
// what lets the supply layer absorb it into a power gate.
const (
	opEnd = iota + 1
	opReboot
)

// MCU is one micro-controller board instance.
type MCU struct {
	sched *sim.Scheduler
	meter *energy.Meter
	name  string
	track *energy.Track

	params Params
	// queue holds the work items in FIFO order. The running item stays at
	// the front until it finishes, so a crash that interrupts it leaves it
	// first in line without moving anything.
	queue   sim.Ring[workItem]
	running bool
	ramUsed int
	busy    energy.RoutineTimes

	// Crash/reboot state: while rebooting no work starts, RAM contents are
	// gone, and new ExecCall items queue until the board comes back. A power
	// gate (brownout) is a reboot with no scheduled end: gated marks it,
	// and PowerRestore starts the actual reboot timer.
	rebooting bool
	gated     bool
	crashes   int
	endEv     sim.EventID
	rebootEv  sim.EventID
	downAt    sim.Time // reboot/gate start, for the recovery spans
	// pendAlive holds the alive notifications, in call order, for the next
	// completed reboot; a restore cut short by a new gate keeps its own.
	pendAlive []sim.Done

	obs       *obs.Recorder
	highWater int // peak RAM allocation, for the buffer high-water counter
}

// Validate checks the calibration.
func (p Params) Validate() error {
	if p.UsableRAM() <= 0 {
		return fmt.Errorf("mcu: usable RAM %d bytes, want > 0", p.UsableRAM())
	}
	if p.BaseSlowdown <= 0 {
		return fmt.Errorf("mcu: BaseSlowdown = %v, want > 0", p.BaseSlowdown)
	}
	if p.RebootTime < 0 || p.RebootW < 0 {
		return fmt.Errorf("mcu: negative reboot calibration (%v, %v W)", p.RebootTime, p.RebootW)
	}
	if p.ActiveW < 0 || p.IdleW < 0 {
		return fmt.Errorf("mcu: negative power draw (active %v, idle %v W)", p.ActiveW, p.IdleW)
	}
	return nil
}

// New returns an idle MCU metered on the named track.
func New(sched *sim.Scheduler, meter *energy.Meter, name string, params Params) (*MCU, error) {
	m := &MCU{sched: sched, meter: meter, name: name}
	if err := m.Reset(params); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset readies the board for a new run: idle, up, with no RAM allocated,
// keeping only its identity and its queue and notification-list capacity.
// The scheduler and meter must have been reset first; the track is
// re-requested so it registers at this call's position in the meter's
// component order.
func (m *MCU) Reset(params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	m.queue.Reset()
	clear(m.pendAlive)
	*m = MCU{
		sched:     m.sched,
		meter:     m.meter,
		name:      m.name,
		track:     m.meter.Track(m.name),
		params:    params,
		queue:     m.queue,
		pendAlive: m.pendAlive[:0],
	}
	m.track.Set(params.IdleW, energy.Idle)
	return nil
}

// Observe attaches an observability recorder: work and reboot spans are
// emitted on the "mcu" track. A nil recorder costs one branch per call.
func (m *MCU) Observe(r *obs.Recorder) { m.obs = r }

// RAMHighWater reports the peak concurrent RAM allocation over the run —
// the MCU buffer high-water mark. Crashes zero live allocations but not the
// mark: it records the worst case that occurred.
func (m *MCU) RAMHighWater() int { return m.highWater }

// Params returns the MCU's calibration constants.
func (m *MCU) Params() Params { return m.params }

// Busy reports whether work is executing or queued.
func (m *MCU) Busy() bool { return m.queue.Len() > 0 }

// RAMUsed reports currently allocated bytes.
func (m *MCU) RAMUsed() int { return m.ramUsed }

// RAMFree reports remaining usable bytes.
func (m *MCU) RAMFree() int { return m.params.UsableRAM() - m.ramUsed }

// Alloc reserves n bytes of MCU RAM, failing with ErrNoRAM if they do not
// fit. Allocations model batch buffers and offloaded app footprints.
func (m *MCU) Alloc(n int) error {
	if n < 0 {
		return fmt.Errorf("mcu: negative allocation %d", n)
	}
	if n > m.RAMFree() {
		return fmt.Errorf("%w: need %d bytes, %d free", ErrNoRAM, n, m.RAMFree())
	}
	m.ramUsed += n
	if m.ramUsed > m.highWater {
		m.highWater = m.ramUsed
	}
	return nil
}

// Free releases n bytes previously reserved with Alloc.
func (m *MCU) Free(n int) error {
	if n < 0 || n > m.ramUsed {
		return fmt.Errorf("mcu: free %d bytes with %d allocated", n, m.ramUsed)
	}
	m.ramUsed -= n
	return nil
}

// OffloadTime converts a CPU-side execution time into MCU execution time:
// base slowdown times the workload's floating-point penalty (>= 1).
func (m *MCU) OffloadTime(cpuTime time.Duration, fpPenalty float64) time.Duration {
	if fpPenalty < 1 {
		fpPenalty = 1
	}
	return time.Duration(float64(cpuTime) * m.params.BaseSlowdown * fpPenalty)
}

// BusyByRoutine returns cumulative execution time per routine.
func (m *MCU) BusyByRoutine() map[energy.Routine]time.Duration { return m.busy.Map() }

// ExecCall queues d of work attributed to routine r; done (the zero Done for
// none) is delivered on completion. Work is serialized FIFO — the L106 is a
// single core.
func (m *MCU) ExecCall(d time.Duration, r energy.Routine, done sim.Done) error {
	if d < 0 {
		return fmt.Errorf("mcu: negative work duration %v", d)
	}
	it := m.queue.Push()
	it.d, it.r, it.done = d, r, done
	return m.maybeStart()
}

func (m *MCU) maybeStart() error {
	if m.running || m.rebooting || m.queue.Len() == 0 {
		return nil
	}
	m.running = true
	it := m.queue.Front()
	m.track.Set(m.params.ActiveW, it.r)
	ev, err := m.sched.AfterCall(it.d, m, sim.Arg{Op: opEnd})
	if err != nil {
		return fmt.Errorf("mcu: schedule work end: %w", err)
	}
	m.endEv = ev
	return nil
}

// OnEvent dispatches the board's typed events — work completion and reboot
// end — without per-event closures. The running item is the queue's front: a
// crash cancels the completion event before the item can restart, so the
// pairing cannot skew.
func (m *MCU) OnEvent(a sim.Arg) {
	switch a.Op {
	case opEnd:
		m.endWork()
	case opReboot:
		m.endReboot()
	}
}

// endWork retires the running item, popping it before its completion runs so
// the completion can queue more work.
func (m *MCU) endWork() {
	it := m.queue.Front()
	m.busy.Add(it.r, it.d)
	if m.obs.Tracing() {
		now := m.sched.Now()
		m.obs.Span("mcu", it.r.String(), now-sim.Time(it.d), now)
	}
	done := it.done
	m.queue.Pop()
	m.running = false
	if m.queue.Len() == 0 {
		m.track.Set(m.params.IdleW, energy.Idle)
	}
	done.Invoke()
	if err := m.maybeStart(); err != nil {
		m.sched.Stop()
	}
}

// Crash reboots the MCU: the interrupted work item is requeued at the head
// (it restarts from scratch after the reboot — partial progress and its
// partial energy are genuinely spent), queued items survive (drivers re-issue
// from flash), and every RAM allocation is lost. The board draws RebootW for
// d (or the calibrated RebootTime when d <= 0), then onAlive (the zero Done
// for none) is delivered and queued work resumes. A crash during an ongoing
// reboot is absorbed by it and not counted. No in-flight work item ever
// dangles: its completion callback still fires, after the restart.
func (m *MCU) Crash(d time.Duration, onAlive sim.Done) error {
	if m.rebooting {
		return nil
	}
	if d <= 0 {
		d = m.params.RebootTime
	}
	m.crashes++
	m.takeDown()
	m.rebooting = true
	m.pendAlive = append(m.pendAlive, onAlive)
	m.track.Set(m.params.RebootW, energy.Idle)
	m.downAt = m.sched.Now()
	ev, err := m.sched.AfterCall(d, m, sim.Arg{Op: opReboot})
	if err != nil {
		return fmt.Errorf("mcu: schedule reboot end: %w", err)
	}
	m.rebootEv = ev
	return nil
}

// takeDown interrupts the running item (it stays first in the queue and
// restarts from scratch, partial progress genuinely spent) and wipes the RAM
// — the shared first half of Crash and PowerGate.
func (m *MCU) takeDown() {
	if m.running {
		m.sched.Cancel(m.endEv)
		m.running = false
	}
	m.ramUsed = 0
}

// endReboot brings the board back: each pending alive notification is
// delivered once, in order, then queued work resumes. A notification queued
// during delivery waits for the next reboot.
func (m *MCU) endReboot() {
	m.rebooting = false
	m.obs.Span("mcu", "reboot", m.downAt, m.sched.Now())
	if m.queue.Len() == 0 {
		m.track.Set(m.params.IdleW, energy.Idle)
	}
	n := len(m.pendAlive)
	for _, d := range m.pendAlive[:n] {
		d.Invoke()
	}
	m.pendAlive = m.pendAlive[:copy(m.pendAlive, m.pendAlive[n:])]
	if err := m.maybeStart(); err != nil {
		m.sched.Stop()
	}
}

// PowerGate forces the board down with no scheduled recovery — the supply
// layer's brownout, where only recharge decides when there is energy to boot
// with. Like Crash it requeues the interrupted item and wipes RAM, but the
// board then draws nothing (it is unpowered, not rebooting), and a pending
// reboot end — the gate arriving mid-reboot — is cancelled and absorbed: its
// alive notifications are held and delivered after PowerRestore's reboot
// instead, so a crash overlapped by a brownout still reboots exactly once.
// Gating a gated board is a no-op. PowerGate does not count into Crashes: brownouts are
// accounted by the supply layer, and the watchdog's once-per-crash ladder
// must not fire for a board that is down for lack of joules.
func (m *MCU) PowerGate() error {
	if m.gated {
		return nil
	}
	if m.rebooting {
		m.sched.Cancel(m.rebootEv)
	} else {
		m.takeDown()
		m.rebooting = true
	}
	m.gated = true
	m.track.Set(0, energy.Idle)
	m.downAt = m.sched.Now()
	return nil
}

// PowerRestore ends a power gate: the board reboots (RebootTime at RebootW),
// then the alive notifications held from interrupted reboots are delivered,
// then onAlive (the zero Done for none), then queued work resumes. A no-op
// when the board is not gated.
func (m *MCU) PowerRestore(onAlive sim.Done) error {
	if !m.gated {
		return nil
	}
	m.gated = false
	m.obs.Span("mcu", "browned-out", m.downAt, m.sched.Now())
	m.pendAlive = append(m.pendAlive, onAlive)
	m.track.Set(m.params.RebootW, energy.Idle)
	m.downAt = m.sched.Now()
	ev, err := m.sched.AfterCall(m.params.RebootTime, m, sim.Arg{Op: opReboot})
	if err != nil {
		return fmt.Errorf("mcu: schedule reboot end: %w", err)
	}
	m.rebootEv = ev
	return nil
}

// Gated reports whether the board is held down by a power gate.
func (m *MCU) Gated() bool { return m.gated }

// Alive reports whether the board is up (false while rebooting) — the
// hub-side watchdog's probe.
func (m *MCU) Alive() bool { return !m.rebooting }

// Crashes counts completed Crash calls.
func (m *MCU) Crashes() int { return m.crashes }

// Idle re-attributes the MCU's idle draw to routine r (e.g. keeping batch
// RAM retained counts toward DataTransfer while waiting to flush).
func (m *MCU) Idle(r energy.Routine) error {
	if m.Busy() || m.rebooting {
		return ErrBusy
	}
	m.track.Set(m.params.IdleW, r)
	return nil
}

// Track exposes the MCU's energy track (for trace capture).
func (m *MCU) Track() *energy.Track { return m.track }
