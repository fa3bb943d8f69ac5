package hub

// The in-situ meter runtime: the hub-side execution of obs.MeterModel
// (DESIGN.md §13). The instrument lives on the MCU board — the realistic
// placement for a shunt + ADC rig on a low-end hub — so its work runs as real
// scheduled DES events that FIFO-contend with app work on the MCU core. The
// observer effect has two parts: a workload-independent footprint (the timed
// samples, paid alike by every scheme) and a workload-shaped tax (the
// event-attribution hook, fired per raised interrupt, so per-sample schemes
// pay it per reading while batched schemes pay it per flush). The model is
// entirely scheme-agnostic — nothing here inspects a policy; every scheme
// runs unmodified under observation, and the scheme-dependence emerges from
// how often each scheme crosses the interrupt line the instrument snoops.
//
// Cost attribution: MCU execution lands on the "mcu" track under
// DataCollection (in-situ measurement masquerades as collection overhead —
// exactly the confound the measurement-overhead papers warn about), and the
// analog front end's conversion energy is deposited on a dedicated "meter"
// track, so the instrument's own draw is separable in PerComponent.
//
// A disarmed model (rate 0, or all costs zero — the External preset) arms
// nothing: no events, no track, no counters. Rate→0 therefore recovers the
// unobserved run byte for byte, which the asymptote tests pin against the
// committed golden corpus.

import (
	"time"

	"iothub/internal/energy"
	"iothub/internal/obs"
	"iothub/internal/sim"
)

// meterState is the in-situ meter's runtime; its zero value is disarmed.
type meterState struct {
	model   *obs.MeterModel // the armed Config.Meter; nil when disarmed
	period  time.Duration
	sampleT time.Duration // MCU busy time per timed sample
	flushT  time.Duration // MCU busy time per flush
	hookT   time.Duration // MCU busy time per event-attribution hook
	track   *energy.Track
	idx     int64 // tick index since arm or reboot (duty-cycle phase)
	pend    int   // samples buffered since the last flush
	allocd  int   // MCU RAM the meter currently holds
	gen     int64 // bumped on crash: outstanding flush completions go stale
}

// armMeter schedules the instrument's first sampling tick. Called after
// armFaults (it needs the run horizon) and before the sensor reads are
// scheduled, so the meter's tick stream occupies a fixed position in the
// event order, fresh arena or reused.
func (r *runner) armMeter() error {
	m := r.cfg.Meter
	if m == nil || !m.Armed() {
		return nil
	}
	r.insitu.model = m
	r.insitu.period = m.Period()
	r.insitu.sampleT = m.PerSampleTime()
	r.insitu.flushT = m.FlushTime()
	r.insitu.hookT = m.HookTime()
	// The track registers here — after the device stack, before the streams'
	// lazy revivals complete a run — at the same pipeline point every run, so
	// a reused arena revives it in the identical component order.
	r.insitu.track = r.meter.Track("meter")
	// The first reading lands one conversion interval after boot.
	_, err := r.sched.AtCall(sim.Time(r.insitu.period), r, sim.Arg{Op: opMeterTick})
	return err
}

// meterTick is one timed sampling instant: reschedule the next tick, then
// take (or duty-skip, or drop) the reading. One tick event is in flight at
// any time and it comes from the scheduler's event arena, so steady-state
// sampling allocates nothing.
func (r *runner) meterTick() {
	if next := r.sched.Now().Add(r.insitu.period); next <= sim.Time(r.horizon) {
		if _, err := r.sched.AtCall(next, r, sim.Arg{Op: opMeterTick}); err != nil {
			r.fail(err)
			return
		}
	}
	r.meterSample(r.insitu.sampleT, r.insitu.model.PerSampleCycles)
}

// meterOnInterrupt is the event-attribution hook (events.go calls it at the
// single point every scheme's MCU→CPU interrupt passes through): the
// instrument snoops the interrupt line and logs one record per raise. This
// is the workload-shaped half of the probe effect — the hook's cost scales
// with the observed scheme's event rate, so per-sample execution pays it
// per reading while batched execution pays it per flush.
func (r *runner) meterOnInterrupt() {
	if m := r.insitu.model; m != nil && m.HookCycles > 0 {
		r.meterSample(r.insitu.hookT, m.HookCycles)
	}
}

// meterSample takes one reading — timed or event-triggered — at the given
// driver cost: duty-gate it, drop it if the board is rebooting or the buffer
// RAM is exhausted, otherwise record it, deposit the conversion energy, run
// the driver work on the MCU core, and flush when the buffer fills.
func (r *runner) meterSample(execT time.Duration, cycles int64) {
	m := r.insitu.model
	idx := r.insitu.idx
	r.insitu.idx++
	if cl := int64(m.DutyOn + m.DutyOff); cl > 0 && idx%cl >= int64(m.DutyOn) {
		return // duty-cycle off phase: the instrument is powered down
	}
	if !r.mcu.Alive() {
		// The board is mid-reboot: the conversion has no core to service it.
		r.res.MeterDroppedSamples++
		return
	}
	if m.PerSampleRAM > 0 {
		if err := r.mcu.Alloc(m.PerSampleRAM); err != nil {
			// Buffer full against app batches: shed the reading rather than
			// evict workload data.
			r.res.MeterDroppedSamples++
			return
		}
		r.insitu.allocd += m.PerSampleRAM
	}
	r.res.MeterSamples++
	if m.SenseJ > 0 {
		r.insitu.track.Deposit(m.SenseJ, energy.DataCollection)
	}
	if cycles > 0 {
		r.res.MeterCycles += cycles
		if err := r.mcu.ExecCall(execT, energy.DataCollection, sim.Done{}); err != nil {
			r.fail(err)
			return
		}
	}
	if r.obs.Tracing() {
		now := r.sched.Now()
		r.obs.Span("meter", "sample", now, now.Add(execT))
	}
	if m.FlushEvery > 0 {
		r.insitu.pend++
		if r.insitu.pend >= m.FlushEvery {
			r.meterFlush()
		}
	}
}

// meterFlush dispatches the buffered records to local storage as one MCU
// work item. The completion carries the sample count and the current crash
// generation: a reboot between dispatch and completion wipes the buffer, and
// the stale completion must not count (or free) what no longer exists.
func (r *runner) meterFlush() {
	n := r.insitu.pend
	r.insitu.pend = 0
	start := r.sched.Now()
	if r.insitu.flushT > 0 {
		m := r.insitu.model
		r.res.MeterCycles += m.FlushCycles
		err := r.mcu.ExecCall(r.insitu.flushT, energy.DataCollection,
			sim.Done{CB: r, Arg: sim.Arg{Op: opMeterFlushed, I0: int64(n), I1: r.insitu.gen}})
		if err != nil {
			r.fail(err)
			return
		}
	} else {
		r.meterFlushed(n, r.insitu.gen)
	}
	if r.obs.Tracing() {
		r.obs.Span("meter", "flush", start, start.Add(r.insitu.flushT))
	}
}

// meterFlushed finishes one flush: account the persisted bytes and release
// the buffer's RAM. A generation mismatch means an MCU crash wiped the
// buffer while the flush was queued or running — its samples were already
// counted as a dropped burst and its RAM evaporated with the reboot, so the
// stale completion is a no-op.
func (r *runner) meterFlushed(n int, gen int64) {
	if gen != r.insitu.gen {
		return
	}
	m := r.insitu.model
	r.res.MeterFlushes++
	r.res.MeterBytes += n * m.FlushBytes
	if free := n * m.PerSampleRAM; free > 0 {
		if free > r.insitu.allocd {
			free = r.insitu.allocd
		}
		r.insitu.allocd -= free
		if free > 0 {
			if err := r.mcu.Free(free); err != nil {
				r.fail(err)
			}
		}
	}
}

// meterOnCrash is the chaos hook (chaos.go): an MCU reboot wipes the sample
// buffer — everything pending since the last flush is lost in one dropped
// burst — the buffer's RAM evaporates with the crash (it must NOT be freed
// against the wiped accounting), the duty cycle restarts in phase with the
// rebooted firmware, and outstanding flush completions go stale.
func (r *runner) meterOnCrash() {
	if r.insitu.model == nil {
		return
	}
	r.res.MeterDroppedSamples += r.insitu.pend
	r.insitu.pend = 0
	r.insitu.allocd = 0
	r.insitu.idx = 0
	r.insitu.gen++
}
