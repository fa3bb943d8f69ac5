package hub

// Fault-injection and resilience runtime: the self-firing fault events, the
// watchdog, the degradation ladder, and the retry/downshift bookkeeping. The
// conductor in runner.go stays scheme- and fault-agnostic; everything here is
// inert (nil/zero) when no FaultSchedule is active, keeping fault-free runs
// byte-identical.

import (
	"fmt"
	"time"

	"iothub/internal/energy"
	"iothub/internal/faults"
	"iothub/internal/link"
	"iothub/internal/obs"
	"iothub/internal/radio"
	"iothub/internal/scheme"
	"iothub/internal/sim"
)

// armFaults compiles the fault schedule and wires the self-firing fault
// events, the watchdog, and the radio-side buffers. With an inactive
// schedule everything stays nil and the run is byte-identical to a
// fault-free one.
func (r *runner) armFaults() error {
	r.horizon = time.Duration(r.cfg.Windows) * r.window
	engine, err := faults.NewEngine(r.cfg.FaultSchedule)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrConfig, err)
	}
	r.engine = engine
	r.pol = r.cfg.Resilience
	if engine == nil && r.pol == nil {
		return nil
	}
	if r.pol == nil {
		r.pol = DefaultResilience()
	}
	r.linkFaulty = engine.HasKind(faults.LinkCorrupt, faults.LinkLoss)

	// Radio outages and bounded buffering.
	radios := []struct {
		target string
		rad    *radio.Radio
	}{{"radio:main", r.mainRadio}, {"radio:mcu", r.mcuRadio}}
	for _, rr := range radios {
		target, rad := rr.target, rr.rad
		evs := engine.TimedEvents(faults.RadioOutage, target, r.horizon)
		if len(evs) > 0 && r.pol.RadioBufferBytes > 0 {
			rad.SetQueueLimit(r.pol.RadioBufferBytes)
		}
		for _, ev := range evs {
			if err := rad.AddOutage(ev.At, ev.At.Add(ev.Rule.Duration)); err != nil {
				return fmt.Errorf("%w: %v", ErrConfig, err)
			}
			r.obs.Inc(obs.FaultActivations)
			if r.obs.Enabled() {
				r.obs.Note("radio-outage", fmt.Sprintf("%s off air %v..%v", target, ev.At, ev.At.Add(ev.Rule.Duration)))
			}
		}
	}

	// MCU crashes fire at schedule instants; the watchdog (when enabled)
	// detects the dead board and walks the degradation ladder.
	crashes := engine.TimedEvents(faults.MCUCrash, "mcu", r.horizon)
	for _, ev := range crashes {
		if _, err := r.sched.AtCall(ev.At, r, sim.Arg{Op: opCrash, I0: int64(ev.Rule.Duration)}); err != nil {
			return err
		}
	}
	if len(crashes) > 0 && r.pol.WatchdogInterval > 0 {
		for at := r.pol.WatchdogInterval; at <= r.horizon; at += r.pol.WatchdogInterval {
			if _, err := r.sched.AtCall(sim.Time(at), r, sim.Arg{Op: opWatchdog}); err != nil {
				return err
			}
		}
	}
	return nil
}

// windowFault lazily creates the per-window fault record; fault-free runs
// keep the map nil.
func (r *runner) windowFault(w int) *WindowFaults {
	if r.res.WindowFaults == nil {
		r.res.WindowFaults = make(map[int]*WindowFaults)
	}
	wf := r.res.WindowFaults[w]
	if wf == nil {
		wf = &WindowFaults{}
		r.res.WindowFaults[w] = wf
	}
	return wf
}

// onMCUCrash injects one MCU reboot: resident batch samples are lost and
// must be re-collected, in-flight offloaded windows re-enter the time-budget
// check, and (watchdog disabled) the degradation ladder steps immediately.
func (r *runner) onMCUCrash(d time.Duration) {
	if !r.mcu.Alive() {
		return // absorbed by an ongoing reboot
	}
	now := r.sched.Now()
	if d <= 0 {
		d = r.params.MCU.RebootTime
	}
	r.windowFault(r.windowAt(now)).Crashes++
	r.obs.Inc(obs.FaultActivations)
	if r.obs.Enabled() {
		r.obs.Note("mcu-crash", fmt.Sprintf("window %d, reboot %v", r.windowAt(now), d))
	}

	// Everything resident in batch RAM is gone: rewind the owning windows'
	// read progress and queue re-reads for after the reboot. The MCU is
	// down until then, so no other crash can touch crashRedo meanwhile.
	n := len(r.crashRedo)
	r.crashRedo = r.wipeBatches(r.crashRedo)
	r.recollect(r.crashRedo[n:], now)
	r.recheckOffloads(now.Add(d))
	// The in-situ meter's sample buffer lives in the same RAM: the crash
	// drops it in one burst and resets the instrument's duty-cycle phase.
	r.meterOnCrash()
	if err := r.mcu.Crash(d, sim.Done{CB: r, Arg: sim.Arg{Op: opRebooted}}); err != nil {
		r.fail(err)
		return
	}
	if r.pol != nil && r.pol.DegradeOnCrash && r.pol.WatchdogInterval <= 0 {
		r.lastDegradedCrash = r.mcu.Crashes()
		r.degradeAll("mcu crash")
	}
}

// resume puts a board that is alive again after a crash or brownout back to
// work: the offload footprint is re-reserved (the binary reloads from flash)
// unless it is already resident, and the wiped samples in redo are re-read.
// It returns redo emptied for reuse. An outage wipes the RAM and nothing
// allocates while the board is down, so only a reboot's first alive
// notification (a held crash's comes before a recharge's) reloads the binary.
func (r *runner) resume(redo []redoRef) []redoRef {
	if r.offloadNeed > 0 && r.mcu.RAMUsed() < r.offloadNeed && r.anyOffloadedAhead() {
		if err := r.mcu.Alloc(r.offloadNeed); err != nil {
			r.fail(err)
			return redo[:0]
		}
	}
	r.redoReads(redo)
	return redo[:0]
}

// recheckOffloads re-enters the MCU time-budget check for every offloaded
// window whose computation was in flight when the board went down: it
// restarts from scratch, no earlier than earliest.
func (r *runner) recheckOffloads(earliest sim.Time) {
	for _, st := range r.states {
		for w, on := range st.offloadInFlight {
			if on {
				r.checkOffloadBudget(st, w, earliest)
			}
		}
	}
}

// wipeBatches empties every app's batch buffer, as a crash or brownout that
// takes the MCU RAM down does, and appends the samples it held to redo. The
// buffer bytes evaporate with the RAM; zeroing the counters keeps flushBatch
// from freeing bytes that no longer exist.
func (r *runner) wipeBatches(redo []redoRef) []redoRef {
	for _, st := range r.states {
		for _, ref := range st.batchRefs {
			redo = append(redo, redoRef{st: st, s: ref.s, k: ref.k})
		}
		st.batchRefs = st.batchRefs[:0]
		st.batchFill = 0
		st.batchAllocd = 0
	}
	return redo
}

// recollect rewinds the read progress of the windows the wiped samples
// belonged to and counts them re-collected in the window of now: a crash
// does it when it strikes, a brownout only once the board is back.
func (r *runner) recollect(redo []redoRef, now sim.Time) {
	for _, ref := range redo {
		ref.st.readsDone[ref.k/ref.s.perWindow]--
	}
	if n := len(redo); n > 0 {
		r.res.RecollectedSamples += n
		r.windowFault(r.windowAt(now)).Recollected += n
	}
}

// redoReads issues the re-reads of wiped samples after a reboot or recharge,
// serialized so each stream's bus transactions do not overlap: re-read i
// waits i × its own read's ReadTime, i counting over the whole list. Each
// re-read is a typed event whose sequence number is taken here, so dispatch
// order is schedule order.
func (r *runner) redoReads(redo []redoRef) {
	for i, ref := range redo {
		delay := time.Duration(i) * ref.s.spec.ReadTime
		if _, err := r.sched.AfterCall(delay, r, sim.Arg{Op: opRedoRead, I0: int64(ref.k), I1: int64(ref.s.idx)}); err != nil {
			r.fail(err)
			return
		}
	}
}

// anyOffloadedAhead reports whether any app still computes on the MCU in the
// current or a future window.
func (r *runner) anyOffloadedAhead() bool {
	from := r.windowAt(r.sched.Now())
	for _, st := range r.states {
		for w := from; w < r.cfg.Windows; w++ {
			if st.policyFor(w).Place == scheme.OnMCU {
				return true
			}
		}
	}
	return false
}

// checkOffloadBudget re-enters the planner's MCU time-budget check for an
// offloaded window: will the (re)computation still meet the QoS deadline?
func (r *runner) checkOffloadBudget(st *appState, w int, earliestStart sim.Time) {
	r.res.OffloadBudgetChecks++
	if earliestStart.Add(st.mcuComputeTime) > r.deadline(w) {
		r.res.OffloadBudgetMisses++
	}
}

// watchdogProbe checks MCU liveness; a dead board walks the degradation
// ladder once per crash.
func (r *runner) watchdogProbe() {
	if r.mcu.Alive() || r.pol == nil || !r.pol.DegradeOnCrash {
		return
	}
	if r.lastDegradedCrash >= r.mcu.Crashes() {
		return
	}
	r.lastDegradedCrash = r.mcu.Crashes()
	r.degradeAll("watchdog: mcu dead")
}

// degradeAll steps every app one rung down the scheme ladder (Offloaded →
// Batched → PerSample, see scheme.Degrade) starting at the next window;
// in-flight windows keep the mode they started with.
func (r *runner) degradeAll(reason string) {
	wNext := r.windowAt(r.sched.Now()) + 1
	if wNext >= r.cfg.Windows {
		return // no future window left to protect
	}
	changed := false
	for _, st := range r.states {
		from := st.modeFor(wNext)
		to, ok := scheme.Degrade(from)
		if !ok {
			continue // the ladder's floor
		}
		st.modeChanges = append(st.modeChanges, modeChange{fromWindow: wNext, mode: to})
		r.res.Degradations = append(r.res.Degradations, Degradation{
			Window: wNext, App: st.spec.ID, From: from, To: to, Reason: reason,
		})
		r.windowFault(wNext).Degradations++
		if r.obs.Enabled() {
			r.obs.Note("degrade", fmt.Sprintf("%s %v->%v from window %d: %s", st.spec.ID, from, to, wNext, reason))
		}
		changed = true
	}
	if changed {
		r.retuneGovernor(wNext)
	}
}

// noteRetry feeds the per-window fault record and the rate-downshift budget.
func (r *runner) noteRetry(s *stream, k int) {
	w := k / s.perWindow
	r.windowFault(w).Retries++
	if r.pol == nil || r.pol.RetryBudgetPerWindow <= 0 {
		return
	}
	if s.retriesInWindow == nil {
		s.retriesInWindow = make(map[int]int)
		s.downshifted = make(map[int]bool)
	}
	s.retriesInWindow[w]++
	if s.retriesInWindow[w] > r.pol.RetryBudgetPerWindow && !s.downshifted[w] {
		s.downshifted[w] = true
		r.res.RateDownshifts++
		if r.obs.Enabled() {
			r.obs.Note("rate-downshift", fmt.Sprintf("%s window %d over retry budget", s.id, w))
		}
	}
}

// linkSend puts n bytes on the wire, taking the reliable (CRC + bounded
// retransmission) path only when link faults are actually injected.
func (r *runner) linkSend(n int) (time.Duration, bool, error) {
	if !r.linkFaulty {
		d, err := r.link.Transmit(n, energy.DataTransfer)
		return d, true, err
	}
	rep, err := r.link.TransmitReliable(n, energy.DataTransfer, r.pol.LinkRetry,
		func(int) link.Outcome {
			now := r.sched.Now()
			corrupt := r.engine.Fires(faults.LinkCorrupt, "link", now) != nil
			lost := r.engine.Fires(faults.LinkLoss, "link", now) != nil
			switch {
			case lost:
				return link.TxLost
			case corrupt:
				return link.TxCorrupt
			default:
				return link.TxOK
			}
		})
	r.res.LinkRetransmits += rep.Attempts - 1
	r.res.LinkCorruptFrames += rep.Corrupted
	r.res.LinkLostFrames += rep.Lost
	if err == nil && !rep.Delivered {
		r.res.LinkAbortedTransfers++
		if r.obs.Enabled() {
			r.obs.Note("link-abort", fmt.Sprintf("%d bytes undelivered after %d attempts", n, rep.Attempts))
		}
	}
	return rep.Duration, rep.Delivered, err
}
