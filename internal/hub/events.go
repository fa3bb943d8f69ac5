package hub

// Typed event dispatch for the conductor. The runner implements sim.Callback
// once: the op discriminates the step and the context rides in the sim.Arg
// (stream or appState pointer in P0, indices packed into I0/I1), so a
// steady-state run schedules thousands of events without a single
// allocation. Every event and device completion the runner hands out is one
// of these ops — the per-sample chain, the re-reads after a crash or a
// recharge, fault arming, the MCU's alive notifications and the edge glue.
// The one func left is the radio completion that submits an upload to the
// edge, because radio.Transmit takes its completion as a func.

import (
	"time"

	"iothub/internal/energy"
	"iothub/internal/scheme"
	"iothub/internal/sim"
)

// Runner event ops. The read chain carries (stream, k) plus retries/failed
// packed into I1; the transfer chain carries an index into the xfer pool.
const (
	opStartRead     = iota + 1 // P0 *stream, I0 sample index, I1 reserved seq base
	opReadBusDone              // sensor bus transaction done; MCU formats next
	opReadFormatted            // MCU formatting done; dispatch, retry, or drop
	opXferRaised               // I0 xfer slot: interrupt raised at the MCU
	opXferHandled              // I0 xfer slot: CPU fielded it, wire next
	opXferDone                 // I0 xfer slot: payload crossed, run continuation
	opComputeDone              // P0 *appState, I0 window: CPU computation done
	opOffloadDone              // P0 *appState, I0 window: MCU computation done
	opGovern                   // re-apply the CPU idle policy
	opMeterTick                // in-situ meter sampling instant (meter.go)
	opMeterFlushed             // I0 sample count, I1 crash generation: flush done
	opPowerTick                // supply ledger settlement instant (power.go)
	opPowerStep                // I0 step index: harvest trace level change
	opRedoRead                 // P0 *stream, I0 sample index: re-read after a reboot or recharge
	opCrash                    // I0 reboot duration: an injected MCU crash fires (chaos.go)
	opWatchdog                 // watchdog liveness probe (chaos.go)
	opRebooted                 // the MCU is alive after a crash's reboot
	opRecharged                // the MCU is alive after a brownout's restore
	opEdgeResult               // P0 *appState, I0 window: the edge result reached the hub
)

// OnEvent dispatches the runner's typed events (see the ops above).
func (r *runner) OnEvent(a sim.Arg) {
	switch a.Op {
	case opStartRead:
		// Chain the stream's next read before this one runs (scheduleAll
		// explains the order argument). Brownout drops and downshift skips
		// happen inside startRead, so they never break the chain; redo reads
		// after a reboot or recharge are opRedoRead events and never chain.
		s, k := a.P0.(*stream), int(a.I0)
		if k+1 < s.perWindow*r.cfg.Windows {
			if err := r.queueRead(s, k+1, uint64(a.I1)); err != nil {
				r.fail(err)
			}
		}
		r.startRead(s, k)
	case opReadBusDone:
		s := a.P0.(*stream)
		s.track.Set(0, energy.Idle)
		err := r.mcu.ExecCall(r.params.MCU.PerReadCPU, energy.DataCollection,
			sim.Done{CB: r, Arg: sim.Arg{Op: opReadFormatted, P0: s, I0: a.I0, I1: a.I1}})
		if err != nil {
			r.fail(err)
		}
	case opReadFormatted:
		s := a.P0.(*stream)
		k := int(a.I0)
		retriesUsed, failed := int(a.I1>>1), a.I1&1 != 0
		switch {
		case !failed:
			r.sampleReady(s, k)
		case retriesUsed < readRetries:
			r.res.ReadRetries++
			r.noteRetry(s, k)
			r.attemptRead(s, k, retriesUsed+1)
		default:
			r.dropSample(s, k)
		}
	case opXferRaised:
		r.xferRaised(int(a.I0))
	case opXferHandled:
		r.xferHandled(int(a.I0))
	case opXferDone:
		r.xferDone(int(a.I0))
	case opComputeDone:
		r.finishWindow(a.P0.(*appState), int(a.I0))
		r.governCPU()
	case opOffloadDone:
		st := a.P0.(*appState)
		w := int(a.I0)
		st.offloadInFlight[w] = false
		r.startXfer(r.allocXfer(xfer{kind: xfResult, n: r.params.ResultBytes, st: st, w: w}))
	case opGovern:
		r.governCPU()
	case opMeterTick:
		r.meterTick()
	case opMeterFlushed:
		r.meterFlushed(int(a.I0), a.I1)
	case opPowerTick:
		r.powerTick()
	case opPowerStep:
		r.powerStep(int(a.I0))
	case opRedoRead:
		r.startRead(a.P0.(*stream), int(a.I0))
	case opCrash:
		r.onMCUCrash(time.Duration(a.I0))
	case opWatchdog:
		r.watchdogProbe()
	case opRebooted:
		r.afterReboot()
	case opRecharged:
		r.afterRecharge()
	case opEdgeResult:
		r.edgeResult(a.P0.(*appState), int(a.I0))
	}
}

// xfer kinds: what the transfer's completion continues into.
const (
	xfSample = iota + 1 // per-sample pull: update consumers' delivery state
	xfBatch             // coalesced flush: stage upload bytes, maybe compute
	xfResult            // offload result notification: finish the window
)

// xfer is one in-flight Interrupt + Data Transfer chain. Instances live in
// the runner's slot pool; events reference them by index so the whole chain
// is allocation-free.
type xfer struct {
	kind      int
	n         int // payload bytes
	s         *stream
	st        *appState
	k, w      int
	fill      int
	final     bool
	delivered bool
}

// allocXfer stores x in a free pool slot (or grows the pool) and returns its
// index.
func (r *runner) allocXfer(x xfer) int {
	if n := len(r.xferFree); n > 0 {
		slot := int(r.xferFree[n-1])
		r.xferFree = r.xferFree[:n-1]
		r.xfers[slot] = x
		return slot
	}
	r.xfers = append(r.xfers, x)
	return len(r.xfers) - 1
}

// startXfer begins the shared Interrupt + Data Transfer chain for the slot:
// the MCU raises one interrupt, the CPU fields it, and the payload crosses
// the link. Every transfer plan — per-sample, coalesced flush, result
// notification — reduces to this chain with a different payload.
func (r *runner) startXfer(slot int) {
	err := r.mcu.ExecCall(r.params.MCU.IrqRaise, energy.Interrupt,
		sim.Done{CB: r, Arg: sim.Arg{Op: opXferRaised, I0: int64(slot)}})
	if err != nil {
		r.fail(err)
	}
}

// xferRaised accounts the interrupt and dispatches the CPU's handler.
func (r *runner) xferRaised(slot int) {
	x := &r.xfers[slot]
	r.res.Interrupts++
	r.meterOnInterrupt()
	if x.kind == xfBatch {
		r.res.BatchFlushes++
	}
	err := r.cpu.ExecCall(r.params.CPUIrqHandle, energy.Interrupt,
		sim.Done{CB: r, Arg: sim.Arg{Op: opXferHandled, I0: int64(slot)}})
	if err != nil {
		r.fail(err)
	}
}

// xferHandled moves the payload over the link. Without DMA the CPU is busy
// for the whole transfer — wire time, retransmissions, timeouts, and backoff
// included (the baseline hardware of the paper); with DMA (§IV-F ablation)
// it only programs a descriptor and the wire signals completion.
func (r *runner) xferHandled(slot int) {
	x := &r.xfers[slot]
	d, delivered, err := r.linkSend(x.n)
	if err != nil {
		r.fail(err)
		return
	}
	x.delivered = delivered
	r.res.BytesTransferred += x.n
	if err := r.mcu.ExecCall(d, energy.DataTransfer, sim.Done{}); err != nil {
		r.fail(err)
		return
	}
	doneArg := sim.Arg{Op: opXferDone, I0: int64(slot)}
	if r.params.DMA {
		if err := r.cpu.ExecCall(r.params.DMASetup, energy.DataTransfer, sim.Done{}); err != nil {
			r.fail(err)
			return
		}
		if _, err := r.sched.AfterCall(d, r, doneArg); err != nil {
			r.fail(err)
		}
		return
	}
	if err := r.cpu.ExecCall(d, energy.DataTransfer, sim.Done{CB: r, Arg: doneArg}); err != nil {
		r.fail(err)
	}
}

// xferDone releases the slot and runs the transfer's continuation, then
// re-applies the CPU idle policy (exactly the old chain's finish order).
func (r *runner) xferDone(slot int) {
	x := r.xfers[slot]
	r.xfers[slot] = xfer{}
	r.xferFree = append(r.xferFree, int32(slot))
	switch x.kind {
	case xfSample:
		// An undelivered sample (link faults past the retry budget) shrinks
		// the window's expectation — the window completes with fewer samples,
		// exactly like a collection-stage drop.
		for _, l := range x.s.consumers {
			if l.st.policyFor(x.w).Sample != scheme.Interrupt || !l.wants(x.k) {
				continue
			}
			if x.delivered {
				l.st.delivered[x.w]++
			} else {
				l.st.expected[x.w]--
			}
			r.maybeComplete(l.st, x.w)
		}
	case xfBatch:
		// Uploaded-mode windows stage their delivered bytes for the edge
		// upload; a frame the link swallowed never reaches the batch the
		// radio will carry up.
		if x.delivered && x.st.uploadBytes != nil {
			x.st.uploadBytes[x.w] += x.fill
		}
		x.st.pendingFlushes[x.w]--
		if x.final && x.st.pendingFlushes[x.w] == 0 {
			// Re-resolve the placement: a window degraded Uploaded→Batched
			// computes locally, not on a tier the ladder just abandoned.
			r.placeCompute(x.st, x.w, x.st.policyFor(x.w))
		}
	case xfResult:
		// A result notification the link swallowed past the retry budget
		// leaves the window without an output — the loss is visible in
		// LinkAbortedTransfers and the missing Outputs entry.
		if x.delivered {
			r.finishWindow(x.st, x.w)
		}
	}
	r.governCPU()
}
