package hub

// Typed event dispatch for the conductor. The runner implements sim.Callback
// once: the op discriminates the step and the context rides in the sim.Arg's
// two integers, so a steady-state run schedules thousands of events without
// a single allocation. A sim.Arg holds no pointer: an event names a stream or
// an app by its index in runner.streams or runner.states (build fills both
// once and never reorders them), and a transfer by its xfer slot. Every event
// and device completion the runner hands out is one of these ops — the
// per-sample chain, the re-reads after a crash or a recharge, fault arming,
// the MCU's alive notifications and the edge glue. The one func left is the
// radio completion that submits an upload to the edge, because
// radio.Transmit takes its completion as a func.

import (
	"time"

	"iothub/internal/energy"
	"iothub/internal/scheme"
	"iothub/internal/sim"
)

// Runner event ops. "stream" and "state" are indices into runner.streams and
// runner.states. The read chain's middle steps pack their I1 as
// stream<<8 | retries used<<1 | failed (attemptRead).
const (
	opStartRead     = iota + 1 // I0 sample index, I1 stream: queue the next read, start this one
	opReadBusDone              // I0 sample index, I1 packed: sensor bus done; MCU formats next
	opReadFormatted            // I0 sample index, I1 packed: dispatch, retry, or drop
	opXferRaised               // I0 xfer slot: interrupt raised at the MCU
	opXferHandled              // I0 xfer slot: CPU fielded it, wire next
	opXferDone                 // I0 xfer slot: payload crossed, run continuation
	opComputeDone              // I0 window, I1 state: CPU computation done
	opOffloadDone              // I0 window, I1 state: MCU computation done
	opGovern                   // re-apply the CPU idle policy
	opMeterTick                // in-situ meter sampling instant (meter.go)
	opMeterFlushed             // I0 sample count, I1 crash generation: flush done
	opPowerTick                // supply ledger settlement instant (power.go)
	opPowerStep                // I0 step index: harvest trace level change
	opRedoRead                 // I0 sample index, I1 stream: re-read after a reboot or recharge
	opCrash                    // I0 reboot duration: an injected MCU crash fires (chaos.go)
	opWatchdog                 // watchdog liveness probe (chaos.go)
	opRebooted                 // the MCU is alive after a crash's reboot
	opRecharged                // the MCU is alive after a brownout's restore
	opEdgeResult               // I0 window, I1 state: the edge result reached the hub
)

// OnEvent dispatches the runner's typed events (see the ops above).
func (r *runner) OnEvent(a sim.Arg) {
	switch a.Op {
	case opStartRead:
		// Chain the stream's next read before this one runs (scheduleAll
		// explains the order argument). Brownout drops and downshift skips
		// happen inside startRead, so they never break the chain; redo reads
		// after a reboot or recharge are opRedoRead events and never chain.
		s, k := r.streams[a.I1], int(a.I0)
		if k+1 < s.perWindow*r.cfg.Windows {
			if err := r.queueRead(s, k+1); err != nil {
				r.fail(err)
			}
		}
		r.startRead(s, k)
	case opReadBusDone:
		r.streams[a.I1>>8].track.Set(0, energy.Idle)
		err := r.mcu.ExecCall(r.params.MCU.PerReadCPU, energy.DataCollection,
			sim.Done{CB: r, Arg: sim.Arg{Op: opReadFormatted, I0: a.I0, I1: a.I1}})
		if err != nil {
			r.fail(err)
		}
	case opReadFormatted:
		s := r.streams[a.I1>>8]
		k := int(a.I0)
		retriesUsed, failed := int(a.I1>>1&0x7f), a.I1&1 != 0
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
		r.finishWindow(r.states[a.I1], int(a.I0))
		r.governCPU()
	case opOffloadDone:
		st := r.states[a.I1]
		w := int(a.I0)
		st.offloadInFlight[w] = false
		r.startXfer(r.allocXfer(xfer{kind: xfResult, n: int32(r.params.ResultBytes), st: st.idx, w: int32(w)}))
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
		r.startRead(r.streams[a.I1], int(a.I0))
	case opCrash:
		r.onMCUCrash(time.Duration(a.I0))
	case opWatchdog:
		r.watchdogProbe()
	case opRebooted:
		r.afterReboot()
	case opRecharged:
		r.afterRecharge()
	case opEdgeResult:
		r.edgeResult(r.states[a.I1], int(a.I0))
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
// is allocation-free. The slot names its stream (xfSample) or app state
// (xfBatch, xfResult) by index and holds no pointer, in 24 bytes.
type xfer struct {
	n         int32 // payload bytes; a batch's fill
	k, w      int32 // sample index (xfSample) and window
	s, st     int32 // stream (xfSample) or app state (xfBatch, xfResult)
	kind      uint8
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
	d, delivered, err := r.linkSend(int(x.n))
	if err != nil {
		r.fail(err)
		return
	}
	x.delivered = delivered
	r.res.BytesTransferred += int(x.n)
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
	k, w := int(x.k), int(x.w)
	switch x.kind {
	case xfSample:
		// An undelivered sample (link faults past the retry budget) shrinks
		// the window's expectation — the window completes with fewer samples,
		// exactly like a collection-stage drop.
		for _, l := range r.streams[x.s].consumers {
			if l.st.policyFor(w).Sample != scheme.Interrupt || !l.wants(k) {
				continue
			}
			if x.delivered {
				l.st.delivered[w]++
			} else {
				l.st.expected[w]--
			}
			r.maybeComplete(l.st, w)
		}
	case xfBatch:
		// Uploaded-mode windows stage their delivered bytes for the edge
		// upload; a frame the link swallowed never reaches the batch the
		// radio will carry up.
		st := r.states[x.st]
		if x.delivered && st.uploadBytes != nil {
			st.uploadBytes[w] += int(x.n)
		}
		st.pendingFlushes[w]--
		if x.final && st.pendingFlushes[w] == 0 {
			// Re-resolve the placement: a window degraded Uploaded→Batched
			// computes locally, not on a tier the ladder just abandoned.
			r.placeCompute(st, w, st.policyFor(w))
		}
	case xfResult:
		// A result notification the link swallowed past the retry budget
		// leaves the window without an output — the loss is visible in
		// LinkAbortedTransfers and the missing Outputs entry.
		if x.delivered {
			r.finishWindow(r.states[x.st], w)
		}
	}
	r.governCPU()
}
