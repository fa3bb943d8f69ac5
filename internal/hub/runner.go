package hub

// The runner is a scheme-agnostic event conductor. Every scheme-dependent
// decision — interrupt vs buffer vs hold on a fresh sample, per-sample vs
// coalesced vs result-only transfer, CPU vs MCU computation, which progress
// gate closes a window — is a verdict of the app's active scheme.Policy row;
// the conductor only executes the verdicts against the hardware models, so
// run timing and energy depend on the policies' decisions, never on how a
// scheme happens to be spelled. Fault injection and resilience live in
// chaos.go; the decision seams themselves in internal/scheme.

import (
	"errors"
	"fmt"
	"time"

	"iothub/internal/apps"
	"iothub/internal/cpu"
	"iothub/internal/edge"
	"iothub/internal/energy"
	"iothub/internal/faults"
	"iothub/internal/link"
	"iothub/internal/mcu"
	"iothub/internal/obs"
	"iothub/internal/radio"
	"iothub/internal/scheme"
	"iothub/internal/sensor"
	"iothub/internal/sim"
)

type runner struct {
	cfg    Config
	params Params
	window time.Duration

	sched     *sim.Scheduler
	meter     *energy.Meter
	cpu       *cpu.CPU
	mcu       *mcu.MCU
	link      *link.Link
	mainRadio *radio.Radio
	mcuRadio  *radio.Radio
	// edge is the upload-compute tier; nil unless some app's base policy
	// places its computation OnEdge, so local-only runs never pay for (or
	// meter) the third tier.
	edge *edge.Edge
	// obs is the run's observability recorder; nil (the default) makes every
	// instrumentation point a single-branch no-op.
	obs *obs.Recorder

	states  []*appState
	streams []*stream

	// gapHint is the expected CPU idle gap between events, used by the
	// governor after each completed work item.
	gapHint time.Duration
	// allowDeep is true when every app is offloaded (the CPU is fully
	// freed, §III-B4).
	allowDeep bool

	// Fault-injection machinery (chaos.go); all nil/zero when no schedule
	// is active.
	engine *faults.Engine
	pol    *ResiliencePolicy
	// linkFaulty short-circuits the reliable link path when no link rules
	// exist, keeping the wire byte-identical to the fault-free run.
	linkFaulty bool
	// horizon is the run's nominal end (Windows × window): self-firing
	// fault events and watchdog probes are only scheduled inside it so the
	// event queue still drains.
	horizon time.Duration
	// offloadNeed is the MCU RAM reserved for offloaded app footprints,
	// re-reserved after a crash wipes the RAM.
	offloadNeed int
	// lastDegradedCrash ensures the watchdog takes one ladder step per
	// crash, however many probes see the same dead MCU.
	lastDegradedCrash int
	// crashRedo holds the samples a crash wiped until the reboot re-issues
	// their reads.
	crashRedo []redoRef

	// xfers is the slot pool of in-flight Interrupt + Data Transfer chains
	// (events.go); events carry slot indices instead of closures.
	xfers    []xfer
	xferFree []int32

	// In-situ meter (meter.go) and supply ledger (power.go) runtimes. Each
	// zero value is the disarmed subsystem, so unobserved and mains-powered
	// runs stay byte-identical.
	insitu meterState
	supply supplyState

	// Arena pools (arena.go): scrubbed per-run objects recycled across runs.
	// All empty on a fresh runner, so first use constructs exactly what the
	// pre-arena Run constructed.
	statePool  []*appState
	streamPool []*stream
	uploadPool []map[int]int
	edgePool   *edge.Edge

	res    *RunResult
	runErr error
}

// Run executes the configured scenario and returns its aggregated result.
// It is a single-shot arena run: the result owns its storage outright.
func Run(cfg Config) (*RunResult, error) {
	return NewArena().Run(cfg)
}

// fail aborts the simulation with an error (used from event callbacks).
func (r *runner) fail(err error) {
	if r.runErr == nil {
		r.runErr = err
	}
	r.sched.Stop()
}

// windowAt is the window index the virtual instant falls in.
func (r *runner) windowAt(t sim.Time) int { return int(t / sim.Time(r.window)) }

// build constructs app states and materializes the scheme's stream topology.
func (r *runner) build(modes map[apps.ID]Mode) error {
	for _, a := range r.cfg.Apps {
		sp := a.Spec()
		st := r.getState()
		st.app = a
		st.spec = sp
		st.mode = modes[sp.ID]
		ct, err := sp.CPUComputeTime(r.params.CPU.MIPS)
		if err != nil {
			return err
		}
		st.cpuComputeTime = ct
		// Offload cost uses the app's full-rate CPU time (EffectiveMIPS
		// models CPU-side memory-boundness; the MCU slowdown is separate).
		fullRate := sp.MIPS * sp.Window.Seconds() / r.params.CPU.MIPS
		st.mcuComputeTime = r.mcu.OffloadTime(
			time.Duration(fullRate*float64(time.Second)), sp.FPPenalty)
		n, err := sp.InterruptsPerWindow()
		if err != nil {
			return err
		}
		st.samplesPerWindow = n
		st.sizeWindows(r.cfg.Windows)
		if st.policy().Place == scheme.OnEdge {
			st.uploadBytes = r.getUploadMap()
			// The edge container is server-class: no EffectiveMIPS cap, the
			// app's full per-window instruction demand is the workload.
			st.edgeMI = sp.MIPS * sp.Window.Seconds()
		}
		st.idx = int32(len(r.states))
		r.states = append(r.states, st)

		if st.policy().Place == scheme.OnMCU {
			for _, u := range sp.Sensors {
				sspec, err := sensor.Lookup(u.Sensor)
				if err != nil {
					return err
				}
				if !sspec.MCUFriendly {
					return fmt.Errorf("%w: %s needs MCU-unfriendly sensor %s", ErrUnoffloadable, sp.ID, u.Sensor)
				}
			}
		}
	}

	// Offloaded apps are bound into one sequentially executed MCU binary
	// (§III-B3), so their working sets time-share the RAM: reserve the
	// largest footprint plus its widest sample as a streaming buffer.
	offloadNeed := 0
	offloadID := apps.ID("")
	for _, st := range r.states {
		if st.policy().Place != scheme.OnMCU {
			continue
		}
		need, err := st.spec.MCUFootprint()
		if err != nil {
			return err
		}
		if need > offloadNeed {
			offloadNeed, offloadID = need, st.spec.ID
		}
	}
	if offloadNeed > 0 {
		if err := r.mcu.Alloc(offloadNeed); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrUnoffloadable, offloadID, err)
		}
	}
	r.offloadNeed = offloadNeed

	// Bring up the edge tier only when some placement needs it, so runs with
	// purely local schemes stay byte-identical to the pre-edge engine. A
	// reused arena revives its pooled executor at the same point, keeping the
	// "edge" track's position in the meter's component order.
	for _, st := range r.states {
		if st.policy().Place != scheme.OnEdge {
			continue
		}
		if r.edgePool != nil {
			if err := r.edgePool.Reset(r.params.Edge); err != nil {
				return err
			}
		} else {
			e, err := edge.New(r.sched, r.meter, "edge", r.params.Edge)
			if err != nil {
				return err
			}
			r.edgePool = e
		}
		r.edgePool.Observe(r.obs)
		r.edge = r.edgePool
		break
	}

	// Materialize the scheme's stream topology (dedicated per-(app, sensor)
	// streams, or BEAM's shared ones) and bind it to the event kernel. A
	// consumer names its app by position in Config.Apps, as r.states does.
	def, err := scheme.Lookup(r.cfg.Scheme)
	if err != nil {
		return err
	}
	plan, err := def.PlanStreams(r.cfg.schemeView())
	if err != nil {
		return err
	}
	for _, ss := range plan {
		s := r.getStream()
		s.idx = int32(len(r.streams))
		s.id = ss.Sensor
		s.spec = ss.Spec
		s.bytes = ss.Bytes
		s.perWindow = ss.PerWindow
		s.period = ss.Period
		s.track = r.meter.Track(ss.Track)
		for _, c := range ss.Consumers {
			s.consumers = append(s.consumers, consumerLink{st: r.states[c.App], stride: c.Stride})
		}
		r.streams = append(r.streams, s)
	}
	r.retuneGovernor(0)
	return nil
}

// retuneGovernor derives the CPU idle policy's inputs from the policies in
// force at window w: build sets them for window 0, and a degradation resets
// them from its first window, since a formerly all-offloaded hub then fields
// interrupts again.
func (r *runner) retuneGovernor(w int) {
	allOffloaded := true
	minGap := r.window
	for _, st := range r.states {
		if st.policyFor(w).Place != scheme.OnMCU {
			allOffloaded = false
		}
	}
	for _, s := range r.streams {
		for _, l := range s.consumers {
			if l.st.policyFor(w).Sample == scheme.Interrupt && s.period*time.Duration(l.stride) < minGap {
				minGap = s.period
			}
		}
	}
	r.gapHint = minGap
	r.allowDeep = allOffloaded
}

// scheduleAll reserves the sequence numbers of every sensor read of the run,
// stream by stream in read order, but queues only each stream's first read:
// the opStartRead handler queues read k+1 as read k fires (events.go). Read
// k+1 sorts after read k (same or later instant, larger seq), so it is always
// queued before any event that sorts after it can dispatch, and the run
// dispatches exactly as if every read had been queued up front — while the
// run queue holds O(streams + in-flight) events instead of every read.
func (r *runner) scheduleAll() error {
	for _, s := range r.streams {
		total := s.perWindow * r.cfg.Windows
		r.res.ScheduledSamples += total
		s.seqBase = r.sched.Reserve(total)
		if err := r.queueRead(s, 0); err != nil {
			return err
		}
	}
	return nil
}

// queueRead queues stream s's read k at k·period under its reserved sequence
// number seqBase+k.
func (r *runner) queueRead(s *stream, k int) error {
	at := sim.Time(int64(k) * int64(s.period))
	_, err := r.sched.AtCallSeq(at, s.seqBase+uint64(k), r,
		sim.Arg{Op: opStartRead, I0: int64(k), I1: int64(s.idx)})
	return err
}

// readRetries is how many times the MCU re-reads a sample whose availability
// check failed before it drops the sample.
const readRetries = 1

// startRead powers the sensor for its bus transaction, then has the MCU
// check/format the sample (DataCollection). A failed availability check (a
// sensor-fail fault) costs the full attempt and is re-read readRetries times
// before the sample is dropped. A stream that blew its window's retry budget
// has been rate-downshifted: every other remaining read is skipped so the
// deadline survives.
func (r *runner) startRead(s *stream, k int) {
	if r.supply.brownout {
		// The board is power-gated: the sensor is unpowered, the read never
		// happens, and no energy is spent. Accounted as an ordinary drop so
		// the sample ledger stays balanced however long the outage lasts.
		r.dropSample(s, k)
		return
	}
	if s.downshifted[k/s.perWindow] && (k%s.perWindow)%2 == 1 {
		r.res.DownshiftSkipped++
		r.loseSample(s, k)
		return
	}
	r.attemptRead(s, k, 0)
}

func (r *runner) attemptRead(s *stream, k, retriesUsed int) {
	r.obs.Inc(obs.SensorReads)
	failed := false
	readTime := s.spec.ReadTime
	if r.engine != nil {
		now := r.sched.Now()
		if rule := r.engine.Fires(faults.SensorSlow, string(s.id), now); rule != nil {
			factor := rule.Factor
			if factor < 1 {
				factor = 1
			}
			readTime = time.Duration(float64(readTime) * factor)
			r.res.SlowReads++
		}
		if r.engine.Fires(faults.SensorStuck, string(s.id), now) != nil {
			// A stuck sensor re-delivers its previous value: timing and
			// energy are unchanged, the staleness is accounted. (The apps'
			// inputs come from synthetic sources; see the package note.)
			r.res.StuckSamples++
		}
		failed = r.engine.Fires(faults.SensorFail, string(s.id), now) != nil
	}
	s.track.Set(s.spec.PowerTyp, energy.DataCollection)
	// The bus-done and formatted steps are typed events (events.go): the
	// sample index rides in I0, and the stream, the retries used (7 bits,
	// far above readRetries) and the failed flag are packed into I1, so the
	// per-sample chain allocates nothing.
	ctx := int64(s.idx)<<8 | int64(retriesUsed)<<1
	if failed {
		ctx |= 1
	}
	_, err := r.sched.AfterCall(readTime, r, sim.Arg{Op: opReadBusDone, I0: int64(k), I1: ctx})
	if err != nil {
		r.fail(err)
	}
}

// dropSample abandons a sample and accounts the drop.
// Functional note: the apps' Compute inputs are regenerated from their
// synthetic sources, so drops affect energy/timing accounting, not the
// computed outputs (real apps tolerate missing samples; see DESIGN.md).
func (r *runner) dropSample(s *stream, k int) {
	r.res.DroppedSamples++
	w := k / s.perWindow
	r.windowFault(w).Drops++
	if r.obs.Enabled() {
		r.obs.Note("sample-drop", fmt.Sprintf("%s sample %d (window %d)", s.id, k, w))
	}
	r.loseSample(s, k)
}

// loseSample tells every consumer of stream s's sample k that it will never
// arrive: the consumer's window expectation shrinks and completion is
// re-checked (the loss may have been the last straw).
func (r *runner) loseSample(s *stream, k int) {
	w := k / s.perWindow
	for _, l := range s.consumers {
		if !l.wants(k) {
			continue
		}
		l.st.expected[w]--
		r.maybeComplete(l.st, w)
	}
}

// maybeComplete fires a window's downstream step once the progress counter
// named by the policy's close gate has caught up with every still-expected
// sample.
func (r *runner) maybeComplete(st *appState, w int) {
	if st.fired[w] {
		return
	}
	pol := st.policyFor(w)
	progress := st.delivered[w]
	if pol.Gate == scheme.AwaitCollection {
		progress = st.readsDone[w]
	}
	if progress < st.expected[w] {
		return
	}
	st.fired[w] = true
	r.closeWindow(st, w, pol)
}

// closeWindow executes the policy's transfer plan for a completed window: a
// coalesced plan still owes its final bulk flush; per-sample and result-only
// plans go straight to the computation placement.
func (r *runner) closeWindow(st *appState, w int, pol scheme.Policy) {
	if pol.Transfer == scheme.CoalescedTransfer {
		r.flushBatch(st, w, true)
		return
	}
	r.placeCompute(st, w, pol)
}

// placeCompute dispatches the window's app-specific computation to the
// processor the policy chose.
func (r *runner) placeCompute(st *appState, w int, pol scheme.Policy) {
	if pol.Place == scheme.OnMCU {
		r.offloadCompute(st, w)
		return
	}
	if pol.Place == scheme.OnEdge {
		r.edgeCompute(st, w)
		return
	}
	r.cpuCompute(st, w)
}

// sampleReady dispatches a formatted sample according to each consumer's
// policy for the sample's window. Under a shared topology (BEAM) a
// per-sample stream has multiple consumers but pays for one interrupt and
// one transfer.
func (r *runner) sampleReady(s *stream, k int) {
	w := k / s.perWindow
	r.res.DeliveredSamples++
	interrupting := 0
	for _, l := range s.consumers {
		if !l.wants(k) {
			continue
		}
		st := l.st
		st.readsDone[w]++
		switch st.policyFor(w).Sample {
		case scheme.Interrupt:
			interrupting++
		case scheme.Buffer:
			r.batchSample(st, s, w, k)
			r.maybeComplete(st, w)
		case scheme.Hold:
			r.maybeComplete(st, w)
		}
	}
	if interrupting > 0 {
		// The extra sharers ride the single interrupt: coalesced.
		if interrupting > 1 {
			r.obs.Add(obs.InterruptsCoalesced, uint64(interrupting-1))
		}
		r.interruptAndTransfer(s, k, w)
	}
}

// cpuCompute runs the app-specific computation on the CPU.
func (r *runner) cpuCompute(st *appState, w int) {
	err := r.cpu.ExecCall(st.cpuComputeTime, energy.AppCompute,
		sim.Done{CB: r, Arg: sim.Arg{Op: opComputeDone, I0: int64(w), I1: int64(st.idx)}})
	if err != nil {
		r.fail(err)
	}
}

// offloadCompute runs the app-specific computation on the MCU, then sends
// the small result notification to the CPU (the result-only transfer plan).
// Dispatch enters the MCU time-budget check (the planner's admission test,
// re-entered after an MCU reboot restarts the computation). A result
// notification the link swallows past the retry budget leaves the window
// without an output — the loss is visible in LinkAbortedTransfers and the
// missing Outputs entry.
func (r *runner) offloadCompute(st *appState, w int) {
	r.checkOffloadBudget(st, w, r.sched.Now())
	st.offloadInFlight[w] = true
	err := r.mcu.ExecCall(st.mcuComputeTime, energy.AppCompute,
		sim.Done{CB: r, Arg: sim.Arg{Op: opOffloadDone, I0: int64(w), I1: int64(st.idx)}})
	if err != nil {
		r.fail(err)
	}
}

// deadline is the QoS deadline of window w's output: three windows after
// the window opens.
func (r *runner) deadline(w int) sim.Time { return sim.Time(int64(w+3) * int64(r.window)) }

// finishWindow records the app's window result and checks QoS.
func (r *runner) finishWindow(st *appState, w int) {
	wr := WindowResult{Window: w, At: r.sched.Now()}
	if !r.cfg.SkipAppCompute {
		in, err := apps.CollectWindow(st.app, w)
		if err != nil {
			r.fail(err)
			return
		}
		res, err := st.app.Compute(in)
		if err != nil {
			r.fail(fmt.Errorf("hub: %s window %d: %w", st.spec.ID, w, err))
			return
		}
		wr.Result = res
	}
	if deadline := r.deadline(w); wr.At > deadline {
		r.res.QoSViolations++
		if r.obs.Enabled() {
			r.obs.Note("qos-violation", fmt.Sprintf("%s window %d finished %v past deadline", st.spec.ID, w, (wr.At-deadline)))
		}
	}
	if r.obs.Tracing() {
		// Per-app window span: the window's sampling start to its output.
		r.obs.Span("app:"+string(st.spec.ID), fmt.Sprintf("window %d", w),
			sim.Time(int64(w)*int64(r.window)), wr.At)
	}
	st.results = append(st.results, wr)
	r.uplink(st, w, wr.Result.Upstream)
}

// uplink pushes a window's output to the network: apps whose policy placed
// the window's computation on the MCU transmit through the MCU's own radio,
// everything else through the main board WiFi. The host pays a small driver
// cost; the NIC handles the airtime.
func (r *runner) uplink(st *appState, w int, payload []byte) {
	if len(payload) == 0 {
		return
	}
	r.res.UpstreamBytes += len(payload)
	if st.policyFor(w).Place == scheme.OnEdge {
		// The result already lives in the edge container; it egresses from
		// the edge's own network, costing the hub nothing.
		r.res.EdgeUpstreamBytes += len(payload)
		return
	}
	if st.policyFor(w).Place == scheme.OnMCU {
		if err := r.mcu.ExecCall(r.params.UplinkDriverCPU, energy.AppCompute, sim.Done{}); err != nil {
			r.fail(err)
			return
		}
		if err := r.mcuRadio.Transmit(len(payload), energy.AppCompute, nil); err != nil {
			r.fail(err)
		}
		return
	}
	err := r.cpu.ExecCall(r.params.UplinkDriverCPU, energy.AppCompute,
		sim.Done{CB: r, Arg: sim.Arg{Op: opGovern}})
	if err != nil {
		r.fail(err)
		return
	}
	if err := r.mainRadio.Transmit(len(payload), energy.AppCompute, nil); err != nil {
		r.fail(err)
	}
}

// governCPU applies the idle policy: once before the first read, so window
// 0 is steady-state, and again whenever CPU work drains. A CPU that is still
// busy stays active; cpu.ErrBusy is no fault.
func (r *runner) governCPU() {
	routine := energy.DataTransfer
	gap := r.gapHint
	if r.allowDeep {
		routine = energy.AppCompute
		gap = r.window
	}
	if err := r.cpu.Idle(gap, routine, r.allowDeep); err != nil && !errors.Is(err, cpu.ErrBusy) {
		r.fail(err)
	}
}
