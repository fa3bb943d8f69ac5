package hub

// Result finalization: aggregate the drained run into a RunResult, mirror
// component-kept totals into the observability recorder, and the idle-hub
// reference measurement.

import (
	"fmt"
	"time"

	"iothub/internal/apps"
	"iothub/internal/cpu"
	"iothub/internal/energy"
	"iothub/internal/mcu"
	"iothub/internal/obs"
	"iothub/internal/sim"
)

// collect finalizes the result after the event queue drains. The power
// ledger settles, and the totals a device keeps are read into the result,
// before collectObs copies the result's counters to the recorder.
func (r *runner) collect() {
	r.collectPower()
	r.res.CPUWakes = r.cpu.Wakes()
	r.res.MCUCrashes = r.mcu.Crashes()
	if r.edge != nil {
		r.res.EdgeColdStarts = r.edge.ColdStarts()
	}
	r.collectObs()
	r.res.Energy = r.meter.Total()
	for _, name := range r.meter.Components() {
		r.res.PerComponent[name] = r.meter.Track(name).Breakdown()
	}
	r.res.CPUBusy = r.cpu.BusyByRoutine()
	r.res.MCUBusy = r.mcu.BusyByRoutine()
	r.res.RadioDeferred = r.mainRadio.Deferred() + r.mcuRadio.Deferred()
	r.res.RadioDroppedBursts = r.mainRadio.DroppedBursts() + r.mcuRadio.DroppedBursts()
	r.res.RadioDroppedBytes = r.mainRadio.DroppedBytes() + r.mcuRadio.DroppedBytes()
	r.res.Duration = r.sched.Now().Duration()
	r.res.Window = r.window
	for _, st := range r.states {
		r.res.Outputs[st.spec.ID] = st.results
	}
	if r.cfg.TracePower {
		r.res.Traces = map[string][]energy.Sample{
			"cpu": r.cpu.Track().TraceSamples(),
			"mcu": r.mcu.Track().TraceSamples(),
		}
	}
}

// collectObs copies component-kept running totals into the recorder — the
// event kernel's traffic, CPU residency, MCU high-water, fault-engine probe
// hits, the battery's final charge — plus the result's own Counters, and
// closes the run-level scheme span.
func (r *runner) collectObs() {
	if !r.obs.Enabled() {
		return
	}
	scheduled, cancelled := r.sched.Stats()
	r.obs.Store(obs.SimEventsScheduled, scheduled)
	r.obs.Store(obs.SimEventsCancelled, cancelled)
	stateCounter := map[cpu.State]obs.Counter{
		cpu.Active:    obs.CPUTicksActive,
		cpu.WFI:       obs.CPUTicksWFI,
		cpu.Sleep:     obs.CPUTicksSleep,
		cpu.DeepSleep: obs.CPUTicksDeepSleep,
		cpu.Waking:    obs.CPUTicksWaking,
	}
	for s, d := range r.cpu.Residency() {
		if c, ok := stateCounter[s]; ok {
			r.obs.Store(c, uint64(d))
		}
	}
	r.obs.SetMax(obs.MCUBufferHighWater, uint64(r.mcu.RAMHighWater()))
	r.obs.Add(obs.FaultActivations, r.engine.Activations())
	r.res.Counters(r.obs.Store)
	// The final charge is a level, not a sum: it stays out of Counters, so
	// sweeps never add it up.
	if r.supply.on && r.supply.capJ > 0 {
		r.obs.Store(obs.BatterySoCPermille, uint64(r.supply.socJ/r.supply.capJ*1000))
	}
	r.obs.Span("hub", r.cfg.Scheme.String(), 0, r.sched.Now())
}

// RunIdle measures the idle hub (Figure 1's reference): CPU suspended, MCU
// idle, no sensing, for the given duration.
func RunIdle(d time.Duration, params *Params) (*RunResult, error) {
	p := DefaultParams()
	if params != nil {
		p = *params
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	sched := sim.NewScheduler()
	meter := energy.NewMeter(sched)
	c, err := cpu.New(sched, meter, "cpu", p.CPU)
	if err != nil {
		return nil, err
	}
	if _, err := mcu.New(sched, meter, "mcu", p.MCU); err != nil {
		return nil, err
	}
	// An idle hub has nothing pending at all: the CPU power-gates into its
	// deepest state and the MCU idles (Fig. 1's reference point).
	if err := c.ForceState(cpu.DeepSleep, energy.Idle); err != nil {
		return nil, err
	}
	if err := sched.RunUntil(sim.Time(d)); err != nil {
		return nil, err
	}
	res := &RunResult{
		Energy:       meter.Total(),
		PerComponent: make(map[string]energy.Breakdown),
		Duration:     d,
		Outputs:      make(map[apps.ID][]WindowResult),
	}
	for _, name := range meter.Components() {
		res.PerComponent[name] = meter.Track(name).Breakdown()
	}
	return res, nil
}
