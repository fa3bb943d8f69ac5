package hub

// The supply-side power ledger runtime: the hub-side execution of
// power.Supply (DESIGN.md §14). Where the meter (demand side) only records
// what the components draw, the ledger closes the loop: a finite battery is
// drawn down by the meter's demand, credited by a deterministic harvest
// trace, and its state of charge feeds back into execution — one scheme
// ladder step when the charge crosses the low-SoC threshold, and a physics
// brownout (the MCU power-gates with no scheduled recovery) when it reaches
// zero. Recharge — if the harvest can outpace the surviving draw — reboots
// the board and re-collects what the outage destroyed, composing with the
// chaos layer's crash machinery through the same mcu seam.
//
// Settlement runs as scheduled DES events: a periodic opPowerTick at the
// supply's ledger rate, plus one opPowerStep per harvest trace level change
// (the trace is compiled once and cached across arena reuses). Battery
// self-discharge is modeled as a real draw on a dedicated "battery" energy
// track, so leakage flows through the meter's conservation ledger and stays
// separable in PerComponent.
//
// A disarmed supply (no battery) arms nothing: no events, no track, no
// counters. Mains power therefore recovers the unobserved run byte for byte,
// which TestBatteryAsymptoteGolden pins against the committed golden corpus.

import (
	"fmt"
	"time"

	"iothub/internal/energy"
	"iothub/internal/power"
	"iothub/internal/sim"
)

// supplyState is the supply ledger's runtime; its zero value is mains power.
type supplyState struct {
	on         bool    // Config.Power has a battery
	capJ       float64 // usable capacity in joules
	socJ       float64 // current state of charge
	minJ       float64 // low-water mark over the run
	harvestJ   float64 // harvest energy actually credited (cap-clipped)
	demandJ    float64 // meter-wide joules at the last settle
	harvestW   float64 // harvest income level currently in force
	degradeJ   float64 // SoC that takes one ladder step (0 disables)
	recoverJ   float64 // SoC that reboots a browned-out board
	prevSoC    float64 // SoC at the previous tick (terminal detection)
	period     time.Duration
	lastAt     sim.Time // instant of the last settle
	brownoutAt sim.Time // start of the open brownout interval
	degraded   bool     // the SoC ladder step fires once per run
	brownout   bool
	track      *energy.Track
	steps      []power.Step // compiled harvest trace (cached across runs)
	traceSrc   string       // cache key: the Harvest spec steps compiled from
	traceHzn   time.Duration
	redo       []redoRef // samples a brownout wiped, redone at restore
}

// armPower brings up the supply ledger. Called after armMeter (the "battery"
// track must register at a fixed pipeline point, fresh arena or reused) and
// after armFaults (it reads the run horizon and the resilience policy's SoC
// thresholds).
func (r *runner) armPower() error {
	s := r.cfg.Power
	if !s.Armed() {
		return nil
	}
	r.supply.on = true
	capJ, err := s.Battery.UsableJoules()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrConfig, err)
	}
	r.supply.capJ = capJ
	soc := capJ
	if s.Battery.InitialSoC > 0 {
		soc = capJ * s.Battery.InitialSoC
	}
	r.supply.socJ = soc
	r.supply.minJ = soc
	r.supply.prevSoC = soc
	// A battery-armed, fault-free run still needs SoC thresholds; the
	// power-only default policy keeps every fault-side knob inert.
	if r.pol == nil {
		r.pol = defaultPowerResilience()
	}
	r.supply.degradeJ = r.pol.SoCDegradeFrac * capJ
	r.supply.recoverJ = r.pol.SoCRecoverFrac * capJ
	r.supply.period = s.LedgerPeriod()
	r.supply.track = r.meter.Track("battery")
	if s.Battery.LeakageW > 0 {
		r.supply.track.Set(s.Battery.LeakageW, energy.Idle)
	}
	// Compile the harvest trace, cached across arena reuses keyed on the
	// spec text and horizon so steady-state sweeps never re-parse.
	if s.Harvest != r.supply.traceSrc || r.horizon != r.supply.traceHzn {
		r.supply.steps = r.supply.steps[:0]
		if s.Harvest != "" {
			tr, err := power.ParseTrace(s.Harvest)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrConfig, err)
			}
			r.supply.steps = tr.AppendSteps(r.supply.steps, r.horizon)
		}
		r.supply.traceSrc = s.Harvest
		r.supply.traceHzn = r.horizon
	}
	for i, stp := range r.supply.steps {
		if stp.At == 0 {
			r.supply.harvestW = stp.Watts
			continue
		}
		if _, err := r.sched.AtCall(sim.Time(stp.At), r, sim.Arg{Op: opPowerStep, I0: int64(i)}); err != nil {
			return err
		}
	}
	_, err = r.sched.AtCall(sim.Time(r.supply.period), r, sim.Arg{Op: opPowerTick})
	return err
}

// powerSettle brings the ledger up to now: the interval's metered demand is
// drawn from the charge, the harvest level's income is credited (clipped at
// capacity — a full battery sheds the surplus), and the charge clamps at
// zero (the deficit inside one settlement interval is the discretization the
// ledger rate bounds).
func (r *runner) powerSettle(now sim.Time) {
	dt := (now - r.supply.lastAt).Duration().Seconds()
	r.supply.lastAt = now
	demand := r.meter.TotalJoules()
	drawn := demand - r.supply.demandJ
	r.supply.demandJ = demand
	soc := r.supply.socJ - drawn
	if income := r.supply.harvestW * dt; income > 0 {
		credited := income
		if soc+credited > r.supply.capJ {
			credited = r.supply.capJ - soc
			if credited < 0 {
				credited = 0
			}
		}
		r.supply.harvestJ += credited
		soc += credited
	}
	if soc < 0 {
		soc = 0
	}
	r.supply.socJ = soc
	if soc < r.supply.minJ {
		r.supply.minJ = soc
	}
}

// powerCheck applies the SoC feedback after a settle: one scheme ladder step
// the first time the charge crosses the degrade threshold, a brownout at
// zero, and — while browned out — the reboot once the harvest lifts the
// charge past the recovery threshold.
func (r *runner) powerCheck(now sim.Time) {
	if !r.supply.brownout {
		if !r.supply.degraded && r.supply.degradeJ > 0 && r.supply.socJ <= r.supply.degradeJ {
			r.supply.degraded = true
			r.degradeAll("soc low")
		}
		if r.supply.socJ <= 0 {
			r.onBrownout(now)
		}
		return
	}
	if r.supply.socJ > r.supply.recoverJ {
		r.onRecharge(now)
	}
}

// powerTick is one periodic settlement instant. Inside the run horizon the
// tick always re-arms; past it, it keeps ticking only while a brownout is
// open and the charge actually climbed over the last interval — the harvest
// trace is constant past the horizon, so a flat or falling charge there is a
// terminal brownout and the board stays down.
func (r *runner) powerTick() {
	now := r.sched.Now()
	r.powerSettle(now)
	r.powerCheck(now)
	next := now.Add(r.supply.period)
	if next <= sim.Time(r.horizon) || (r.supply.brownout && r.supply.socJ > r.supply.prevSoC) {
		if _, err := r.sched.AtCall(next, r, sim.Arg{Op: opPowerTick}); err != nil {
			r.fail(err)
			return
		}
	}
	r.supply.prevSoC = r.supply.socJ
}

// powerStep switches the harvest income to the trace's next level, settling
// the outgoing level's interval first so each level is credited exactly over
// its own span.
func (r *runner) powerStep(i int) {
	now := r.sched.Now()
	r.powerSettle(now)
	r.supply.harvestW = r.supply.steps[i].Watts
	r.powerCheck(now)
}

// onBrownout power-gates the board at SoC zero. Batch-resident samples are
// stashed (their RAM evaporates with the gate) but NOT yet rewound or
// counted re-collected — that accounting belongs to the restore, which may
// never come: a terminal brownout (the harvest never lifts the charge back)
// must leave the sample ledger balanced. The in-situ meter's buffer lives in
// the same RAM and drops in one burst, exactly as under a crash.
func (r *runner) onBrownout(now sim.Time) {
	r.supply.brownout = true
	r.supply.brownoutAt = now
	r.res.Brownouts++
	if r.res.Brownouts == 1 {
		r.res.BatterySurvival = now.Duration()
	}
	if r.obs.Enabled() {
		r.obs.Note("brownout", fmt.Sprintf("SoC zero in window %d", r.windowAt(now)))
	}
	r.supply.redo = r.wipeBatches(r.supply.redo)
	r.meterOnCrash()
	if err := r.mcu.PowerGate(); err != nil {
		r.fail(err)
	}
}

// onRecharge ends the brownout interval and reboots the board through the
// same seam a crash uses — an alive notification absorbed from an
// overlapping injected crash is delivered first, so the board reboots exactly
// once. The reboot
// itself draws RebootW: if the harvest cannot carry that, the ledger gates
// the board again mid-reboot and the cycle repeats at the next recharge.
func (r *runner) onRecharge(now sim.Time) {
	r.supply.brownout = false
	r.res.BrownoutTime += (now - r.supply.brownoutAt).Duration()
	if r.obs.Enabled() {
		r.obs.Note("recharge", fmt.Sprintf("SoC back above %.3g J after %v", r.supply.recoverJ, (now-r.supply.brownoutAt).Duration()))
	}
	if err := r.mcu.PowerRestore(sim.Done{CB: r, Arg: sim.Arg{Op: opRecharged}}); err != nil {
		r.fail(err)
	}
}

// afterRecharge runs once the rebooted board is alive again. Only here does
// the deferred re-collection accounting apply — the outage's lost samples
// rewind their windows' progress and count as re-collected, mirroring the
// crash path — because only now is the redo actually going to happen: a
// brownout that re-opens mid-reboot holds this notification with the gate,
// so nothing is ever rewound twice. In-flight offloaded windows re-enter the
// planner's time-budget check, and the board resumes as after a crash.
func (r *runner) afterRecharge() {
	now := r.sched.Now()
	r.recollect(r.supply.redo, now)
	r.recheckOffloads(now)
	r.supply.redo = r.resume(r.supply.redo)
}

// collectPower finalizes the ledger into the result: one last settle at the
// drained clock, the open brownout interval (a terminal brownout never saw
// its restore), and — because a terminal brownout strands whatever was
// mid-flight on the gated board (queued formatting, unfired re-reads) — the
// stranded samples are accounted as dropped so the sample ledger balances.
func (r *runner) collectPower() {
	if !r.supply.on {
		return
	}
	now := r.sched.Now()
	r.powerSettle(now)
	r.res.BatteryCapacityJ = r.supply.capJ
	r.res.BatterySoCJ = r.supply.socJ
	r.res.BatteryMinSoCJ = r.supply.minJ
	r.res.BatteryHarvestJ = r.supply.harvestJ
	if r.supply.brownout {
		r.res.BrownoutTime += (now - r.supply.brownoutAt).Duration()
		stranded := r.res.ScheduledSamples + r.res.RecollectedSamples -
			r.res.DeliveredSamples - r.res.DroppedSamples - r.res.DownshiftSkipped
		if stranded > 0 {
			r.res.DroppedSamples += stranded
		}
	}
	if r.res.Brownouts == 0 {
		r.res.BatterySurvival = r.horizon
	}
}
