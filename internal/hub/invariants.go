package hub

import (
	"fmt"
	"math"

	"iothub/internal/energy"
)

// invariantEps absorbs float summation noise in the energy ledger.
const invariantEps = 1e-9

// CheckInvariants verifies the physical bookkeeping of a completed run:
//
//   - Energy conservation: the hub-wide per-routine energy equals the sum of
//     the per-component breakdowns — no joule appears or vanishes, faults
//     included — and no component recorded negative energy.
//   - Time sanity: no negative busy durations; the CPU's serialized IO lane
//     (interrupt + transfer) and the single-core MCU each fit inside the
//     run's duration; the compute lane fits its core count.
//   - Output sanity: every window result lies on the run's timeline, each
//     app reports each window at most once, and — in fault-free runs —
//     windows complete in order with monotone timestamps (faults may
//     legitimately reorder completions via re-collection and retries).
//   - Sample bookkeeping: every planned or re-collected read is accounted
//     as delivered, dropped, or deliberately skipped — exactly once.
//
// hub.Run calls this after every simulation (every experiment doubles as a
// regression oracle); iotsim -check surfaces it on the CLI.
func (r *RunResult) CheckInvariants() error {
	if r.Duration < 0 || r.Window < 0 {
		return fmt.Errorf("negative duration %v or window %v", r.Duration, r.Window)
	}

	// Energy conservation across components, per routine and in total.
	sum := energy.NewBreakdown()
	for name, bd := range r.PerComponent {
		for _, rt := range energy.Routines {
			if !bd.Has(rt) {
				continue
			}
			j := bd.Get(rt)
			if j < -invariantEps {
				return fmt.Errorf("component %s: negative %v energy %g J", name, rt, j)
			}
			sum[rt] += j
		}
	}
	for _, rt := range energy.Routines {
		if r.Energy.Has(rt) {
			if j := r.Energy.Get(rt); math.Abs(j-sum.Get(rt)) > invariantEps {
				return fmt.Errorf("energy not conserved for %v: hub-wide %g J, components sum to %g J", rt, j, sum.Get(rt))
			}
		}
		if j := sum.Get(rt); j != 0 && math.Abs(j-r.Energy.Get(rt)) > invariantEps {
			return fmt.Errorf("energy not conserved for %v: components %g J, hub-wide %g J", rt, j, r.Energy.Get(rt))
		}
	}

	// Busy-time sanity.
	var ioBusy, cpuCompute, mcuBusy float64
	for rt, d := range r.CPUBusy {
		if d < 0 {
			return fmt.Errorf("negative CPU busy %v for %v", d, rt)
		}
		if rt == energy.Interrupt || rt == energy.DataTransfer {
			ioBusy += d.Seconds()
		} else {
			cpuCompute += d.Seconds()
		}
	}
	for rt, d := range r.MCUBusy {
		if d < 0 {
			return fmt.Errorf("negative MCU busy %v for %v", d, rt)
		}
		mcuBusy += d.Seconds()
	}
	dur := r.Duration.Seconds()
	if len(r.CPUBusy) > 0 && ioBusy > dur+invariantEps {
		return fmt.Errorf("CPU IO lane busy %.9fs exceeds run duration %.9fs", ioBusy, dur)
	}
	if len(r.MCUBusy) > 0 && mcuBusy > dur+invariantEps {
		return fmt.Errorf("single-core MCU busy %.9fs exceeds run duration %.9fs", mcuBusy, dur)
	}

	// Output timeline sanity.
	faulty := r.faulty()
	outputs := 0
	for id, outs := range r.Outputs {
		seen := make(map[int]bool, len(outs))
		for i, wr := range outs {
			outputs++
			if wr.Window < 0 {
				return fmt.Errorf("%s: negative window index %d", id, wr.Window)
			}
			if wr.At < 0 || wr.At.Duration() > r.Duration {
				return fmt.Errorf("%s window %d: result at %v outside run [0, %v]", id, wr.Window, wr.At, r.Duration)
			}
			if seen[wr.Window] {
				return fmt.Errorf("%s: window %d reported twice", id, wr.Window)
			}
			seen[wr.Window] = true
			if !faulty && i > 0 {
				prev := outs[i-1]
				if wr.Window < prev.Window || wr.At < prev.At {
					return fmt.Errorf("%s: fault-free windows out of order (%d@%v after %d@%v)",
						id, wr.Window, wr.At, prev.Window, prev.At)
				}
			}
		}
	}
	if r.QoSViolations < 0 || r.QoSViolations > outputs {
		return fmt.Errorf("QoS violations %d outside [0, %d outputs]", r.QoSViolations, outputs)
	}

	// Sample ledger: planned + re-collected reads all end up somewhere. The
	// counters are checked in a fixed order, so the first negative one in
	// this list is the one reported.
	for _, c := range [...]struct {
		name string
		n    int
	}{
		{"ScheduledSamples", r.ScheduledSamples}, {"DeliveredSamples", r.DeliveredSamples},
		{"DroppedSamples", r.DroppedSamples}, {"RecollectedSamples", r.RecollectedSamples},
		{"DownshiftSkipped", r.DownshiftSkipped}, {"ReadRetries", r.ReadRetries},
		{"Interrupts", r.Interrupts}, {"BytesTransferred", r.BytesTransferred},
		{"LinkRetransmits", r.LinkRetransmits}, {"LinkAbortedTransfers", r.LinkAbortedTransfers},
		{"MCUCrashes", r.MCUCrashes}, {"RadioDroppedBytes", r.RadioDroppedBytes},
	} {
		if c.n < 0 {
			return fmt.Errorf("negative counter %s = %d", c.name, c.n)
		}
	}
	if in, out := r.ScheduledSamples+r.RecollectedSamples,
		r.DeliveredSamples+r.DroppedSamples+r.DownshiftSkipped; in != out {
		return fmt.Errorf("sample ledger broken: %d scheduled+recollected, %d delivered+dropped+skipped", in, out)
	}

	// Battery ledger sanity (power-armed runs only).
	if r.BatteryCapacityJ > 0 {
		if r.BatterySoCJ < -invariantEps || r.BatterySoCJ > r.BatteryCapacityJ+invariantEps {
			return fmt.Errorf("battery SoC %g J outside [0, %g J]", r.BatterySoCJ, r.BatteryCapacityJ)
		}
		if r.BatteryMinSoCJ < -invariantEps || r.BatteryMinSoCJ > r.BatterySoCJ+invariantEps {
			return fmt.Errorf("battery min SoC %g J outside [0, final %g J]", r.BatteryMinSoCJ, r.BatterySoCJ)
		}
		if r.BatteryHarvestJ < 0 || r.Brownouts < 0 || r.BrownoutTime < 0 || r.BatterySurvival < 0 {
			return fmt.Errorf("negative battery counter (harvest %g J, %d brownouts, %v down, %v survival)",
				r.BatteryHarvestJ, r.Brownouts, r.BrownoutTime, r.BatterySurvival)
		}
		if r.Brownouts == 0 && r.BrownoutTime != 0 {
			return fmt.Errorf("brownout time %v with no brownouts", r.BrownoutTime)
		}
	}
	return nil
}

// faulty reports whether anything happened that may legitimately reorder
// window completions (retries, drops, crashes, re-collection, link loss).
func (r *RunResult) faulty() bool {
	return r.ReadRetries > 0 || r.DroppedSamples > 0 || r.MCUCrashes > 0 ||
		r.RecollectedSamples > 0 || r.DownshiftSkipped > 0 ||
		r.LinkCorruptFrames > 0 || r.LinkLostFrames > 0 || r.LinkAbortedTransfers > 0 ||
		r.RadioDroppedBursts > 0 || r.RadioDeferred > 0 || r.SlowReads > 0 ||
		r.Brownouts > 0
}
