// Package power models the supply side of the hub's energy story: a finite
// battery (capacity, voltage, usable-joules derate, leakage) and
// deterministic harvester traces — solar and RF profiles over virtual time.
// The demand side stays where it always was, in internal/energy's tracks;
// the hub's ledger (internal/hub power runtime, DESIGN.md §14) couples the
// two so state of charge evolves alongside consumption as real DES events.
//
// Everything here is pure data + arithmetic: no scheduler, no clock, no
// randomness. A trace compiled twice for the same horizon yields the same
// steps, which is what makes battery-armed runs seeded-replay identical.
package power

import "fmt"

// DefaultDerate discounts rated capacity for aging/temperature when the
// battery does not specify its own fraction. The post-hoc core.Lifetime
// estimate takes a Battery too, so the live ledger and the estimate can
// never disagree.
const DefaultDerate = 0.85

// Battery is the energy store powering a hub run. The zero value is "no
// battery": mains power, infinite budget — the asymptote every pre-power
// result in this repo was produced under.
type Battery struct {
	// CapacityMAh is the rated capacity in milliamp-hours. Zero disarms
	// the battery entirely.
	CapacityMAh float64 `json:"capacityMah,omitempty"`
	// Volts is the nominal pack voltage.
	Volts float64 `json:"volts,omitempty"`
	// DerateFraction discounts usable capacity for aging/temperature
	// (0 = use DefaultDerate).
	DerateFraction float64 `json:"derate,omitempty"`
	// LeakageW is the pack's self-discharge draw, drained whether or not
	// the hub does anything. It is metered on a dedicated "battery" energy
	// track so PerComponent splits it from device demand.
	LeakageW float64 `json:"leakageW,omitempty"`
	// InitialSoC is the starting state of charge as a fraction of usable
	// joules (0 = start full).
	InitialSoC float64 `json:"initialSoc,omitempty"`
}

// Armed reports whether the battery participates in a run at all.
func (b Battery) Armed() bool { return b.CapacityMAh > 0 }

// UsableJoules is the battery's deliverable energy: capacity × voltage ×
// derate. This is the one place that math lives.
func (b Battery) UsableJoules() (float64, error) {
	if b.CapacityMAh <= 0 || b.Volts <= 0 {
		return 0, fmt.Errorf("power: battery %v mAh @ %v V", b.CapacityMAh, b.Volts)
	}
	derate := b.DerateFraction
	if derate == 0 {
		derate = DefaultDerate
	}
	if derate <= 0 || derate > 1 {
		return 0, fmt.Errorf("power: derate %v outside (0, 1]", derate)
	}
	return b.CapacityMAh / 1000 * 3600 * b.Volts * derate, nil
}

// Validate checks an armed battery's calibration; the zero value passes.
func (b Battery) Validate() error {
	if !b.Armed() {
		return nil
	}
	if _, err := b.UsableJoules(); err != nil {
		return err
	}
	if b.LeakageW < 0 {
		return fmt.Errorf("power: leakage %v W, want >= 0", b.LeakageW)
	}
	if b.InitialSoC < 0 || b.InitialSoC > 1 {
		return fmt.Errorf("power: initial SoC %v outside [0, 1]", b.InitialSoC)
	}
	return nil
}
