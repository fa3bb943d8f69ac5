package hub

import (
	"fmt"
	"strconv"
	"strings"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/faults"
	"iothub/internal/obs"
	"iothub/internal/power"
	"iothub/internal/scheme"
)

// Scenario is a self-contained, serializable description of one hub run: the
// value type fleet sweeps are made of. Unlike Config it holds no live App
// instances — apps are named by Table II ID and instantiated from Seed at
// run time, so the same Scenario value re-runs bit-for-bit anywhere (in a
// fleet worker, from a journal, or standalone via RunScenario).
type Scenario struct {
	// Apps lists the concurrent workloads by Table II ID ("A2", "A11", ...).
	Apps []apps.ID `json:"apps"`
	// Scheme is the execution scheme. BCOM scenarios need the planner and
	// are executed by fleet.RunScenario (hub cannot depend on the planner).
	Scheme Scheme `json:"scheme"`
	// Windows is the number of QoS windows to simulate.
	Windows int `json:"windows"`
	// Seed drives the apps' synthetic signals (and, via the fleet engine, is
	// derived deterministically from the fleet seed and scenario index).
	Seed int64 `json:"seed"`
	// QoSMult scales every sensor's sampling rate (0 or 1 = paper defaults);
	// see apps.ScaleRates for the clamping rules.
	QoSMult float64 `json:"qos,omitempty"`
	// Faults is a fault schedule in faults.ParseSchedule's compact text form
	// ("" = fault-free run).
	Faults string `json:"faults,omitempty"`
	// Assign is an explicit per-app mode partition for schemes that require
	// one. A Hybrid scenario carries the optimizer-searched composition here;
	// a BCOM scenario usually leaves it nil and lets fleet.RunScenario supply
	// the planner's partition. Serialized by mode name, keys sorted, so
	// scenario JSON stays canonical.
	Assign map[apps.ID]Mode `json:"assign,omitempty"`
	// SkipAppCompute skips the real user-level computations (energy/timing
	// are still modeled) — the usual setting for pure-energy sweeps.
	SkipAppCompute bool `json:"skipCompute,omitempty"`
	// Meter arms an in-situ measurement instrument for the run (DESIGN.md
	// §13); nil is the free external meter, today's asymptote. Serialized so
	// fleet sweeps and the optimizer can sweep sampling rates.
	Meter *obs.MeterModel `json:"meter,omitempty"`
	// Power arms a finite battery + deterministic harvest supply for the run
	// (DESIGN.md §14); nil is mains power, today's asymptote. Serialized so
	// fleet sweeps can grid over supply scenarios.
	Power *power.Supply `json:"power,omitempty"`
	// Tag optionally overrides the scenario's aggregation label; empty means
	// the fleet aggregates this run under its scheme name.
	Tag string `json:"tag,omitempty"`
}

// Label is the scenario's human-readable identity in fleet progress and
// error reports: "A11+A6/BCOM/w3/q0.5" (+ "/chaos" when faults are injected).
func (s Scenario) Label() string {
	var b strings.Builder
	for i, id := range s.Apps {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(string(id))
	}
	fmt.Fprintf(&b, "/%v/w%d", s.Scheme, s.Windows)
	if s.QoSMult != 0 && s.QoSMult != 1 {
		b.WriteString("/q")
		b.WriteString(strconv.FormatFloat(s.QoSMult, 'g', -1, 64))
	}
	if s.Faults != "" {
		b.WriteString("/chaos")
	}
	if s.Meter != nil && s.Meter.Armed() {
		b.WriteString("/m")
		b.WriteString(strconv.FormatFloat(s.Meter.RateHz, 'g', -1, 64))
	}
	if s.Power != nil && s.Power.Armed() {
		b.WriteString("/b")
		b.WriteString(strconv.FormatFloat(s.Power.Battery.CapacityMAh, 'g', -1, 64))
	}
	return b.String()
}

// Config materializes the scenario: apps are instantiated from the catalog
// with the scenario seed, rates are scaled, and the fault schedule is
// compiled. BCOM scenarios come back with a nil Assign — the caller supplies
// the planner's partition (fleet.RunScenario does). A scheme with no row in
// the scheme table is refused here, since it could not be written back as
// scenario JSON.
func (s Scenario) Config() (Config, error) {
	if len(s.Apps) == 0 {
		return Config{}, fmt.Errorf("%w: scenario lists no apps", ErrConfig)
	}
	if _, err := scheme.Lookup(s.Scheme); err != nil {
		return Config{}, err
	}
	cfg := Config{
		Scheme:         s.Scheme,
		Windows:        s.Windows,
		Assign:         s.Assign,
		SkipAppCompute: s.SkipAppCompute,
		Meter:          s.Meter,
		Power:          s.Power,
	}
	for _, id := range s.Apps {
		a, err := catalog.New(id, s.Seed)
		if err != nil {
			return Config{}, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		if s.QoSMult != 0 && s.QoSMult != 1 {
			if a, err = apps.ScaleRates(a, s.QoSMult); err != nil {
				return Config{}, fmt.Errorf("%w: %v", ErrConfig, err)
			}
		}
		cfg.Apps = append(cfg.Apps, a)
	}
	if s.Faults != "" {
		schedule, err := faults.ParseSchedule(s.Faults)
		if err != nil {
			return Config{}, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		cfg.FaultSchedule = schedule
	}
	return cfg, nil
}

// RunScenario materializes and executes the scenario. Schemes that require
// an explicit partition (BCOM, Hybrid) must carry one in Assign to run here.
// A BCOM scenario without one needs the internal/core planner, which sits
// above this package — use fleet.RunScenario for it.
func RunScenario(s Scenario) (*RunResult, error) {
	return NewArena().RunScenario(s)
}
