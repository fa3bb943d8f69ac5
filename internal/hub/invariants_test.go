package hub

import (
	"strings"
	"testing"
	"time"

	"iothub/internal/apps"
	"iothub/internal/energy"
	"iothub/internal/sim"
)

// checkableResult is a small hand-built RunResult that satisfies every
// invariant; the violation cases below each break exactly one.
func checkableResult() *RunResult {
	return &RunResult{
		Energy: energy.Breakdown{energy.Idle: 2, energy.DataTransfer: 1},
		PerComponent: map[string]energy.Breakdown{
			"cpu": {energy.Idle: 1.5, energy.DataTransfer: 1},
			"mcu": {energy.Idle: 0.5},
		},
		CPUBusy: map[energy.Routine]time.Duration{
			energy.Interrupt:    300 * time.Millisecond,
			energy.DataTransfer: 400 * time.Millisecond,
		},
		MCUBusy: map[energy.Routine]time.Duration{
			energy.DataCollection: time.Second,
		},
		Outputs: map[apps.ID][]WindowResult{
			apps.StepCounter: {
				{Window: 0, At: sim.Time(time.Second)},
				{Window: 1, At: sim.Time(2 * time.Second)},
			},
		},
		ScheduledSamples: 10,
		DeliveredSamples: 10,
		QoSViolations:    1,
		Duration:         2 * time.Second,
		Window:           time.Second,
	}
}

func TestCheckInvariantsAcceptsConsistentResult(t *testing.T) {
	if err := checkableResult().CheckInvariants(); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
}

func TestCheckInvariantsViolations(t *testing.T) {
	cases := map[string]struct {
		mutate func(*RunResult)
		want   string
	}{
		"energy appears from nowhere": {
			func(r *RunResult) { r.Energy[energy.Idle] = 5 },
			"energy not conserved",
		},
		"component energy vanishes": {
			func(r *RunResult) { r.PerComponent["cpu"][energy.DataTransfer] = 0.5 },
			"energy not conserved",
		},
		"negative component energy": {
			func(r *RunResult) {
				r.PerComponent["mcu"][energy.Idle] = -0.5
				r.PerComponent["cpu"][energy.Idle] = 2.5
			},
			"negative",
		},
		"IO lane over duration": {
			func(r *RunResult) { r.CPUBusy[energy.Interrupt] = 3 * time.Second },
			"IO lane",
		},
		"negative MCU busy": {
			func(r *RunResult) { r.MCUBusy[energy.DataCollection] = -time.Second },
			"negative MCU busy",
		},
		"MCU busier than the run": {
			func(r *RunResult) { r.MCUBusy[energy.AppCompute] = 90 * time.Minute },
			"MCU busy",
		},
		"window reported twice": {
			func(r *RunResult) { r.Outputs[apps.StepCounter][1].Window = 0 },
			"twice",
		},
		"output beyond the run": {
			func(r *RunResult) { r.Outputs[apps.StepCounter][1].At = sim.Time(5 * time.Second) },
			"outside run",
		},
		"fault-free outputs out of order": {
			func(r *RunResult) {
				outs := r.Outputs[apps.StepCounter]
				outs[0], outs[1] = outs[1], outs[0]
			},
			"out of order",
		},
		"sample ledger broken": {
			func(r *RunResult) { r.DeliveredSamples = 9 },
			"ledger",
		},
		"negative counter": {
			func(r *RunResult) { r.LinkRetransmits = -1 },
			"negative counter",
		},
		"QoS violations exceed outputs": {
			func(r *RunResult) { r.QoSViolations = 5 },
			"QoS violations",
		},
	}
	for name, tc := range cases {
		res := checkableResult()
		tc.mutate(res)
		err := res.CheckInvariants()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", name, err, tc.want)
		}
	}
}

// TestCheckInvariantsToleratesFaultyReordering: with recorded faults, late
// re-collected windows may legitimately finish out of order.
func TestCheckInvariantsToleratesFaultyReordering(t *testing.T) {
	res := checkableResult()
	outs := res.Outputs[apps.StepCounter]
	outs[0], outs[1] = outs[1], outs[0]
	res.MCUCrashes = 1
	if err := res.CheckInvariants(); err != nil {
		t.Fatalf("faulty run's reordered outputs rejected: %v", err)
	}
}

// TestCheckInvariantsNamesFirstNegativeCounter: with two counters negative,
// every call reports the same one, the first in the checked list.
func TestCheckInvariantsNamesFirstNegativeCounter(t *testing.T) {
	res := checkableResult()
	res.Interrupts = -1
	res.MCUCrashes = -1
	for i := 0; i < 100; i++ {
		err := res.CheckInvariants()
		if err == nil || err.Error() != "negative counter Interrupts = -1" {
			t.Fatalf("call %d: err = %v, want negative counter Interrupts = -1", i, err)
		}
	}
}
