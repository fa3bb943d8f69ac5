// Package core is the paper's contribution packaged as a reusable library:
// given workload characterizations (Figure 6) and the hub's hardware
// calibration, it decides which energy optimization applies to which app —
// the light/heavy classification of §III-B, the Batching+COM (BCOM)
// partitioning of §IV-E3, and a first-order analytic estimate of the savings
// each scheme yields (the reasoning of §III-A/§III-B4, checked against the
// full simulator by the test suite).
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"iothub/internal/apps"
	"iothub/internal/hub"
	"iothub/internal/sensor"
)

// Classification explains whether one workload can be offloaded to the MCU
// and why (the "MCU-friendly" analysis of §III-B1/§IV-C).
type Classification struct {
	ID          apps.ID
	Offloadable bool
	// Reasons lists the failed gates when not offloadable.
	Reasons []string

	// MemoryNeedBytes is the MCU-resident footprint: heap + stack + the
	// widest sensor sample as a streaming buffer.
	MemoryNeedBytes int
	// MCUComputePerWindow is the app-specific computation time on the MCU.
	MCUComputePerWindow time.Duration
	// MCUBusyPerWindow adds the per-sample driver work — the app's total
	// claim on the MCU per QoS window.
	MCUBusyPerWindow time.Duration
	// BatchBytesPerWindow is the MCU RAM a full-window batch needs.
	BatchBytesPerWindow int
}

// Classify evaluates the offload gates for one workload.
func Classify(spec apps.Spec, params hub.Params) (Classification, error) {
	if err := spec.Validate(); err != nil {
		return Classification{}, err
	}
	if err := params.Validate(); err != nil {
		return Classification{}, err
	}
	c := Classification{ID: spec.ID}

	var reads time.Duration
	for _, u := range spec.Sensors {
		sp, err := sensor.Lookup(u.Sensor)
		if err != nil {
			return Classification{}, err
		}
		if !sp.MCUFriendly {
			c.Reasons = append(c.Reasons,
				fmt.Sprintf("sensor %s is MCU-unfriendly", u.Sensor))
		}
		n := sp.SamplesPerWindow(spec.Window)
		reads += time.Duration(n) * params.MCU.PerReadCPU
	}
	need, err := spec.MCUFootprint()
	if err != nil {
		return Classification{}, err
	}
	c.MemoryNeedBytes = need

	bytes, err := spec.DataBytesPerWindow()
	if err != nil {
		return Classification{}, err
	}
	c.BatchBytesPerWindow = bytes

	fullRate := spec.MIPS * spec.Window.Seconds() / params.CPU.MIPS
	c.MCUComputePerWindow = time.Duration(
		fullRate * float64(time.Second) * params.MCU.BaseSlowdown * penalty(spec.FPPenalty))
	c.MCUBusyPerWindow = c.MCUComputePerWindow + reads

	if spec.Heavy {
		c.Reasons = append(c.Reasons, "declared heavy-weight")
	}
	if c.MemoryNeedBytes > params.MCU.UsableRAM() {
		c.Reasons = append(c.Reasons, fmt.Sprintf(
			"footprint %d B exceeds MCU RAM %d B", c.MemoryNeedBytes, params.MCU.UsableRAM()))
	}
	if c.MCUBusyPerWindow > spec.Window {
		c.Reasons = append(c.Reasons, fmt.Sprintf(
			"MCU needs %v per %v window (QoS violation)", c.MCUBusyPerWindow, spec.Window))
	}
	c.Offloadable = len(c.Reasons) == 0
	return c, nil
}

func penalty(p float64) float64 {
	if p < 1 {
		return 1
	}
	return p
}

// ErrNothingToPlan is returned when PlanBCOM is called without apps.
var ErrNothingToPlan = errors.New("core: no apps to plan")

// Plan is the outcome of partitioning a concurrent app mix.
type Plan struct {
	// Scheme is the recommended hub scheme: COM when everything offloads,
	// Batching when nothing does, BCOM for a mix.
	Scheme hub.Scheme
	// Assign is the per-app mode map, directly usable as hub.Config.Assign
	// when Scheme is BCOM.
	Assign map[apps.ID]hub.Mode
	// Classifications records the per-app gate analysis.
	Classifications map[apps.ID]Classification
}

// PlanBCOM partitions a concurrent mix: offloadable apps go to the MCU as
// long as the MCU's aggregate time budget holds (offloaded apps time-share
// one binary, §III-B3), everything else batches. Apps are considered in
// descending per-window sample count — the apps whose interrupt traffic
// hurts the CPU most claim MCU capacity first.
func PlanBCOM(list []apps.App, params hub.Params) (*Plan, error) {
	if len(list) == 0 {
		return nil, ErrNothingToPlan
	}
	plan := &Plan{
		Assign:          make(map[apps.ID]hub.Mode, len(list)),
		Classifications: make(map[apps.ID]Classification, len(list)),
	}
	type cand struct {
		spec apps.Spec
		cls  Classification
	}
	var cands []cand
	window := list[0].Spec().Window
	for _, a := range list {
		spec := a.Spec()
		cls, err := Classify(spec, params)
		if err != nil {
			return nil, err
		}
		plan.Classifications[spec.ID] = cls
		cands = append(cands, cand{spec: spec, cls: cls})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		ni, _ := cands[i].spec.InterruptsPerWindow()
		nj, _ := cands[j].spec.InterruptsPerWindow()
		return ni > nj
	})

	// The MCU must also keep servicing the batched apps' reads; reserve
	// their driver time before admitting offloads.
	budget := window
	for _, c := range cands {
		if !c.cls.Offloadable {
			budget -= c.cls.MCUBusyPerWindow - c.cls.MCUComputePerWindow
		}
	}
	maxMem := 0
	offloaded, batched := 0, 0
	for _, c := range cands {
		fits := c.cls.Offloadable &&
			c.cls.MCUBusyPerWindow <= budget &&
			c.cls.MemoryNeedBytes <= params.MCU.UsableRAM()
		if fits {
			plan.Assign[c.spec.ID] = hub.Offloaded
			budget -= c.cls.MCUBusyPerWindow
			if c.cls.MemoryNeedBytes > maxMem {
				maxMem = c.cls.MemoryNeedBytes
			}
			offloaded++
		} else {
			plan.Assign[c.spec.ID] = hub.Batched
			batched++
		}
	}
	switch {
	case batched == 0:
		plan.Scheme = hub.COM
	case offloaded == 0:
		plan.Scheme = hub.Batching
	default:
		plan.Scheme = hub.BCOM
	}
	return plan, nil
}

// Savings is a first-order analytic estimate of per-window energy under each
// scheme, derived from the calibration constants the way §III-A reasons
// about the step counter. The simulator is the ground truth; these estimates
// exist for capacity planning and are validated against it within tolerance
// by the test suite.
type Savings struct {
	BaselineJoules float64
	BatchingJoules float64
	COMJoules      float64
}

// BatchingSaving is the estimated fractional saving of Batching vs Baseline.
func (s Savings) BatchingSaving() float64 { return 1 - s.BatchingJoules/s.BaselineJoules }

// COMSaving is the estimated fractional saving of COM vs Baseline.
func (s Savings) COMSaving() float64 { return 1 - s.COMJoules/s.BaselineJoules }

// Estimate computes the analytic per-window energies for a single app.
func Estimate(spec apps.Spec, params hub.Params) (Savings, error) {
	cls, err := Classify(spec, params)
	if err != nil {
		return Savings{}, err
	}
	window := spec.Window.Seconds()

	// Shared quantities.
	var ioCPU, reads, sensorE float64
	var bytes int
	minPeriod := spec.Window
	for _, u := range spec.Sensors {
		sp, err := sensor.Lookup(u.Sensor)
		if err != nil {
			return Savings{}, err
		}
		n := sp.SamplesPerWindow(spec.Window)
		b, err := u.SampleBytes()
		if err != nil {
			return Savings{}, err
		}
		bytes += n * b
		per := params.CPUIrqHandle.Seconds() +
			params.Link.FrameOverhead.Seconds() + float64(b)/params.Link.BytesPerSec
		ioCPU += float64(n) * per
		reads += float64(n) * params.MCU.PerReadCPU.Seconds()
		sensorE += sp.PowerTyp * sp.ReadTime.Seconds() * float64(n)
		if p := sp.SamplePeriod(spec.Window); p < minPeriod {
			minPeriod = p
		}
	}
	compute, err := spec.CPUComputeTime(params.CPU.MIPS)
	if err != nil {
		return Savings{}, err
	}
	mcuIdleE := params.MCU.IdleW * window
	collectE := reads*params.MCU.ActiveW + sensorE

	// Baseline: CPU busy for interrupts+transfers+compute; gaps stall at
	// WFI when below the break-even, sleep otherwise.
	busy := ioCPU + compute.Seconds()
	if busy > window {
		busy = window
	}
	gap := window - busy
	gapW := params.CPU.WFIW
	if minPeriod > params.CPU.SleepBreakEven() {
		gapW = params.CPU.SleepW
	}
	baseline := busy*params.CPU.ActiveW + gap*gapW +
		ioCPU*params.MCU.ActiveW + collectE + mcuIdleE +
		wireEnergy(bytes, params)

	// Batching: one bulk transfer, CPU suspended while the MCU batches.
	bulk := params.Link.FrameOverhead.Seconds() + float64(bytes)/params.Link.BytesPerSec
	busyB := bulk + params.CPUIrqHandle.Seconds() + compute.Seconds()
	if busyB > window {
		busyB = window
	}
	batching := busyB*params.CPU.ActiveW + (window-busyB)*params.CPU.SleepW +
		bulk*params.MCU.ActiveW + collectE + mcuIdleE + wireEnergy(bytes, params)

	// COM: MCU computes, CPU deep-sleeps, only a result notification moves.
	note := params.CPUIrqHandle.Seconds() +
		params.Link.FrameOverhead.Seconds() + float64(params.ResultBytes)/params.Link.BytesPerSec
	com := note*params.CPU.ActiveW + (window-note)*params.CPU.DeepSleepW +
		cls.MCUComputePerWindow.Seconds()*params.MCU.ActiveW + collectE + mcuIdleE +
		wireEnergy(params.ResultBytes, params)

	return Savings{BaselineJoules: baseline, BatchingJoules: batching, COMJoules: com}, nil
}

func wireEnergy(bytes int, params hub.Params) float64 {
	return float64(bytes) / params.Link.BytesPerSec * params.Link.WireW
}
