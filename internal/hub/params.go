package hub

import (
	"fmt"
	"time"

	"iothub/internal/cpu"
	"iothub/internal/edge"
	"iothub/internal/link"
	"iothub/internal/mcu"
	"iothub/internal/obs"
	"iothub/internal/radio"
)

// Params bundles the full hardware calibration of the hub (DESIGN.md §4).
type Params struct {
	CPU  cpu.Params
	MCU  mcu.Params
	Link link.Params
	// CPUIrqHandle is the CPU time to field one MCU interrupt: priority
	// check, acknowledge, context switch (Fig. 8: 1000 interrupts = 48 ms).
	CPUIrqHandle time.Duration
	// ResultBytes is the size of an offloaded app's end-to-end result
	// notification to the CPU. Bulk upstream payloads leave through the
	// MCU's own radio (the ESP8266 is a WiFi part), so only the summary
	// crosses the link under COM.
	ResultBytes int
	// DMA models the paper's §IV-F future-work hardware: a DMA engine on
	// the link, so transfers cost the CPU only DMASetup instead of staying
	// busy for the whole wire time. The MCU and wire still do the work.
	DMA bool
	// DMASetup is the CPU cost to program one DMA descriptor.
	DMASetup time.Duration
	// MainRadio is the main board's WiFi uplink; on-CPU apps push their
	// window outputs through it.
	MainRadio radio.Params
	// MCURadio is the ESP8266's integrated radio; offloaded apps uplink
	// directly from the MCU (§III-B4's "system wide" benefit).
	MCURadio radio.Params
	// UplinkDriverCPU is the host-side driver cost to hand one burst to its
	// radio (the NIC DMAs the frames).
	UplinkDriverCPU time.Duration
	// Edge calibrates the upload-compute tier (container capacity, init
	// warmup, RTT, objective weights); only consulted when a policy places
	// a computation OnEdge.
	Edge edge.Params
	// Obs is the run's observability recorder (counters, spans, flight ring).
	// Nil — the default — disables the layer at the cost of one branch per
	// instrumentation point; the recorder only observes, never schedules, so
	// simulation output is identical either way.
	Obs *obs.Recorder `json:"-"`
}

// DefaultParams returns the Raspberry Pi 3B + ESP8266 calibration.
func DefaultParams() Params {
	return Params{
		CPU:             cpu.DefaultParams(),
		MCU:             mcu.DefaultParams(),
		Link:            link.DefaultParams(),
		CPUIrqHandle:    48 * time.Microsecond,
		ResultBytes:     32,
		DMASetup:        10 * time.Microsecond,
		MainRadio:       radio.DefaultMainParams(),
		MCURadio:        radio.DefaultMCUParams(),
		UplinkDriverCPU: 50 * time.Microsecond,
		Edge:            edge.DefaultParams(),
	}
}

// Validate checks the calibration for obvious inconsistencies.
func (p Params) Validate() error {
	if p.CPUIrqHandle <= 0 {
		return fmt.Errorf("hub: CPUIrqHandle %v", p.CPUIrqHandle)
	}
	if p.ResultBytes <= 0 {
		return fmt.Errorf("hub: ResultBytes %d", p.ResultBytes)
	}
	if err := p.CPU.Validate(); err != nil {
		return fmt.Errorf("hub: %w", err)
	}
	if err := p.MCU.Validate(); err != nil {
		return fmt.Errorf("hub: %w", err)
	}
	if err := p.Link.Validate(); err != nil {
		return fmt.Errorf("hub: %w", err)
	}
	if err := p.MainRadio.Validate(); err != nil {
		return fmt.Errorf("hub: main radio: %w", err)
	}
	if err := p.MCURadio.Validate(); err != nil {
		return fmt.Errorf("hub: mcu radio: %w", err)
	}
	if p.UplinkDriverCPU < 0 {
		return fmt.Errorf("hub: negative UplinkDriverCPU")
	}
	if err := p.Edge.Validate(); err != nil {
		return fmt.Errorf("hub: edge: %w", err)
	}
	return nil
}
