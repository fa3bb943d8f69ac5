// Package hub composes the simulated IoT platform — CPU board, MCU board,
// link, and sensors — and executes workloads under the paper's five
// execution schemes:
//
//   - Baseline: one MCU→CPU interrupt and transfer per sensor sample; the
//     CPU stalls between samples (gaps are below the sleep break-even).
//   - Batching: the MCU accumulates a whole window in its RAM and raises one
//     interrupt; the CPU suspends while the MCU senses. If concurrent
//     batches exceed the MCU's free RAM, a batch flushes early (more
//     interrupts, still far fewer than Baseline).
//   - COM: the app runs on the MCU; per-sample interrupts and transfers
//     disappear and only a small result notification crosses the link (bulk
//     upstream traffic leaves through the MCU's own radio). The CPU
//     power-gates into deep sleep.
//   - BCOM: COM for the offloadable apps, Batching for the heavy ones.
//   - BEAM: the prior work's optimization — concurrent apps sharing a
//     sensor share one read, one interrupt, and one transfer per sample.
//
// Functional note: under BEAM the physical hub would deliver identical
// sample values to all sharing apps; the simulator keeps each app's own
// synthetic source for its computation (the energy model only depends on
// sample counts and sizes, which are shared exactly as in BEAM).
package hub

import (
	"fmt"
	"time"

	"iothub/internal/apps"
	"iothub/internal/energy"
	"iothub/internal/faults"
	"iothub/internal/obs"
	"iothub/internal/power"
	"iothub/internal/scheme"
	"iothub/internal/sim"
)

// Scheme selects the execution scheme for a run. The type (with its String,
// Parse, and text-marshaling behavior) lives in internal/scheme, where every
// scheme is a row of the scheme table naming its per-app modes; the aliases
// here keep hub.Baseline etc. as the stable public spelling.
type Scheme = scheme.Scheme

// Execution schemes (§III, §IV).
const (
	Baseline = scheme.Baseline
	Batching = scheme.Batching
	COM      = scheme.COM
	BCOM     = scheme.BCOM
	BEAM     = scheme.BEAM
	Hybrid   = scheme.Hybrid
	ECOM     = scheme.ECOM
)

// ParseScheme resolves a case-insensitive scheme name against the scheme
// table ("baseline", "batching", "com", "bcom", "beam", "hybrid", "ecom") —
// the CLI-facing inverse of Scheme.String.
func ParseScheme(name string) (Scheme, error) { return scheme.Parse(name) }

// Mode is the per-app execution decision inside a scheme: a row of
// internal/scheme's policy table, whose Policy holds one verdict per routine
// (Mode.Policy).
type Mode = scheme.Mode

// Per-app modes.
const (
	// PerSample interrupts the CPU for every sensor sample (Baseline/BEAM).
	PerSample = scheme.PerSample
	// Batched buffers a window at the MCU and transfers in bulk.
	Batched = scheme.Batched
	// Offloaded runs the app-specific computation on the MCU.
	Offloaded = scheme.Offloaded
	// Uploaded buffers a window at the MCU, then uploads it through the
	// main radio and computes in the app's edge container.
	Uploaded = scheme.Uploaded
)

// Config describes one simulation run.
type Config struct {
	// Apps execute concurrently for the whole run.
	Apps []apps.App
	// Scheme picks the execution scheme. BCOM and Hybrid require Assign
	// (the internal/core planner or the internal/optimizer plan produces
	// it); for the other schemes Assign is derived from the scheme's table
	// row and must be nil.
	Scheme Scheme
	// Assign overrides the per-app mode (BCOM and Hybrid require it).
	Assign map[apps.ID]Mode
	// Windows is how many QoS windows to simulate (>= 1).
	Windows int
	// Params is the hardware calibration; zero value means DefaultParams.
	Params *Params
	// TracePower records CPU and MCU power-state timelines (Figure 5).
	TracePower bool
	// SkipAppCompute skips executing the real user-level computations
	// (energy/timing are still modeled). Useful for pure-energy sweeps.
	SkipAppCompute bool
	// FaultSchedule optionally injects hardware-layer faults — link frame
	// corruption/loss, MCU crashes, sensor stuck/slow modes, failed sensor
	// reads (§II-B Task I: the availability check fails, and the MCU re-reads
	// once or drops the sample), radio outages — from a deterministic
	// seedable schedule (see internal/faults). A nil or empty schedule leaves
	// the run byte-identical to a fault-free one.
	FaultSchedule *faults.Schedule
	// Resilience tunes how the hub absorbs injected faults (retry policy,
	// watchdog, degradation ladder, buffers). Nil means DefaultResilience
	// when FaultSchedule is active, and no resilience machinery otherwise.
	Resilience *ResiliencePolicy
	// Meter is the in-situ measurement instrument (DESIGN.md §13). Unlike
	// Params.Obs it is a physical model, not a software probe: when armed,
	// its sampling runs as scheduled DES events on the MCU and costs real
	// energy. Nil, or any disarmed model such as the free external bench
	// meter, leaves runs byte-identical to unobserved ones, counters
	// included.
	Meter *obs.MeterModel
	// Power is the supply side of the ledger (DESIGN.md §14): a finite
	// battery plus a deterministic harvest trace, settled as scheduled DES
	// events against the meter's demand. Nil, or a supply without a battery,
	// is mains power — the golden-corpus asymptote.
	Power *power.Supply
}

// WindowResult is one app's output for one window.
type WindowResult struct {
	Window int
	// At is the virtual time the result became available.
	At sim.Time
	// Result is the app's real output (zero when SkipAppCompute).
	Result apps.Result
}

// RunResult aggregates a simulation run.
type RunResult struct {
	// Scheme and Modes record what actually executed.
	Scheme Scheme
	Modes  map[apps.ID]Mode

	// Energy is the hub-wide per-routine energy in joules.
	Energy energy.Breakdown
	// PerComponent is each component's per-routine energy ("cpu", "mcu",
	// "link", "sensor:S4:A2", ...).
	PerComponent map[string]energy.Breakdown

	// CPUBusy / MCUBusy are cumulative execution times per routine.
	CPUBusy map[energy.Routine]time.Duration
	MCUBusy map[energy.Routine]time.Duration

	// Interrupts is the number of MCU→CPU interrupts fielded.
	Interrupts int
	// BytesTransferred counts payload bytes crossing the link.
	BytesTransferred int
	// BatchFlushes counts bulk transfers (Batched mode): one per window per
	// app unless MCU RAM pressure forces early flushes.
	BatchFlushes int
	// CPUWakes counts sleep→active transitions.
	CPUWakes int
	// QoSViolations counts window results delivered after the deadline
	// (two window periods after the window closes).
	QoSViolations int
	// ReadRetries counts failed sensor read attempts that were retried
	// (sensor-fail faults, §II-B Task I).
	ReadRetries int
	// DroppedSamples counts reads abandoned after a failed re-read (or
	// skipped while the board was browned out); the affected windows
	// complete with fewer samples.
	DroppedSamples int
	// UpstreamBytes counts window outputs pushed to the network (main-board
	// WiFi for on-CPU apps, the MCU's radio for offloaded ones, the edge's
	// own egress for uploaded ones).
	UpstreamBytes int

	// Edge-tier accounting; all zero (and absent from JSON) for runs with
	// no OnEdge placement, which keeps the pre-edge golden corpus
	// byte-identical.
	// EdgeUploads / EdgeUploadBytes count window uploads shipped to the
	// edge and the payload bytes the main radio carried up.
	EdgeUploads     int `json:",omitempty"`
	EdgeUploadBytes int `json:",omitempty"`
	// EdgeColdStarts counts container init warmups (first window of each
	// uploaded app).
	EdgeColdStarts int `json:",omitempty"`
	// EdgeUpstreamBytes counts window outputs that egressed directly from
	// the edge (a subset of UpstreamBytes).
	EdgeUpstreamBytes int `json:",omitempty"`

	// In-situ meter accounting (DESIGN.md §13); all zero (and absent from
	// JSON) unless a MeterModel is armed, which keeps the unobserved golden
	// corpus byte-identical.
	// MeterSamples / MeterDroppedSamples count readings taken and lost (RAM
	// pressure or MCU reboots); MeterCycles is the MCU cycle budget the
	// instrument consumed; MeterFlushes / MeterBytes count buffer flushes
	// and the record bytes they persisted.
	MeterSamples        int   `json:",omitempty"`
	MeterDroppedSamples int   `json:",omitempty"`
	MeterCycles         int64 `json:",omitempty"`
	MeterFlushes        int   `json:",omitempty"`
	MeterBytes          int   `json:",omitempty"`

	// Battery/harvest ledger accounting (DESIGN.md §14); all zero (and
	// absent from JSON) unless a power.Supply is armed, which keeps the
	// mains-powered golden corpus byte-identical.
	// BatteryCapacityJ is the usable capacity the run started from;
	// BatterySoCJ / BatteryMinSoCJ are the final and lowest state of charge
	// the ledger observed; BatteryHarvestJ is the total harvested income.
	BatteryCapacityJ float64 `json:",omitempty"`
	BatterySoCJ      float64 `json:",omitempty"`
	BatteryMinSoCJ   float64 `json:",omitempty"`
	BatteryHarvestJ  float64 `json:",omitempty"`
	// Brownouts counts SoC-zero power gates; BrownoutTime is the total
	// virtual time the board spent gated; BatterySurvival is the time of
	// the first zero crossing (the run's Duration when charge never ran
	// out — the abl-harvest ranking metric).
	Brownouts       int           `json:",omitempty"`
	BrownoutTime    time.Duration `json:",omitempty"`
	BatterySurvival time.Duration `json:",omitempty"`

	// Sample ledger (run invariant: ScheduledSamples + RecollectedSamples ==
	// DeliveredSamples + DroppedSamples + DownshiftSkipped).
	// ScheduledSamples counts sensor reads the run planned.
	ScheduledSamples int
	// DeliveredSamples counts reads that reached the MCU formatted.
	DeliveredSamples int

	// Fault-injection & resilience accounting. All fields stay zero (and
	// the maps/slices nil) when no FaultSchedule is active.
	// LinkRetransmits counts frames re-sent after corruption or loss.
	LinkRetransmits int
	// LinkCorruptFrames / LinkLostFrames count the failed frames by mode.
	LinkCorruptFrames int
	LinkLostFrames    int
	// LinkAbortedTransfers counts transfers undelivered after the retry
	// policy gave up.
	LinkAbortedTransfers int
	// MCUCrashes counts injected MCU reboots.
	MCUCrashes int
	// RecollectedSamples counts batch-buffered samples lost to a crash and
	// re-read from the sensors.
	RecollectedSamples int
	// SlowReads / StuckSamples count sensor latency and stuck-at faults.
	SlowReads    int
	StuckSamples int
	// RadioDeferred counts uplink bursts that waited out an outage;
	// RadioDroppedBursts/Bytes count what the bounded buffer shed.
	RadioDeferred      int
	RadioDroppedBursts int
	RadioDroppedBytes  int
	// RateDownshifts counts streams that halved their in-window rate after
	// retries threatened the QoS deadline; DownshiftSkipped counts the
	// reads so elided.
	RateDownshifts   int
	DownshiftSkipped int
	// EarlyFlushes counts batch flushes forced by RAM-pressure escalation
	// (FlushAtRAMFrac) rather than by window completion or allocation
	// failure.
	EarlyFlushes int
	// OffloadBudgetChecks counts entries into the MCU time-budget check
	// (each offloaded window, plus re-entries after a reboot);
	// OffloadBudgetMisses counts checks that predicted a deadline miss.
	OffloadBudgetChecks int
	OffloadBudgetMisses int
	// Degradations records every scheme-ladder step the resilience layer
	// took (COM → Batching → Baseline), in the order taken.
	Degradations []Degradation
	// WindowFaults aggregates fault and recovery events per window; nil for
	// fault-free runs.
	WindowFaults map[int]*WindowFaults

	// Duration is the virtual time the run covered.
	Duration time.Duration
	// Window is the QoS period the apps ran at.
	Window time.Duration
	// Outputs holds each app's per-window results.
	Outputs map[apps.ID][]WindowResult
	// Traces holds power timelines when TracePower was set.
	Traces map[string][]energy.Sample
}

// TotalJoules is the hub-wide energy of the run.
func (r *RunResult) TotalJoules() float64 { return r.Energy.Total() }

// Counters lists, in registry order, the obs counters whose only count is a
// RunResult field: the run's recorder and the fleet's sweep gauges both read
// them from here. Counters only a device keeps (UART, radio, CPU residency,
// sensor reads, ...) have no field and reach the recorder from the device.
func (r *RunResult) Counters(emit func(obs.Counter, uint64)) {
	emit(obs.CPUWakes, uint64(r.CPUWakes))
	emit(obs.InterruptsRaised, uint64(r.Interrupts))
	emit(obs.MCUCrashes, uint64(r.MCUCrashes))
	emit(obs.SamplesDropped, uint64(r.DroppedSamples))
	emit(obs.BatchFlushes, uint64(r.BatchFlushes))
	emit(obs.UpstreamBytes, uint64(r.UpstreamBytes))
	emit(obs.EdgeUploads, uint64(r.EdgeUploads))
	emit(obs.EdgeUploadBytes, uint64(r.EdgeUploadBytes))
	emit(obs.EdgeColdStarts, uint64(r.EdgeColdStarts))
	emit(obs.EdgeUpstreamBytes, uint64(r.EdgeUpstreamBytes))
	emit(obs.MeterSamples, uint64(r.MeterSamples))
	emit(obs.MeterDroppedSamples, uint64(r.MeterDroppedSamples))
	emit(obs.MeterCPUCycles, uint64(r.MeterCycles))
	emit(obs.MeterFlushes, uint64(r.MeterFlushes))
	emit(obs.MeterBytes, uint64(r.MeterBytes))
	emit(obs.BatteryBrownouts, uint64(r.Brownouts))
	emit(obs.BatteryBrownoutTimeNs, uint64(r.BrownoutTime))
	emit(obs.BatteryHarvestedMicroJ, uint64(r.BatteryHarvestJ*1e6))
}

// RoutineLatency is the per-routine processing time of the run, the metric
// behind Fig. 8's timing breakdown: collection on the MCU, interrupt
// handling and data transfer on the CPU, and app-specific computation on
// whichever processor ran it. The MCU's participation in transfers mirrors
// the CPU's and is not double-counted.
func (r *RunResult) RoutineLatency() map[energy.Routine]time.Duration {
	return map[energy.Routine]time.Duration{
		energy.DataCollection: r.MCUBusy[energy.DataCollection],
		energy.Interrupt:      r.CPUBusy[energy.Interrupt],
		energy.DataTransfer:   r.CPUBusy[energy.DataTransfer],
		energy.AppCompute:     r.CPUBusy[energy.AppCompute] + r.MCUBusy[energy.AppCompute],
	}
}

// BusyLatency sums RoutineLatency — the paper's Fig. 13 "performance"
// denominator (speedup = Baseline BusyLatency / COM BusyLatency).
func (r *RunResult) BusyLatency() time.Duration {
	var total time.Duration
	for _, d := range r.RoutineLatency() {
		total += d
	}
	return total
}

// LatencyStats summarizes output freshness: how long after its window closed
// each result became available.
type LatencyStats struct {
	Mean, Max time.Duration
	Count     int
}

// OutputLatency computes freshness stats over every app's window results.
// Batching and COM trade a bounded amount of it for energy: the batch must
// finish transferring (and the MCU must finish computing) after the window
// closes.
func (r *RunResult) OutputLatency() LatencyStats {
	var stats LatencyStats
	var sum time.Duration
	for _, outs := range r.Outputs {
		for _, wr := range outs {
			deadline := sim.Time(int64(wr.Window+1) * int64(r.Window))
			lat := wr.At.Duration() - deadline.Duration()
			if lat < 0 {
				lat = 0
			}
			sum += lat
			if lat > stats.Max {
				stats.Max = lat
			}
			stats.Count++
		}
	}
	if stats.Count > 0 {
		stats.Mean = sum / time.Duration(stats.Count)
	}
	return stats
}

// Errors callers match with errors.Is. The sentinels live in internal/scheme
// (which owns config authority); the aliases preserve errors.Is identity for
// every existing caller.
var (
	ErrConfig        = scheme.ErrConfig
	ErrUnoffloadable = scheme.ErrUnoffloadable
)

// validate normalizes and checks the configuration, and resolves each app's
// mode through the scheme table.
func (c *Config) validate() (Params, map[apps.ID]Mode, error) {
	if len(c.Apps) == 0 {
		return Params{}, nil, fmt.Errorf("%w: no apps", ErrConfig)
	}
	if c.Windows < 1 {
		return Params{}, nil, fmt.Errorf("%w: windows %d", ErrConfig, c.Windows)
	}
	params := DefaultParams()
	if c.Params != nil {
		params = *c.Params
	}
	if err := params.Validate(); err != nil {
		return Params{}, nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if c.Meter != nil {
		if err := c.Meter.Validate(); err != nil {
			return Params{}, nil, fmt.Errorf("%w: hub: meter: %v", ErrConfig, err)
		}
	}
	if err := c.Power.Validate(); err != nil {
		return Params{}, nil, fmt.Errorf("%w: hub: power: %v", ErrConfig, err)
	}
	if err := c.FaultSchedule.Validate(); err != nil {
		return Params{}, nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err := c.Resilience.Validate(); err != nil {
		return Params{}, nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	def, err := scheme.Lookup(c.Scheme)
	if err != nil {
		return Params{}, nil, err
	}
	seen := make(map[apps.ID]bool, len(c.Apps))
	window := time.Duration(0)
	for _, a := range c.Apps {
		sp := a.Spec()
		if err := sp.Validate(); err != nil {
			return Params{}, nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		if seen[sp.ID] {
			return Params{}, nil, fmt.Errorf("%w: app %s listed twice", ErrConfig, sp.ID)
		}
		seen[sp.ID] = true
		if window == 0 {
			window = sp.Window
		} else if sp.Window != window {
			return Params{}, nil, fmt.Errorf("%w: mixed window lengths (%v vs %v)", ErrConfig, window, sp.Window)
		}
	}
	modes, err := def.Modes(c.schemeView())
	if err != nil {
		return Params{}, nil, err
	}
	return params, modes, nil
}

// schemeView projects the config onto the slice a scheme definition is
// allowed to see (specs, the optional partition, the QoS window).
func (c *Config) schemeView() scheme.ConfigView {
	specs := make([]apps.Spec, len(c.Apps))
	for i, a := range c.Apps {
		specs[i] = a.Spec()
	}
	return scheme.ConfigView{Specs: specs, Assign: c.Assign, Window: specs[0].Window}
}
