// Package obs is the simulator's observability layer — the software analog
// of the paper's measurement apparatus. Where package energy plays the role
// of the Monsoon power monitor (exact energy integration), obs plays the
// role of the oprofile-instrumented kernel the paper pairs it with (§III):
// a registry of monotonic hardware counters, a span tracer that records the
// paper's four routines on the virtual timeline, and a bounded flight
// recorder of notable hub events for post-mortem analysis.
//
// The whole layer hangs off a nil-able *Recorder threaded through hub.Params
// and fleet.Options. Every method is a no-op on a nil receiver, so the
// disabled configuration costs one nil check per call site, allocates
// nothing, and — because the Recorder only ever observes, never schedules —
// a run with observability enabled produces byte-identical simulation output
// to one without. This is the paper's constraint that measurement must not
// perturb the system, enforced by tests in internal/hub.
//
// Exporters: WriteChromeTrace emits spans as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing), WriteCounters dumps the
// registry as aligned text, WriteFlight dumps the flight ring as JSON lines,
// and Gauges with StartMetricsServer (prom.go, server.go) serve live
// fleet-sweep state in Prometheus text format.
package obs

import (
	"fmt"
	"io"

	"iothub/internal/sim"
)

// Counter identifies one monotonic hardware counter in the registry — the
// virtual oprofile's event set. The enum is dense: counters live in a fixed
// array, so Inc/Add on an enabled recorder is a bounds check and an integer
// add, and on a nil recorder a single branch.
type Counter int

// The counter registry. Groups mirror where the increments come from:
// the event kernel (sim), the CPU power-state machine (cpu), the interrupt
// and UART path (mcu, link, hub), the uplink radios, and the fault engine.
const (
	// SimEventsScheduled / SimEventsCancelled count event-kernel traffic —
	// the DES analog of oprofile's interrupt-descriptor statistics.
	SimEventsScheduled Counter = iota
	SimEventsCancelled
	// CPUTicksActive .. CPUTicksWaking are per-power-state residency in
	// virtual nanoseconds (oprofile's per-state CPU_CLK samples).
	CPUTicksActive
	CPUTicksWFI
	CPUTicksSleep
	CPUTicksDeepSleep
	CPUTicksWaking
	// CPUWakes counts sleep→active transitions.
	CPUWakes
	// InterruptsRaised counts MCU→CPU interrupts fielded (Table II's
	// per-workload interrupt counts); InterruptsCoalesced counts samples
	// that crossed without raising their own interrupt — batched samples
	// and BEAM's extra sharers of one per-sample interrupt.
	InterruptsRaised
	InterruptsCoalesced
	// UARTFrames / UARTBytes count link frames and payload bytes on the
	// wire (retransmissions included); UARTStalls counts loss timeouts the
	// sender waited out; UARTRetransmits counts re-sent frames.
	UARTFrames
	UARTBytes
	UARTStalls
	UARTRetransmits
	// MCUBufferHighWater is the peak MCU RAM allocation in bytes (max,
	// not sum); MCUCrashes counts injected reboots.
	MCUBufferHighWater
	MCUCrashes
	// SensorReads counts read attempts (retries included); SamplesDropped
	// counts reads abandoned after exhausting retries.
	SensorReads
	SamplesDropped
	// BatchFlushes counts bulk transfers of MCU-buffered windows.
	BatchFlushes
	// RadioBursts / RadioBytes count uplink transmissions and their
	// payload bytes across both radios; UpstreamBytes counts the window
	// outputs those bursts carried.
	RadioBursts
	RadioBytes
	UpstreamBytes
	// FaultActivations counts fault-engine rule firings (probe hits plus
	// self-firing events that actually ran).
	FaultActivations
	// EdgeUploads / EdgeUploadBytes count window uploads shipped to the
	// edge tier and their payload bytes; EdgeColdStarts counts container
	// init warmups; EdgeUpstreamBytes counts window outputs that egressed
	// directly from the edge instead of a hub radio.
	EdgeUploads
	EdgeUploadBytes
	EdgeColdStarts
	EdgeUpstreamBytes
	// MeterSamples / MeterDroppedSamples count the in-situ meter's readings
	// taken and lost (RAM pressure, MCU reboots); MeterCPUCycles is the MCU
	// cycle budget the instrument consumed; MeterFlushes / MeterBytes count
	// buffer flushes and the record bytes they persisted. All zero unless a
	// MeterModel is armed (see meter.go).
	MeterSamples
	MeterDroppedSamples
	MeterCPUCycles
	MeterFlushes
	MeterBytes
	// BatteryBrownouts / BatteryBrownoutTimeNs count SoC-zero power gates and
	// the virtual time spent gated; BatterySoCPermille is the final state of
	// charge in thousandths of usable capacity; BatteryHarvestedMicroJ is the
	// harvest energy actually credited. All zero unless a power.Supply is
	// armed (see internal/hub/power.go).
	BatteryBrownouts
	BatteryBrownoutTimeNs
	BatterySoCPermille
	BatteryHarvestedMicroJ

	numCounters
)

// counterNames are the oprofile-style labels, indexed by Counter. Names are
// stable: they appear in -counters output, DESIGN.md, and tests.
var counterNames = [numCounters]string{
	SimEventsScheduled:     "sim_events_scheduled",
	SimEventsCancelled:     "sim_events_cancelled",
	CPUTicksActive:         "cpu_ticks_active_ns",
	CPUTicksWFI:            "cpu_ticks_wfi_ns",
	CPUTicksSleep:          "cpu_ticks_sleep_ns",
	CPUTicksDeepSleep:      "cpu_ticks_deepsleep_ns",
	CPUTicksWaking:         "cpu_ticks_waking_ns",
	CPUWakes:               "cpu_wakes",
	InterruptsRaised:       "interrupts_raised",
	InterruptsCoalesced:    "interrupts_coalesced",
	UARTFrames:             "uart_frames",
	UARTBytes:              "uart_bytes",
	UARTStalls:             "uart_stalls",
	UARTRetransmits:        "uart_retransmits",
	MCUBufferHighWater:     "mcu_buffer_highwater_bytes",
	MCUCrashes:             "mcu_crashes",
	SensorReads:            "sensor_reads",
	SamplesDropped:         "samples_dropped",
	BatchFlushes:           "batch_flushes",
	RadioBursts:            "radio_bursts",
	RadioBytes:             "radio_bytes",
	UpstreamBytes:          "upstream_bytes",
	FaultActivations:       "fault_activations",
	EdgeUploads:            "edge_uploads",
	EdgeUploadBytes:        "edge_upload_bytes",
	EdgeColdStarts:         "edge_cold_starts",
	EdgeUpstreamBytes:      "edge_upstream_bytes",
	MeterSamples:           "meter_samples",
	MeterDroppedSamples:    "meter_dropped_samples",
	MeterCPUCycles:         "meter_cpu_cycles",
	MeterFlushes:           "meter_flushes",
	MeterBytes:             "meter_bytes",
	BatteryBrownouts:       "battery_brownouts",
	BatteryBrownoutTimeNs:  "battery_brownout_ns",
	BatterySoCPermille:     "battery_soc_permille",
	BatteryHarvestedMicroJ: "battery_harvested_uj",
}

// String returns the counter's oprofile-style name.
func (c Counter) String() string {
	if c >= 0 && c < numCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// Counters lists every counter in registry (dump) order.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Span is one completed routine or phase on the virtual timeline. Track
// names the component row it renders on ("cpu", "mcu", "link", "radio:mcu",
// "hub", "app:A2"); Name is the slice label (a routine name, "window 3",
// "reboot", ...).
type Span struct {
	Track string
	Name  string
	Start sim.Time
	End   sim.Time
}

// FlightEvent is one entry of the bounded post-mortem ring.
type FlightEvent struct {
	At     sim.Time `json:"at_ns"`
	Kind   string   `json:"kind"`
	Detail string   `json:"detail,omitempty"`
}

// maxSpans bounds span memory on pathological runs; spans past the cap are
// counted, not stored, and WriteChromeTrace reports the truncation.
const maxSpans = 1 << 20

// defaultFlightLen is the flight ring's default capacity.
const defaultFlightLen = 256

// Recorder is one run's observability state: the counter registry, the span
// buffer, and the flight ring. A nil *Recorder is the disabled layer —
// every method no-ops — and is the value production hot paths see.
//
// A Recorder is bound to one simulation's virtual clock by hub.Run; it is
// not safe for concurrent use (the simulator is single-threaded by design).
type Recorder struct {
	clock *sim.Scheduler

	counters [numCounters]uint64

	tracing      bool
	spans        []Span
	spansDropped uint64

	flight     []FlightEvent
	flightNext int
	flightLen  int
}

// NewRecorder returns an enabled recorder with counters and the flight ring
// armed; call EnableTracing to also record spans.
func NewRecorder() *Recorder {
	return &Recorder{flightLen: defaultFlightLen}
}

// EnableTracing turns on the span tracer (off by default: spans cost memory
// proportional to run length, counters do not).
func (r *Recorder) EnableTracing() {
	if r == nil {
		return
	}
	r.tracing = true
	if r.spans == nil {
		r.spans = make([]Span, 0, 1024)
	}
}

// SetFlightLen resizes the flight ring (entries already recorded are
// dropped); n < 1 disables the ring.
func (r *Recorder) SetFlightLen(n int) {
	if r == nil {
		return
	}
	r.flight = nil
	r.flightNext = 0
	r.flightLen = n
}

// Enabled reports whether the recorder is live. Call sites that must format
// detail strings guard on this so the disabled path allocates nothing.
func (r *Recorder) Enabled() bool { return r != nil }

// Tracing reports whether the span tracer is armed.
func (r *Recorder) Tracing() bool { return r != nil && r.tracing }

// Bind attaches the recorder to a run's virtual clock; hub.Run calls it so
// flight events carry virtual timestamps. Binding a nil recorder no-ops.
func (r *Recorder) Bind(clock *sim.Scheduler) {
	if r == nil {
		return
	}
	r.clock = clock
}

// now is the bound clock's instant (0 before Bind).
func (r *Recorder) now() sim.Time {
	if r.clock == nil {
		return 0
	}
	return r.clock.Now()
}

// Inc adds one to counter c.
func (r *Recorder) Inc(c Counter) {
	if r == nil {
		return
	}
	r.counters[c]++
}

// Add adds n to counter c.
func (r *Recorder) Add(c Counter, n uint64) {
	if r == nil {
		return
	}
	r.counters[c] += n
}

// Store sets counter c to v — used when a component keeps its own running
// total (the event kernel, CPU residency) and the hub copies it in at
// collect time.
func (r *Recorder) Store(c Counter, v uint64) {
	if r == nil {
		return
	}
	r.counters[c] = v
}

// SetMax raises counter c to v if v is larger (high-water marks).
func (r *Recorder) SetMax(c Counter, v uint64) {
	if r == nil {
		return
	}
	if v > r.counters[c] {
		r.counters[c] = v
	}
}

// Get reads counter c (0 on a nil recorder).
func (r *Recorder) Get(c Counter) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[c]
}

// Span records one completed span. Only stored while tracing; the nil /
// non-tracing paths cost one branch. Callers pass static or pre-existing
// strings so the disabled path performs no formatting.
func (r *Recorder) Span(track, name string, start, end sim.Time) {
	if r == nil || !r.tracing {
		return
	}
	if len(r.spans) >= maxSpans {
		r.spansDropped++
		return
	}
	r.spans = append(r.spans, Span{Track: track, Name: name, Start: start, End: end})
}

// Spans returns the recorded spans (the live slice; callers must not
// mutate). SpansDropped reports how many fell past the cap.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SpansDropped reports spans discarded at the maxSpans cap.
func (r *Recorder) SpansDropped() uint64 {
	if r == nil {
		return 0
	}
	return r.spansDropped
}

// Note appends one event to the flight ring at the current virtual time.
// The detail string is formatted by the caller, guarded on Enabled, so the
// disabled layer never pays for it.
func (r *Recorder) Note(kind, detail string) {
	if r == nil || r.flightLen < 1 {
		return
	}
	ev := FlightEvent{At: r.now(), Kind: kind, Detail: detail}
	if len(r.flight) < r.flightLen {
		r.flight = append(r.flight, ev)
		return
	}
	r.flight[r.flightNext] = ev
	r.flightNext = (r.flightNext + 1) % r.flightLen
}

// FlightEvents returns the ring's contents oldest-first.
func (r *Recorder) FlightEvents() []FlightEvent {
	if r == nil || len(r.flight) == 0 {
		return nil
	}
	out := make([]FlightEvent, 0, len(r.flight))
	out = append(out, r.flight[r.flightNext:]...)
	out = append(out, r.flight[:r.flightNext]...)
	return out
}

// WriteCounters dumps the registry as aligned "name value" lines in enum
// order — the -counters output and the golden-test surface.
func WriteCounters(w io.Writer, r *Recorder) error {
	for _, c := range Counters() {
		if _, err := fmt.Fprintf(w, "%-28s %d\n", c.String(), r.Get(c)); err != nil {
			return err
		}
	}
	return nil
}

// WriteFlight dumps the flight ring as JSON lines, oldest first — the
// post-mortem record to read after an invariant failure.
func WriteFlight(w io.Writer, r *Recorder) error {
	for _, ev := range r.FlightEvents() {
		if _, err := fmt.Fprintf(w, `{"at_ns":%d,"kind":%q,"detail":%q}`+"\n", int64(ev.At), ev.Kind, ev.Detail); err != nil {
			return err
		}
	}
	return nil
}
