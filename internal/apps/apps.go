// Package apps defines the workload abstraction shared by the eleven IoT
// applications of the paper's Table II and the calibration data that drives
// their cost model inside the simulator.
//
// Each workload lives in its own subpackage (internal/apps/stepcounter, ...)
// and implements App: it declares its sensors and per-window cost (Spec),
// supplies deterministic synthetic sensor sources with known ground truth,
// and implements the real user-level computation over the raw samples the
// hub delivers. Package internal/apps/catalog assembles the full A1–A11 set.
package apps

import (
	"errors"
	"fmt"
	"time"

	"iothub/internal/sensor"
)

// ID names a workload from Table II ("A1".."A11").
type ID string

// Workload IDs from Table II.
const (
	CoAPServer  ID = "A1"
	StepCounter ID = "A2"
	ArduinoJSON ID = "A3"
	M2X         ID = "A4"
	Blynk       ID = "A5"
	DropboxMgr  ID = "A6"
	Earthquake  ID = "A7"
	Heartbeat   ID = "A8"
	JPEGDecoder ID = "A9"
	Fingerprint ID = "A10"
	SpeechToTxt ID = "A11"
)

// SensorUse binds a workload to one sensor, optionally overriding the
// formatted sample size (Table II's A11 ships 6-byte audio samples over the
// 4-byte sound sensor default; see DESIGN.md §5) or the sampling rate (apps
// that need a sensor below its QoS default — BEAM downsamples the shared
// stream for them).
type SensorUse struct {
	Sensor      sensor.ID
	BytesPerSmp int     // 0 = sensor spec default
	RateHz      float64 // 0 = sensor spec QoS rate
}

// SampleBytes resolves the effective per-sample size.
func (u SensorUse) SampleBytes() (int, error) {
	if u.BytesPerSmp > 0 {
		return u.BytesPerSmp, nil
	}
	sp, err := sensor.Lookup(u.Sensor)
	if err != nil {
		return 0, err
	}
	return sp.SampleBytes, nil
}

// Spec describes a workload: identity, sensing needs, and the
// characterization constants behind Figure 6 and the cost model.
type Spec struct {
	ID       ID
	Name     string
	Category string
	Task     string // the Table II "User-level Tasks" column
	Sensors  []SensorUse
	// Window is the QoS period: one user-level output per window.
	Window time.Duration

	// Characterization (Figure 6): memory footprint and average compute
	// demand in million instructions per window-second.
	HeapBytes  int
	StackBytes int
	MIPS       float64

	// FPPenalty multiplies the MCU slowdown for floating-point-heavy code
	// (the ESP8266 L106 has no FPU); 0 or 1 means no extra penalty.
	FPPenalty float64

	// Heavy marks workloads whose compute or memory demands exceed any MCU
	// (A11); they can never be offloaded.
	Heavy bool
	// EffectiveMIPS caps the CPU throughput this workload actually achieves
	// (memory-bound heavy apps run far below peak); 0 = the CPU's full rate.
	EffectiveMIPS float64
}

// MemoryBytes is the workload's resident footprint (heap + stack).
func (s Spec) MemoryBytes() int { return s.HeapBytes + s.StackBytes }

// MCUFootprint is the RAM an offloaded workload needs on the MCU: its
// resident footprint plus its widest sample as a streaming buffer. The
// offload planner admits by it and the hub reserves it.
func (s Spec) MCUFootprint() (int, error) {
	widest := 0
	for _, u := range s.Sensors {
		b, err := u.SampleBytes()
		if err != nil {
			return 0, err
		}
		widest = max(widest, b)
	}
	return s.MemoryBytes() + widest, nil
}

// Validate checks internal consistency.
func (s Spec) Validate() error {
	if s.ID == "" || s.Name == "" {
		return errors.New("apps: spec missing identity")
	}
	if len(s.Sensors) == 0 {
		return fmt.Errorf("apps: %s uses no sensors", s.ID)
	}
	if s.Window <= 0 {
		return fmt.Errorf("apps: %s window %v", s.ID, s.Window)
	}
	if s.MIPS < 0 || s.HeapBytes < 0 || s.StackBytes < 0 {
		return fmt.Errorf("apps: %s negative characterization", s.ID)
	}
	seen := make(map[sensor.ID]bool, len(s.Sensors))
	for _, u := range s.Sensors {
		sp, err := sensor.Lookup(u.Sensor)
		if err != nil {
			return fmt.Errorf("apps: %s: %w", s.ID, err)
		}
		if seen[u.Sensor] {
			return fmt.Errorf("apps: %s lists %s twice", s.ID, u.Sensor)
		}
		seen[u.Sensor] = true
		if u.RateHz < 0 {
			return fmt.Errorf("apps: %s: negative rate for %s", s.ID, u.Sensor)
		}
		if u.RateHz > 0 && sp.MaxRateHz > 0 && u.RateHz > sp.MaxRateHz {
			return fmt.Errorf("apps: %s: rate %v Hz exceeds %s max %v Hz",
				s.ID, u.RateHz, u.Sensor, sp.MaxRateHz)
		}
	}
	return nil
}

// SamplesPerWindow reports how many samples the given sensor delivers per
// window at the app's effective rate (the use's RateHz override, or the
// sensor's QoS rate).
func (s Spec) SamplesPerWindow(id sensor.ID) (int, error) {
	for _, u := range s.Sensors {
		if u.Sensor == id {
			sp, err := sensor.Lookup(id)
			if err != nil {
				return 0, err
			}
			if u.RateHz > 0 {
				sp.QoSRateHz = u.RateHz
			}
			return sp.SamplesPerWindow(s.Window), nil
		}
	}
	return 0, fmt.Errorf("apps: %s does not use %s", s.ID, id)
}

// InterruptsPerWindow is the Table II "# Interrupts" column: one per sample
// across all sensors in the baseline scheme.
func (s Spec) InterruptsPerWindow() (int, error) {
	total := 0
	for _, u := range s.Sensors {
		n, err := s.SamplesPerWindow(u.Sensor)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// DataBytesPerWindow is the Table II "Sensor Data" column.
func (s Spec) DataBytesPerWindow() (int, error) {
	total := 0
	for _, u := range s.Sensors {
		n, err := s.SamplesPerWindow(u.Sensor)
		if err != nil {
			return 0, err
		}
		b, err := u.SampleBytes()
		if err != nil {
			return 0, err
		}
		total += n * b
	}
	return total, nil
}

// CPUComputeTime is the per-window execution time on the main CPU given its
// peak throughput, honoring EffectiveMIPS for memory-bound workloads.
func (s Spec) CPUComputeTime(cpuMIPS float64) (time.Duration, error) {
	if cpuMIPS <= 0 {
		return 0, fmt.Errorf("apps: cpu MIPS %v", cpuMIPS)
	}
	rate := cpuMIPS
	if s.EffectiveMIPS > 0 && s.EffectiveMIPS < rate {
		rate = s.EffectiveMIPS
	}
	demand := s.MIPS * s.Window.Seconds() // million instructions per window
	return time.Duration(demand / rate * float64(time.Second)), nil
}

// WindowInput is the sensor data delivered to Compute for one window: raw
// formatted samples per sensor, in sampling order.
type WindowInput struct {
	Window  int
	Samples map[sensor.ID][][]byte
}

// Result is one window's user-level output.
type Result struct {
	// Summary is a one-line human-readable outcome ("12 steps").
	Summary string
	// Upstream is the byte payload the app would push to its cloud/phone
	// endpoint (empty for purely local outputs).
	Upstream []byte
	// Metrics carries app-specific numbers for assertions and reports.
	Metrics map[string]float64
}

// App is one IoT workload.
type App interface {
	// Spec returns the workload's static description. It must be valid and
	// constant for the app's lifetime.
	Spec() Spec
	// Source returns the synthetic signal source for one of the declared
	// sensors. The hub reads samples from it on the app's QoS schedule.
	Source(id sensor.ID) (sensor.Source, error)
	// Compute runs the user-level task over one window of samples.
	Compute(in WindowInput) (Result, error)
}

// ErrUnknownSensor is returned by Source for sensors a workload never
// declared.
var ErrUnknownSensor = errors.New("apps: sensor not used by this app")

// CollectWindow pulls one window's samples from the app's sources — the
// helper tests and the offload executor use to assemble Compute inputs.
// Window w covers sample indices [w*n, (w+1)*n) per sensor.
//
// Each sensor's samples are appended into one buffer sized from the declared
// sample size (only a hint: a source may write another size), and every
// sample is capped at its own length, so an app appending to one sample
// reallocates instead of overwriting the next.
func CollectWindow(a App, w int) (WindowInput, error) {
	spec := a.Spec()
	in := WindowInput{Window: w, Samples: make(map[sensor.ID][][]byte, len(spec.Sensors))}
	for _, u := range spec.Sensors {
		n, err := spec.SamplesPerWindow(u.Sensor)
		if err != nil {
			return WindowInput{}, err
		}
		size, err := u.SampleBytes()
		if err != nil {
			return WindowInput{}, err
		}
		src, err := a.Source(u.Sensor)
		if err != nil {
			return WindowInput{}, err
		}
		buf := make([]byte, 0, n*size)
		samples := make([][]byte, n)
		for i := range samples {
			at := len(buf)
			buf = src.AppendSample(buf, w*n+i)
			samples[i] = buf[at:len(buf):len(buf)]
		}
		in.Samples[u.Sensor] = samples
	}
	return in, nil
}
