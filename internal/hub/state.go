package hub

// Per-run bookkeeping types: one appState per app and one stream per
// physical sampling schedule. Policy resolution (policy/policyFor) lives
// here because an app's active policy is a function of its — possibly
// degraded — mode.

import (
	"time"

	"iothub/internal/apps"
	"iothub/internal/energy"
	"iothub/internal/scheme"
	"iothub/internal/sensor"
)

// modeChange is one degradation step: mode applies from fromWindow on.
type modeChange struct {
	fromWindow int
	mode       Mode
}

// batchRef identifies one sample resident in the MCU batch buffer, so a
// crash can re-collect exactly what the RAM held.
type batchRef struct {
	s *stream
	k int
}

// redoRef is one sample a crash or brownout wiped from its owning app's
// batch buffer, held until the rebooted MCU re-reads it.
type redoRef struct {
	st *appState
	s  *stream
	k  int
}

// appState is one app's runtime bookkeeping.
type appState struct {
	app  apps.App
	spec apps.Spec
	mode Mode

	// modeChanges records degradation steps; in-flight windows keep the
	// mode they started with (see modeFor).
	modeChanges []modeChange
	// batchRefs tracks the samples currently resident in the MCU batch
	// buffer (cleared on flush, re-collected on crash).
	batchRefs []batchRef
	// offloadInFlight marks windows whose MCU computation has been
	// dispatched but not finished — a crash re-enters their budget check.
	offloadInFlight []bool

	// cpuComputeTime / mcuComputeTime are the per-window app-specific
	// computation costs on each processor.
	cpuComputeTime time.Duration
	mcuComputeTime time.Duration

	// samplesPerWindow across all of the app's streams.
	samplesPerWindow int
	// The per-window slices (offloadInFlight above too) are indexed by
	// window and sized to the run's window count at build. readsDone /
	// delivered count per-window progress; expected starts at
	// samplesPerWindow and shrinks when fault injection drops samples.
	readsDone []int // samples formatted at the MCU
	delivered []int // samples landed at the CPU
	expected  []int // samples still anticipated
	// fired guards against double-triggering a window's computation when
	// drops rearrange completion order.
	fired []bool

	// Batched-mode buffer state.
	batchFill      int
	batchAllocd    int
	pendingFlushes []int // in-flight bulk transfers

	// Uploaded-mode state: bytes landed at the CPU awaiting upload, and the
	// app's per-window instruction demand for the edge container. Both are
	// only populated for apps whose base policy places compute OnEdge.
	uploadBytes map[int]int // window -> bytes staged for edge upload
	edgeMI      float64

	results []WindowResult
}

// consumerLink attaches one app to a stream. Under BEAM a stream runs at
// the fastest consumer's rate and slower consumers take every stride-th
// sample (BEAM's downsampling for rate-mismatched sharers).
type consumerLink struct {
	st     *appState
	stride int
}

// wants reports whether the consumer takes the stream's k-th sample.
func (l consumerLink) wants(k int) bool { return k%l.stride == 0 }

// stream is one physical sampling schedule: a sensor read sequence feeding
// one or more apps (more than one only under a shared topology).
type stream struct {
	id        sensor.ID
	spec      sensor.Spec
	bytes     int
	perWindow int
	period    time.Duration
	track     *energy.Track
	consumers []consumerLink
	// retriesInWindow / downshifted drive the resilience layer's
	// rate-downshift: once a window's retries blow the budget, every other
	// remaining read of the stream is skipped.
	retriesInWindow map[int]int
	downshifted     map[int]bool
}

// sizeWindows readies the per-window state for a run of n windows, reusing
// the slices' capacity: every counter and flag zero, and every window
// expecting samplesPerWindow samples.
func (st *appState) sizeWindows(n int) {
	st.offloadInFlight = windowSlice(st.offloadInFlight, n)
	st.readsDone = windowSlice(st.readsDone, n)
	st.delivered = windowSlice(st.delivered, n)
	st.expected = windowSlice(st.expected, n)
	st.fired = windowSlice(st.fired, n)
	st.pendingFlushes = windowSlice(st.pendingFlushes, n)
	for w := range st.expected {
		st.expected[w] = st.samplesPerWindow
	}
}

// windowSlice returns s resized to n zero values, reallocating only when its
// capacity is short.
func windowSlice[T int | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// modeFor resolves the app's mode for window w: the base mode unless a
// degradation step took effect at or before w.
func (st *appState) modeFor(w int) Mode {
	mode := st.mode
	for _, ch := range st.modeChanges {
		if ch.fromWindow <= w {
			mode = ch.mode
		}
	}
	return mode
}

// policy is the app's base policy (window 0, before any degradation).
func (st *appState) policy() scheme.Policy { return st.mode.Policy() }

// policyFor resolves the app's active policy for window w, honoring the
// degradation ladder. Mode.Policy is an array lookup, so this is as cheap as
// a mode switch.
func (st *appState) policyFor(w int) scheme.Policy { return st.modeFor(w).Policy() }
