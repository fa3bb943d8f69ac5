// Observability-layer tests at the hub level: the counter registry must
// reproduce the paper's Table II interrupt/transfer arithmetic analytically,
// and an armed recorder must never perturb the simulation (same JSON bytes
// with and without one). External test package: BCOM needs the planner in
// internal/core, which itself imports hub.
package hub_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/core"
	"iothub/internal/faults"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/power"
	"iothub/internal/sensor"
)

// obsConfig builds a fresh single- or multi-app config (apps are stateful, so
// every run needs new instances) with an optional armed recorder.
func obsConfig(t *testing.T, ids []apps.ID, scheme hub.Scheme, windows int, rec *obs.Recorder) hub.Config {
	t.Helper()
	var list []apps.App
	for _, id := range ids {
		a, err := catalog.New(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		list = append(list, a)
	}
	cfg := hub.Config{Apps: list, Scheme: scheme, Windows: windows}
	if scheme == hub.BCOM {
		plan, err := core.PlanBCOM(list, hub.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Assign = plan.Assign
	}
	if rec != nil {
		p := hub.DefaultParams()
		p.Obs = rec
		cfg.Params = &p
	}
	return cfg
}

// expectCounter asserts one registry value.
func expectCounter(t *testing.T, rec *obs.Recorder, c obs.Counter, want uint64) {
	t.Helper()
	if got := rec.Get(c); got != want {
		t.Errorf("%s = %d, want %d", c, got, want)
	}
}

// TestObsCountersAnalyticBaseline checks the Table II arithmetic for the
// step counter (A2) under Baseline: every sample raises exactly one
// interrupt and crosses the link once, so the counters must equal
// samplesPerWindow x windows (and the sample-size product for bytes),
// matching the paper's oprofile interrupt counts for per-sample execution.
func TestObsCountersAnalyticBaseline(t *testing.T) {
	const windows = 3
	rec := obs.NewRecorder()
	cfg := obsConfig(t, []apps.ID{apps.StepCounter}, hub.Baseline, windows, rec)

	spec := cfg.Apps[0].Spec()
	spw, err := spec.SamplesPerWindow(sensor.Accelerometer)
	if err != nil {
		t.Fatal(err)
	}
	sampleBytes, err := spec.Sensors[0].SampleBytes()
	if err != nil {
		t.Fatal(err)
	}
	samples := uint64(spw * windows)

	res, err := hub.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	expectCounter(t, rec, obs.SensorReads, samples)
	expectCounter(t, rec, obs.InterruptsRaised, samples)
	expectCounter(t, rec, obs.InterruptsCoalesced, 0)
	expectCounter(t, rec, obs.UARTFrames, samples)
	expectCounter(t, rec, obs.UARTBytes, samples*uint64(sampleBytes))
	expectCounter(t, rec, obs.UARTRetransmits, 0)
	expectCounter(t, rec, obs.BatchFlushes, 0)
	expectCounter(t, rec, obs.MCUCrashes, 0)
	expectCounter(t, rec, obs.SamplesDropped, 0)
	expectCounter(t, rec, obs.FaultActivations, 0)

	// Cross-check against the run result's own accounting.
	if got := rec.Get(obs.InterruptsRaised); got != uint64(res.Interrupts) {
		t.Errorf("interrupts_raised = %d, RunResult.Interrupts = %d", got, res.Interrupts)
	}
	if got := rec.Get(obs.UARTBytes); got != uint64(res.BytesTransferred) {
		t.Errorf("uart_bytes = %d, RunResult.BytesTransferred = %d", got, res.BytesTransferred)
	}
	if got := rec.Get(obs.UpstreamBytes); got != uint64(res.UpstreamBytes) {
		t.Errorf("upstream_bytes = %d, RunResult.UpstreamBytes = %d", got, res.UpstreamBytes)
	}
	if got := rec.Get(obs.CPUWakes); got != uint64(res.CPUWakes) {
		t.Errorf("cpu_wakes = %d, RunResult.CPUWakes = %d", got, res.CPUWakes)
	}
	if rec.Get(obs.SimEventsScheduled) == 0 {
		t.Error("sim_events_scheduled = 0, want > 0")
	}

	// CPU state residency must partition the run exactly: every nanosecond
	// of virtual time is in exactly one power state.
	var resid uint64
	for _, c := range []obs.Counter{obs.CPUTicksActive, obs.CPUTicksWFI,
		obs.CPUTicksSleep, obs.CPUTicksDeepSleep, obs.CPUTicksWaking} {
		resid += rec.Get(c)
	}
	if resid != uint64(res.Duration) {
		t.Errorf("residency sum = %d ns, run duration = %d ns", resid, res.Duration)
	}
}

// TestObsCountersBatching checks the coalescing arithmetic: under Batching
// every sample is buffered (coalesced) and only flushes raise interrupts.
func TestObsCountersBatching(t *testing.T) {
	const windows = 2
	rec := obs.NewRecorder()
	cfg := obsConfig(t, []apps.ID{apps.StepCounter}, hub.Batching, windows, rec)
	spw, err := cfg.Apps[0].Spec().SamplesPerWindow(sensor.Accelerometer)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hub.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchFlushes == 0 {
		t.Fatal("batching run reported zero flushes")
	}
	expectCounter(t, rec, obs.BatchFlushes, uint64(res.BatchFlushes))
	expectCounter(t, rec, obs.InterruptsRaised, uint64(res.Interrupts))
	expectCounter(t, rec, obs.InterruptsCoalesced, uint64(spw*windows))
	if raised := rec.Get(obs.InterruptsRaised); raised >= uint64(spw*windows) {
		t.Errorf("interrupts_raised = %d, want far fewer than %d samples", raised, spw*windows)
	}
}

// TestObsCountersBEAMSharing checks stream sharing: two apps on the same
// accelerometer stream mean every shared delivery beyond the first is a
// coalesced interrupt.
func TestObsCountersBEAMSharing(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := obsConfig(t, []apps.ID{apps.StepCounter, apps.Earthquake}, hub.BEAM, 2, rec)
	res, err := hub.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Get(obs.InterruptsCoalesced) == 0 {
		t.Error("interrupts_coalesced = 0, want > 0 for a shared stream")
	}
	expectCounter(t, rec, obs.InterruptsRaised, uint64(res.Interrupts))
}

// TestObsCountersMatchResult: each counter a RunResult field also counts
// must read exactly that field, for every golden case unarmed, under an
// in-situ meter, on the harvesting test supply, and on a battery too small
// to finish (a terminal brownout strands samples, which count as dropped).
func TestObsCountersMatchResult(t *testing.T) {
	insitu := obs.Insitu(500)
	supply := testSupply()
	tiny := power.Supply{Battery: power.Battery{CapacityMAh: 0.05, Volts: 3, DerateFraction: 1}}
	arms := []struct {
		name string
		arm  func(*hub.Config)
	}{
		{"unarmed", func(*hub.Config) {}},
		{"insitu", func(c *hub.Config) { c.Meter = &insitu }},
		{"supply", func(c *hub.Config) { c.Power = &supply }},
		{"tiny-battery", func(c *hub.Config) { c.Power = &tiny }},
	}
	for _, tc := range goldenCases() {
		for _, a := range arms {
			t.Run(tc.name+"/"+a.name, func(t *testing.T) {
				rec := obs.NewRecorder()
				cfg := obsConfig(t, tc.ids, tc.scheme, 2, rec)
				if tc.chaos != "" {
					schedule, err := faults.ParseSchedule(tc.chaos)
					if err != nil {
						t.Fatal(err)
					}
					cfg.FaultSchedule = schedule
				}
				a.arm(&cfg)
				res, err := hub.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range []struct {
					c obs.Counter
					v int64
				}{
					{obs.CPUWakes, int64(res.CPUWakes)},
					{obs.InterruptsRaised, int64(res.Interrupts)},
					{obs.MCUCrashes, int64(res.MCUCrashes)},
					{obs.SamplesDropped, int64(res.DroppedSamples)},
					{obs.BatchFlushes, int64(res.BatchFlushes)},
					{obs.UpstreamBytes, int64(res.UpstreamBytes)},
					{obs.EdgeUploads, int64(res.EdgeUploads)},
					{obs.EdgeUploadBytes, int64(res.EdgeUploadBytes)},
					{obs.EdgeColdStarts, int64(res.EdgeColdStarts)},
					{obs.EdgeUpstreamBytes, int64(res.EdgeUpstreamBytes)},
					{obs.MeterSamples, int64(res.MeterSamples)},
					{obs.MeterDroppedSamples, int64(res.MeterDroppedSamples)},
					{obs.MeterCPUCycles, res.MeterCycles},
					{obs.MeterFlushes, int64(res.MeterFlushes)},
					{obs.MeterBytes, int64(res.MeterBytes)},
					{obs.BatteryBrownouts, int64(res.Brownouts)},
					{obs.BatteryBrownoutTimeNs, int64(res.BrownoutTime)},
					{obs.BatteryHarvestedMicroJ, int64(res.BatteryHarvestJ * 1e6)},
				} {
					expectCounter(t, rec, f.c, uint64(f.v))
				}
			})
		}
	}
}

// TestObsRecorderDoesNotPerturb is the measurement-does-not-perturb
// guarantee: the full run result marshals to byte-identical JSON whether the
// recorder (with tracing and flight ring armed) is attached or not, across
// every scheme and under chaos.
func TestObsRecorderDoesNotPerturb(t *testing.T) {
	cases := []struct {
		name   string
		ids    []apps.ID
		scheme hub.Scheme
		chaos  string
	}{
		{"baseline", []apps.ID{apps.StepCounter}, hub.Baseline, ""},
		{"batching", []apps.ID{apps.StepCounter}, hub.Batching, ""},
		{"com", []apps.ID{apps.CoAPServer}, hub.COM, ""},
		{"bcom", []apps.ID{apps.SpeechToTxt, apps.DropboxMgr}, hub.BCOM, ""},
		{"beam", []apps.ID{apps.StepCounter, apps.Earthquake}, hub.BEAM, ""},
		{"chaos", []apps.ID{apps.StepCounter}, hub.Baseline,
			"seed=7; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(rec *obs.Recorder) []byte {
				cfg := obsConfig(t, tc.ids, tc.scheme, 2, rec)
				if tc.chaos != "" {
					schedule, err := faults.ParseSchedule(tc.chaos)
					if err != nil {
						t.Fatal(err)
					}
					cfg.FaultSchedule = schedule
				}
				res, err := hub.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}
			bare := run(nil)
			rec := obs.NewRecorder()
			rec.EnableTracing()
			instrumented := run(rec)
			if !bytes.Equal(bare, instrumented) {
				t.Errorf("instrumented run diverged from bare run:\nbare:         %.200s\ninstrumented: %.200s",
					bare, instrumented)
			}
			if rec.Get(obs.SensorReads) == 0 {
				t.Error("instrumented run recorded no sensor reads")
			}
		})
	}
}

// TestObsTraceFromRun runs an instrumented simulation and validates its
// Chrome trace-event export: parseable, deterministic, and carrying the
// expected tracks.
func TestObsTraceFromRun(t *testing.T) {
	render := func() ([]byte, *obs.Recorder) {
		rec := obs.NewRecorder()
		rec.EnableTracing()
		cfg := obsConfig(t, []apps.ID{apps.StepCounter}, hub.Baseline, 1, rec)
		if _, err := hub.Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rec
	}
	blob, rec := render()
	again, _ := render()
	if !bytes.Equal(blob, again) {
		t.Error("trace export is not deterministic across identical runs")
	}

	var doc obs.TraceDocument
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if doc.SpansDropped != 0 {
		t.Errorf("SpansDropped = %d, want 0", doc.SpansDropped)
	}
	tracks := map[string]bool{}
	var complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			tracks[ev.Args["name"]] = true
		case "X":
			complete++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("event %q has negative ts/dur: %+v", ev.Name, ev)
			}
			if ev.Pid != 1 || ev.Tid < 1 {
				t.Fatalf("event %q has bad pid/tid: %+v", ev.Name, ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	for _, want := range []string{"cpu", "mcu", "link", "hub", "app:A2"} {
		if !tracks[want] {
			t.Errorf("trace is missing track %q (have %v)", want, tracks)
		}
	}
	if complete != len(rec.Spans()) {
		t.Errorf("%d complete events, recorder holds %d spans", complete, len(rec.Spans()))
	}
	if complete == 0 {
		t.Fatal("trace has no complete events")
	}
	// The run-spanning hub span is present and named after the scheme.
	var hubSpan bool
	for _, s := range rec.Spans() {
		if s.Track == "hub" && strings.Contains(s.Name, "Baseline") {
			hubSpan = true
		}
	}
	if !hubSpan {
		t.Error("no hub/Baseline run span recorded")
	}
}
