package hub

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/energy"
)

func newApps(t *testing.T, ids ...apps.ID) []apps.App {
	t.Helper()
	out := make([]apps.App, 0, len(ids))
	for _, id := range ids {
		a, err := catalog.New(id, 1)
		if err != nil {
			t.Fatalf("catalog.New(%s): %v", id, err)
		}
		out = append(out, a)
	}
	return out
}

func mustRun(t *testing.T, cfg Config) *RunResult {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	sc := newApps(t, apps.StepCounter)
	// A bad device calibration is refused before the arena builds a device.
	params := func(edit func(*Params)) *Params {
		p := DefaultParams()
		edit(&p)
		return &p
	}
	cases := map[string]Config{
		"no apps":        {Scheme: Baseline, Windows: 1},
		"zero windows":   {Apps: sc, Scheme: Baseline},
		"unknown scheme": {Apps: sc, Scheme: Scheme(99), Windows: 1},
		"assign without bcom": {
			Apps: sc, Scheme: Baseline, Windows: 1,
			Assign: map[apps.ID]Mode{apps.StepCounter: Batched},
		},
		"bcom without assign": {Apps: sc, Scheme: BCOM, Windows: 1},
		"beam single app":     {Apps: sc, Scheme: BEAM, Windows: 1},
		"duplicate app": {
			Apps:   append(newApps(t, apps.StepCounter), newApps(t, apps.StepCounter)...),
			Scheme: Baseline, Windows: 1,
		},
		"cpu cores": {Apps: sc, Scheme: Baseline, Windows: 1,
			Params: params(func(p *Params) { p.CPU.Cores = 0 })},
		"mcu ram": {Apps: sc, Scheme: Baseline, Windows: 1,
			Params: params(func(p *Params) { p.MCU.RAMBytes = 0 })},
		"mcu reboot time": {Apps: sc, Scheme: Baseline, Windows: 1,
			Params: params(func(p *Params) { p.MCU.RebootTime = -time.Millisecond })},
		"link crc bytes": {Apps: sc, Scheme: Baseline, Windows: 1,
			Params: params(func(p *Params) { p.Link.CRCBytes = -1 })},
		"link frame overhead": {Apps: sc, Scheme: Baseline, Windows: 1,
			Params: params(func(p *Params) { p.Link.FrameOverhead = -time.Microsecond })},
		// A negative power draw is refused up front, not left to the
		// post-run invariant (or, for an unvisited state, to nothing).
		"cpu active draw": {Apps: sc, Scheme: Baseline, Windows: 1,
			Params: params(func(p *Params) { p.CPU.ActiveW = -5 })},
		"cpu deep sleep draw": {Apps: sc, Scheme: Baseline, Windows: 1,
			Params: params(func(p *Params) { p.CPU.DeepSleepW = -1 })},
		"mcu idle draw": {Apps: sc, Scheme: Baseline, Windows: 1,
			Params: params(func(p *Params) { p.MCU.IdleW = -1 })},
		"link wire draw": {Apps: sc, Scheme: Baseline, Windows: 1,
			Params: params(func(p *Params) { p.Link.WireW = -1 })},
		"radio idle draw": {Apps: sc, Scheme: Baseline, Windows: 1,
			Params: params(func(p *Params) { p.MainRadio.IdleW = -1 })},
		// An explicit partition names modes of the policy table only.
		"bcom mode 0": {Apps: sc, Scheme: BCOM, Windows: 1,
			Assign: map[apps.ID]Mode{apps.StepCounter: 0}},
		"bcom mode 9": {Apps: sc, Scheme: BCOM, Windows: 1,
			Assign: map[apps.ID]Mode{apps.StepCounter: 9}},
	}
	for name, cfg := range cases {
		if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", name, err)
		}
	}
}

func TestBaselineInterruptCountMatchesTableII(t *testing.T) {
	res := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 2})
	if res.Interrupts != 2000 {
		t.Errorf("interrupts = %d, want 2000 (1000/window × 2)", res.Interrupts)
	}
	if res.BytesTransferred != 24000 {
		t.Errorf("bytes = %d, want 24000", res.BytesTransferred)
	}
	if res.Modes[apps.StepCounter] != PerSample {
		t.Errorf("mode = %v", res.Modes[apps.StepCounter])
	}
}

func TestBatchingCollapsesInterrupts(t *testing.T) {
	res := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: Batching, Windows: 3})
	if res.Interrupts != 3 {
		t.Errorf("interrupts = %d, want 3 (one per window)", res.Interrupts)
	}
	if res.BatchFlushes != 3 {
		t.Errorf("flushes = %d, want 3", res.BatchFlushes)
	}
	// Same payload crosses the link, just batched.
	if res.BytesTransferred != 36000 {
		t.Errorf("bytes = %d, want 36000", res.BytesTransferred)
	}
	if res.CPUWakes == 0 {
		t.Error("CPU never slept under batching")
	}
}

func TestBatchingFlushesEarlyUnderRAMPressure(t *testing.T) {
	params := DefaultParams()
	// Shrink usable RAM below one window's batch (12 KB).
	params.MCU.ReservedBytes = params.MCU.RAMBytes - 8*1024
	res := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Batching, Windows: 2, Params: &params,
	})
	if res.BatchFlushes <= 2 {
		t.Errorf("flushes = %d, want > 2 (early flushes under RAM pressure)", res.BatchFlushes)
	}
	if res.BytesTransferred != 24000 {
		t.Errorf("bytes = %d, want 24000 (no data lost)", res.BytesTransferred)
	}
}

func TestCOMEliminatesPerSampleTraffic(t *testing.T) {
	res := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: COM, Windows: 3})
	if res.Interrupts != 3 {
		t.Errorf("interrupts = %d, want 3 (result notifications only)", res.Interrupts)
	}
	want := 3 * DefaultParams().ResultBytes
	if res.BytesTransferred != want {
		t.Errorf("bytes = %d, want %d", res.BytesTransferred, want)
	}
	// The app-specific computation ran on the MCU, not the CPU.
	if res.CPUBusy[energy.AppCompute] != 0 {
		t.Errorf("CPU compute = %v, want 0", res.CPUBusy[energy.AppCompute])
	}
	if res.MCUBusy[energy.AppCompute] == 0 {
		t.Error("MCU compute = 0, want > 0")
	}
}

func TestCOMRejectsHeavyApp(t *testing.T) {
	_, err := Run(Config{Apps: newApps(t, apps.SpeechToTxt), Scheme: COM, Windows: 1})
	if !errors.Is(err, ErrUnoffloadable) {
		t.Errorf("err = %v, want ErrUnoffloadable", err)
	}
}

func TestSchemeEnergyOrderingForStepCounter(t *testing.T) {
	sc := func() []apps.App { return newApps(t, apps.StepCounter) }
	base := mustRun(t, Config{Apps: sc(), Scheme: Baseline, Windows: 3})
	bat := mustRun(t, Config{Apps: sc(), Scheme: Batching, Windows: 3})
	com := mustRun(t, Config{Apps: sc(), Scheme: COM, Windows: 3})
	if !(com.TotalJoules() < bat.TotalJoules() && bat.TotalJoules() < base.TotalJoules()) {
		t.Errorf("energy ordering violated: base=%.3f bat=%.3f com=%.3f J",
			base.TotalJoules(), bat.TotalJoules(), com.TotalJoules())
	}
	// §IV-E1 headline bands: Batching saves ~52%, COM ~85% (we accept the
	// neighborhood; exact per-app values are asserted in experiments).
	batSave := 1 - bat.TotalJoules()/base.TotalJoules()
	comSave := 1 - com.TotalJoules()/base.TotalJoules()
	if batSave < 0.40 || batSave > 0.70 {
		t.Errorf("batching saving = %.2f, want 0.40..0.70", batSave)
	}
	if comSave < 0.70 || comSave > 0.95 {
		t.Errorf("COM saving = %.2f, want 0.70..0.95", comSave)
	}
}

func TestBaselineTransferDominatesEnergy(t *testing.T) {
	res := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 2})
	if f := res.Energy.Fraction(energy.DataTransfer); f < 0.70 || f > 0.90 {
		t.Errorf("transfer fraction = %.2f, want ~0.81 (§IV-E1)", f)
	}
	if f := res.Energy.Fraction(energy.Interrupt); f < 0.05 || f > 0.20 {
		t.Errorf("interrupt fraction = %.2f, want ~0.10", f)
	}
}

func TestBEAMSharesSensorStreams(t *testing.T) {
	pair := func() []apps.App { return newApps(t, apps.StepCounter, apps.Earthquake) }
	base := mustRun(t, Config{Apps: pair(), Scheme: Baseline, Windows: 2})
	beam := mustRun(t, Config{Apps: pair(), Scheme: BEAM, Windows: 2})
	if base.Interrupts != 4000 {
		t.Errorf("baseline interrupts = %d, want 4000 (duplicated reads)", base.Interrupts)
	}
	if beam.Interrupts != 2000 {
		t.Errorf("BEAM interrupts = %d, want 2000 (shared accelerometer)", beam.Interrupts)
	}
	if beam.BytesTransferred >= base.BytesTransferred {
		t.Errorf("BEAM bytes %d not below baseline %d", beam.BytesTransferred, base.BytesTransferred)
	}
	if beam.TotalJoules() >= base.TotalJoules() {
		t.Error("BEAM did not save energy on a fully shared workload pair")
	}
	// Both apps still produce their outputs every window.
	for _, id := range []apps.ID{apps.StepCounter, apps.Earthquake} {
		if got := len(beam.Outputs[id]); got != 2 {
			t.Errorf("%s outputs = %d, want 2", id, got)
		}
	}
}

func TestBEAMBarelyHelpsDisjointSensors(t *testing.T) {
	pair := func() []apps.App { return newApps(t, apps.StepCounter, apps.Heartbeat) }
	base := mustRun(t, Config{Apps: pair(), Scheme: Baseline, Windows: 2})
	beam := mustRun(t, Config{Apps: pair(), Scheme: BEAM, Windows: 2})
	if base.Interrupts != beam.Interrupts {
		t.Errorf("disjoint sensors: interrupts %d vs %d, want equal", base.Interrupts, beam.Interrupts)
	}
	saving := 1 - beam.TotalJoules()/base.TotalJoules()
	if saving > 0.02 {
		t.Errorf("BEAM saved %.1f%% with no shared sensors, want ~0", saving*100)
	}
}

func TestBCOMPartitionsHeavyAndLight(t *testing.T) {
	cfg := Config{
		Apps:   newApps(t, apps.SpeechToTxt, apps.DropboxMgr),
		Scheme: BCOM,
		Assign: map[apps.ID]Mode{
			apps.SpeechToTxt: Batched,
			apps.DropboxMgr:  Offloaded,
		},
		Windows: 2,
	}
	res := mustRun(t, cfg)
	if res.Modes[apps.SpeechToTxt] != Batched || res.Modes[apps.DropboxMgr] != Offloaded {
		t.Errorf("modes = %v", res.Modes)
	}
	base := mustRun(t, Config{
		Apps: newApps(t, apps.SpeechToTxt, apps.DropboxMgr), Scheme: Baseline, Windows: 2,
	})
	saving := 1 - res.TotalJoules()/base.TotalJoules()
	if saving < 0.03 || saving > 0.40 {
		t.Errorf("BCOM heavy-mix saving = %.1f%%, want small-but-positive (§IV-E3)", saving*100)
	}
}

func TestBCOMRejectsOffloadingHeavy(t *testing.T) {
	_, err := Run(Config{
		Apps:    newApps(t, apps.SpeechToTxt),
		Scheme:  BCOM,
		Assign:  map[apps.ID]Mode{apps.SpeechToTxt: Offloaded},
		Windows: 1,
	})
	if !errors.Is(err, ErrUnoffloadable) {
		t.Errorf("err = %v, want ErrUnoffloadable", err)
	}
	_, err = Run(Config{
		Apps:    newApps(t, apps.SpeechToTxt, apps.DropboxMgr),
		Scheme:  BCOM,
		Assign:  map[apps.ID]Mode{apps.SpeechToTxt: Batched},
		Windows: 1,
	})
	if !errors.Is(err, ErrConfig) {
		t.Errorf("missing assignment: err = %v, want ErrConfig", err)
	}
}

func TestOutputsAreRealComputations(t *testing.T) {
	res := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 3})
	outs := res.Outputs[apps.StepCounter]
	if len(outs) != 3 {
		t.Fatalf("outputs = %d, want 3", len(outs))
	}
	for _, o := range outs {
		steps := o.Result.Metrics["steps"]
		if steps < 1 || steps > 3 {
			t.Errorf("window %d steps = %v, want ~2", o.Window, steps)
		}
	}
}

func TestOutputsIdenticalAcrossSchemes(t *testing.T) {
	// Where the computation runs must not change what it computes.
	base := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 2})
	com := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: COM, Windows: 2})
	for w := 0; w < 2; w++ {
		b := base.Outputs[apps.StepCounter][w].Result
		c := com.Outputs[apps.StepCounter][w].Result
		if b.Summary != c.Summary {
			t.Errorf("window %d: baseline %q vs COM %q", w, b.Summary, c.Summary)
		}
	}
}

func TestSkipAppCompute(t *testing.T) {
	res := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 1, SkipAppCompute: true,
	})
	out := res.Outputs[apps.StepCounter]
	if len(out) != 1 {
		t.Fatalf("outputs = %d, want 1", len(out))
	}
	if out[0].Result.Summary != "" {
		t.Error("SkipAppCompute still ran the computation")
	}
	if res.TotalJoules() <= 0 {
		t.Error("no energy modeled")
	}
}

func TestTracePowerRecordsTimeline(t *testing.T) {
	res := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Batching, Windows: 1, TracePower: true,
	})
	cpuTrace := res.Traces["cpu"]
	if len(cpuTrace) < 3 {
		t.Fatalf("cpu trace has %d samples", len(cpuTrace))
	}
	// Batching: the trace must show both a sleeping phase and active bursts.
	var sawSleep, sawActive bool
	p := DefaultParams()
	for _, s := range cpuTrace {
		if s.Watts == p.CPU.SleepW {
			sawSleep = true
		}
		if s.Watts == p.CPU.ActiveW {
			sawActive = true
		}
	}
	if !sawSleep || !sawActive {
		t.Errorf("trace missing phases: sleep=%v active=%v", sawSleep, sawActive)
	}
}

func TestNoQoSViolationsAcrossCatalog(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, Batching, COM} {
		for _, id := range catalog.LightIDs {
			res := mustRun(t, Config{Apps: newApps(t, id), Scheme: scheme, Windows: 2})
			if res.QoSViolations != 0 {
				t.Errorf("%s under %v: %d QoS violations", id, scheme, res.QoSViolations)
			}
		}
	}
}

func TestRunIdle(t *testing.T) {
	res, err := RunIdle(2*time.Second, nil)
	if err != nil {
		t.Fatalf("RunIdle: %v", err)
	}
	p := DefaultParams()
	want := (p.CPU.DeepSleepW + p.MCU.IdleW) * 2
	if diff := res.TotalJoules() - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("idle energy = %v J, want %v", res.TotalJoules(), want)
	}
	if res.Duration != 2*time.Second {
		t.Errorf("duration = %v", res.Duration)
	}
}

func TestIdleVsBaselineRatio(t *testing.T) {
	// Figure 1: running the workloads costs ~9.5× the idle hub. Average the
	// ten light apps as the paper does.
	idle, err := RunIdle(time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, id := range catalog.LightIDs {
		res := mustRun(t, Config{Apps: newApps(t, id), Scheme: Baseline, Windows: 2, SkipAppCompute: true})
		sum += res.TotalJoules() / res.Duration.Seconds()
	}
	ratio := sum / 10 / idle.TotalJoules()
	if ratio < 7 || ratio > 13 {
		t.Errorf("baseline/idle ratio = %.1f, want ~9.5 (Fig. 1)", ratio)
	}
}

func TestSchemeAndModeStrings(t *testing.T) {
	if Baseline.String() != "Baseline" || BCOM.String() != "BCOM" || Scheme(9).String() == "" {
		t.Error("scheme strings wrong")
	}
	if PerSample.String() != "PerSample" || Mode(9).String() == "" {
		t.Error("mode strings wrong")
	}
}

func TestRoutineLatencySpeedup(t *testing.T) {
	// Fig. 8 / Fig. 13: COM shortens the step counter's processing latency.
	base := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 2})
	com := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: COM, Windows: 2})
	sp := float64(base.BusyLatency()) / float64(com.BusyLatency())
	if sp < 1.5 || sp > 5 {
		t.Errorf("A2 COM speedup = %.2f, want 1.5..5", sp)
	}
	lat := base.RoutineLatency()
	if lat[energy.DataTransfer] <= lat[energy.AppCompute] {
		t.Error("baseline transfer latency not dominant")
	}
}

func TestUplinkRoutingByMode(t *testing.T) {
	// The JSON formatter pushes a real document upstream every window.
	base := mustRun(t, Config{Apps: newApps(t, apps.ArduinoJSON), Scheme: Baseline, Windows: 2})
	if base.UpstreamBytes == 0 {
		t.Fatal("no upstream bytes recorded")
	}
	mainTx := base.PerComponent["radio:main"][energy.AppCompute]
	mcuTx := base.PerComponent["radio:mcu"][energy.AppCompute]
	if mainTx <= 0 || mcuTx != 0 {
		t.Errorf("baseline uplink: main=%v mcu=%v, want main only", mainTx, mcuTx)
	}

	com := mustRun(t, Config{Apps: newApps(t, apps.ArduinoJSON), Scheme: COM, Windows: 2})
	mainTx = com.PerComponent["radio:main"][energy.AppCompute]
	mcuTx = com.PerComponent["radio:mcu"][energy.AppCompute]
	if mcuTx <= 0 || mainTx != 0 {
		t.Errorf("COM uplink: main=%v mcu=%v, want MCU only", mainTx, mcuTx)
	}
	if com.UpstreamBytes != base.UpstreamBytes {
		t.Errorf("upstream bytes differ: %d vs %d", com.UpstreamBytes, base.UpstreamBytes)
	}
}

func TestSkipAppComputeSkipsUplink(t *testing.T) {
	res := mustRun(t, Config{
		Apps: newApps(t, apps.ArduinoJSON), Scheme: Baseline, Windows: 1, SkipAppCompute: true,
	})
	if res.UpstreamBytes != 0 {
		t.Errorf("upstream = %d with SkipAppCompute", res.UpstreamBytes)
	}
}

func TestOutputLatencyOrdering(t *testing.T) {
	// Baseline results land essentially at window close; Batching adds the
	// bulk transfer; COM adds the (slower) MCU compute tail. All stay well
	// under the QoS deadline.
	base := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 3})
	bat := mustRun(t, Config{Apps: newApps(t, apps.StepCounter), Scheme: Batching, Windows: 3})
	lb, lbat := base.OutputLatency(), bat.OutputLatency()
	if lb.Count != 3 || lbat.Count != 3 {
		t.Fatalf("counts = %d, %d", lb.Count, lbat.Count)
	}
	if lbat.Mean <= lb.Mean {
		t.Errorf("batching latency %v not above baseline %v", lbat.Mean, lb.Mean)
	}
	if lbat.Max > time.Second {
		t.Errorf("batching latency %v exceeds a window", lbat.Max)
	}
}

func TestTenAppConcurrentBaselineSaturates(t *testing.T) {
	// The full light catalog concurrently oversubscribes the serialized IO
	// path (~12k transfers/s at ~0.24 ms each): the hub falls behind and
	// QoS violations appear — the "10 apps running" regime the paper's
	// Figure 1 motivates optimizing.
	res := mustRun(t, Config{
		Apps: newApps(t, catalog.LightIDs...), Scheme: Baseline, Windows: 3, SkipAppCompute: true,
	})
	if res.QoSViolations == 0 {
		t.Error("10 concurrent baseline apps met QoS; expected IO saturation")
	}
	// Batching collapses interrupts but the mix's ~134 KB/s of sensor data
	// still exceeds the 117 KB/s link: the hub keeps falling behind. Only
	// removing data from the link (offloading) can make this mix feasible.
	bat := mustRun(t, Config{
		Apps: newApps(t, catalog.LightIDs...), Scheme: Batching, Windows: 3, SkipAppCompute: true,
	})
	if bat.QoSViolations == 0 {
		t.Error("batching met QoS despite a link-oversubscribed mix")
	}
	if bat.TotalJoules() >= res.TotalJoules() {
		t.Error("batching did not save energy on the 10-app mix")
	}
}

func TestParseScheme(t *testing.T) {
	cases := map[string]Scheme{
		"baseline": Baseline, "Batching": Batching, " COM ": COM,
		"bcom": BCOM, "BEAM": BEAM,
	}
	for in, want := range cases {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScheme("warp"); !errors.Is(err, ErrConfig) {
		t.Errorf("unknown scheme err = %v", err)
	}
}

// TestScheduleAllQueuesOneReadPerStream pins the chained read series:
// scheduleAll reserves every read's sequence number but queues only each
// stream's first read, so the event heap stays O(streams) deep however many
// reads the run holds, and the chain still delivers every one of them.
func TestScheduleAllQueuesOneReadPerStream(t *testing.T) {
	r, err := NewArena().prepare(Config{
		Apps:   newApps(t, apps.StepCounter, apps.M2X, apps.Earthquake),
		Scheme: Baseline, Windows: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := r.sched.Pending()
	if err := r.scheduleAll(); err != nil {
		t.Fatal(err)
	}
	if len(r.streams) < 2 || r.res.ScheduledSamples <= 10*len(r.streams) {
		t.Fatalf("%d streams, %d reads: scenario too small to tell one read per stream from every read",
			len(r.streams), r.res.ScheduledSamples)
	}
	if got, want := r.sched.Pending()-before, len(r.streams); got != want {
		t.Errorf("scheduleAll queued %d events, want %d (one per stream, not all %d reads)",
			got, want, r.res.ScheduledSamples)
	}
	if err := r.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if r.res.DeliveredSamples != r.res.ScheduledSamples {
		t.Errorf("delivered %d of %d scheduled reads", r.res.DeliveredSamples, r.res.ScheduledSamples)
	}
}

// TestXferSlotSize pins the transfer slot every interrupt-and-transfer chain
// fills (DESIGN.md §7): it names its stream or app state by index, so a field
// that makes it larger, or a pointer back in it, makes every transfer dearer.
func TestXferSlotSize(t *testing.T) {
	if got, max := reflect.TypeOf(xfer{}).Size(), uintptr(24); got > max {
		t.Errorf("xfer is %d bytes, want at most %d: see DESIGN.md §7 before growing a hot record", got, max)
	}
}
