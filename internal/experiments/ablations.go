// Ablations: parameter sweeps over the design choices DESIGN.md calls out.
// They are not paper figures — they probe *why* the paper's results look the
// way they do and where they stop holding.
package experiments

import (
	"fmt"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/energy"
	"iothub/internal/hub"
	"iothub/internal/report"
	"iothub/internal/sensor"
	"iothub/internal/trace"
)

// Ablations lists the ablation studies (run via cmd/experiments -id abl-*).
func Ablations() []Experiment {
	return []Experiment{
		{ID: "abl-batchram", Title: "Ablation: batching vs MCU RAM", Run: AblBatchRAM},
		{ID: "abl-link", Title: "Ablation: link bandwidth sweep", Run: AblLinkBandwidth},
		{ID: "abl-governor", Title: "Ablation: idle-governor contribution", Run: AblGovernor},
		{ID: "abl-slowdown", Title: "Ablation: MCU slowdown vs COM speedup", Run: AblMCUSlowdown},
		{ID: "abl-dma", Title: "Ablation: DMA link (§IV-F future work)", Run: AblDMA},
		{ID: "abl-faults", Title: "Ablation: sensor read-failure injection", Run: AblFaults},
		{ID: "abl-chaos", Title: "Ablation: hardware fault injection vs energy and QoS", Run: AblChaos},
		{ID: "abl-profile", Title: "Ablation: measured Go implementations vs calibration", Run: AblProfile},
		{ID: "abl-fleet12", Title: "Ablation: Fig. 12 savings vs QoS rate (fleet sweep)", Run: AblFleet12},
		{ID: "abl-observer", Title: "Ablation: observer effect of in-situ measurement", Run: AblObserver},
		{ID: "abl-harvest", Title: "Ablation: scheme survival on battery + harvest power", Run: AblHarvest},
	}
}

// runWith executes a scenario under modified hardware parameters.
func runWith(params hub.Params, scheme hub.Scheme, ids ...apps.ID) (*hub.RunResult, error) {
	s := hub.Scenario{Apps: ids, Scheme: scheme, Windows: Windows, Seed: Seed, SkipAppCompute: true}
	return runScenario(s, func(c *hub.Config) { c.Params = &params })
}

// AblBatchRAM sweeps the MCU's usable RAM and shows how batching degrades to
// per-chunk flushing as the buffer shrinks (the "limited capacity buffers"
// of the paper's abstract). Workload: M2X (20.5 KB per window).
func AblBatchRAM() (*Result, error) {
	base, err := runWith(hub.DefaultParams(), hub.Baseline, apps.M2X)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Ablation: batching saving vs usable MCU RAM (M2X, 20.5 KB/window)",
		Header: []string{"usable RAM", "flushes/window", "interrupts/window", "saving"},
		Notes: []string{
			"small buffers force early flushes (more interrupts) yet preserve most of the saving:",
			"the CPU still sleeps between flushes — consistent with abl-governor, sleep dominates interrupt reduction",
		},
	}
	values := map[string]float64{}
	for _, kb := range []int{1, 2, 4, 8, 16, 32, 64} {
		params := hub.DefaultParams()
		params.MCU.ReservedBytes = params.MCU.RAMBytes - kb*1024
		res, err := runWith(params, hub.Batching, apps.M2X)
		if err != nil {
			return nil, err
		}
		saving := 1 - res.TotalJoules()/base.TotalJoules()
		key := fmt.Sprintf("saving:%dKB", kb)
		values[key] = saving
		values[fmt.Sprintf("flushes:%dKB", kb)] = float64(res.BatchFlushes) / Windows
		t.AddRow(fmt.Sprintf("%d KB", kb),
			report.Cell(float64(res.BatchFlushes)/Windows),
			report.Cell(float64(res.Interrupts)/Windows),
			report.Percent(saving))
	}
	return &Result{ID: "abl-batchram", Title: t.Title, Table: t, Values: values}, nil
}

// AblLinkBandwidth sweeps the wire bandwidth: a faster link shrinks the data
// transfer routine that both Batching and COM attack, so their advantage
// over Baseline narrows.
func AblLinkBandwidth() (*Result, error) {
	t := &report.Table{
		Title:  "Ablation: scheme savings vs link bandwidth (step counter)",
		Header: []string{"bandwidth", "baseline mJ/win", "batching saving", "COM saving"},
	}
	values := map[string]float64{}
	for _, kbps := range []float64{29, 58, 117, 234, 468, 936} {
		params := hub.DefaultParams()
		params.Link.BytesPerSec = kbps * 1000
		base, err := runWith(params, hub.Baseline, apps.StepCounter)
		if err != nil {
			return nil, err
		}
		bat, err := runWith(params, hub.Batching, apps.StepCounter)
		if err != nil {
			return nil, err
		}
		com, err := runWith(params, hub.COM, apps.StepCounter)
		if err != nil {
			return nil, err
		}
		bs := 1 - bat.TotalJoules()/base.TotalJoules()
		cs := 1 - com.TotalJoules()/base.TotalJoules()
		key := fmt.Sprintf("%.0fKBps", kbps)
		values["batching:"+key] = bs
		values["com:"+key] = cs
		t.AddRow(fmt.Sprintf("%.0f KB/s", kbps),
			report.Cell(perWindow(base)*1000),
			report.Percent(bs), report.Percent(cs))
	}
	return &Result{ID: "abl-link", Title: t.Title, Table: t, Values: values}, nil
}

// AblGovernor isolates where Batching's saving comes from by disabling the
// CPU's ability to sleep (SleepW = WFIW): what remains is purely the
// interrupt/transfer amortization. The paper attributes most of the saving
// to the CPU sleeping longer (§III-A observation 1).
func AblGovernor() (*Result, error) {
	t := &report.Table{
		Title:  "Ablation: batching saving with and without CPU sleep (step counter)",
		Header: []string{"configuration", "batching saving"},
	}
	values := map[string]float64{}
	normal := hub.DefaultParams()
	noSleep := hub.DefaultParams()
	noSleep.CPU.SleepW = noSleep.CPU.WFIW
	noSleep.CPU.DeepSleepW = noSleep.CPU.WFIW
	for _, cfg := range []struct {
		label  string
		params hub.Params
		key    string
	}{
		{"sleep enabled (default)", normal, "withSleep"},
		{"sleep disabled (stall-only)", noSleep, "withoutSleep"},
	} {
		base, err := runWith(cfg.params, hub.Baseline, apps.StepCounter)
		if err != nil {
			return nil, err
		}
		bat, err := runWith(cfg.params, hub.Batching, apps.StepCounter)
		if err != nil {
			return nil, err
		}
		saving := 1 - bat.TotalJoules()/base.TotalJoules()
		values[cfg.key] = saving
		t.AddRow(cfg.label, report.Percent(saving))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"sleeping contributes %.0f of the %.0f percentage points (§III-A: observation 1 dominates observation 2)",
		(values["withSleep"]-values["withoutSleep"])*100, values["withSleep"]*100))
	return &Result{ID: "abl-governor", Title: t.Title, Table: t, Values: values}, nil
}

// AblMCUSlowdown sweeps the MCU's slowdown factor: as the MCU gets slower,
// COM's speedup shrinks and more apps cross below 1x (the paper's A3/A8
// regime expands).
func AblMCUSlowdown() (*Result, error) {
	t := &report.Table{
		Title:  "Ablation: COM speedup vs MCU slowdown factor",
		Header: []string{"slowdown", "avg speedup", "apps slower than baseline"},
	}
	values := map[string]float64{}
	ids := []apps.ID{
		apps.CoAPServer, apps.StepCounter, apps.ArduinoJSON, apps.M2X,
		apps.DropboxMgr, apps.Earthquake, apps.Heartbeat, apps.Fingerprint,
	}
	for _, slow := range []float64{5, 19, 40, 80, 160} {
		params := hub.DefaultParams()
		params.MCU.BaseSlowdown = slow
		var sum float64
		slower := 0
		for _, id := range ids {
			base, err := runWith(params, hub.Baseline, id)
			if err != nil {
				return nil, err
			}
			com, err := runWith(params, hub.COM, id)
			if err != nil {
				return nil, err
			}
			sp := float64(base.BusyLatency()) / float64(com.BusyLatency())
			sum += sp
			if sp < 1 {
				slower++
			}
		}
		avg := sum / float64(len(ids))
		key := fmt.Sprintf("%.0fx", slow)
		values["avg:"+key] = avg
		values["slower:"+key] = float64(slower)
		t.AddRow(fmt.Sprintf("%.0fx", slow), fmt.Sprintf("%.2fx", avg), report.Cell(slower))
	}
	return &Result{ID: "abl-slowdown", Title: t.Title, Table: t, Values: values}, nil
}

// AblDMA evaluates the paper's §IV-F future-work proposal: a DMA engine on
// the MCU link, so the CPU no longer baby-sits transfers. It targets exactly
// the regime the paper says software schemes fail in — heavy-weight apps.
func AblDMA() (*Result, error) {
	t := &report.Table{
		Title:  "Ablation: DMA link vs software transfers (§IV-F)",
		Header: []string{"scenario", "scheme", "no DMA (mJ/win)", "DMA (mJ/win)", "DMA saving"},
	}
	values := map[string]float64{}
	scenarios := []struct {
		label  string
		scheme hub.Scheme
		ids    []apps.ID
	}{
		{"A2 baseline", hub.Baseline, []apps.ID{apps.StepCounter}},
		{"A11+A6 baseline", hub.Baseline, []apps.ID{apps.SpeechToTxt, apps.DropboxMgr}},
		{"A11+A6 batching", hub.Batching, []apps.ID{apps.SpeechToTxt, apps.DropboxMgr}},
	}
	for _, sc := range scenarios {
		plain, err := runWith(hub.DefaultParams(), sc.scheme, sc.ids...)
		if err != nil {
			return nil, err
		}
		dmaParams := hub.DefaultParams()
		dmaParams.DMA = true
		dma, err := runWith(dmaParams, sc.scheme, sc.ids...)
		if err != nil {
			return nil, err
		}
		saving := 1 - dma.TotalJoules()/plain.TotalJoules()
		key := sc.label
		values[key] = saving
		t.AddRow(sc.label, sc.scheme.String(),
			report.Cell(perWindow(plain)*1000),
			report.Cell(perWindow(dma)*1000),
			report.Percent(saving))
	}
	t.Notes = append(t.Notes,
		"DMA attacks the CPU-side transfer cost directly, which is why the paper proposes it for heavy-weight workloads")
	return &Result{ID: "abl-dma", Title: t.Title, Table: t, Values: values}, nil
}

// AblFaults sweeps injected sensor-failure rates (§II-B Task I: availability
// checks can fail) and measures the retry overhead on collection energy and
// the delivery loss once retries exhaust.
func AblFaults() (*Result, error) {
	t := &report.Table{
		Title:  "Ablation: sensor read failures vs energy and delivery (step counter, Baseline)",
		Header: []string{"fail every", "retries/window", "dropped/window", "collection mJ/win", "total mJ/win"},
		Notes:  []string{"failures cost a full re-read; exhausted retries shrink the window"},
	}
	values := map[string]float64{}
	for _, n := range []int{0, 100, 10, 2, 1} {
		s := hub.Scenario{Apps: []apps.ID{apps.StepCounter}, Scheme: hub.Baseline, Windows: Windows, Seed: Seed, SkipAppCompute: true}
		if n > 0 {
			s.Faults = fmt.Sprintf("sensor-fail:on=%s,every=%d", sensor.Accelerometer, n)
		}
		res, err := runScenario(s, nil)
		if err != nil {
			return nil, err
		}
		label := "never"
		if n > 0 {
			label = fmt.Sprintf("1 in %d", n)
		}
		coll := res.Energy[energy.DataCollection] / Windows
		values[fmt.Sprintf("retries:%d", n)] = float64(res.ReadRetries) / Windows
		values[fmt.Sprintf("dropped:%d", n)] = float64(res.DroppedSamples) / Windows
		values[fmt.Sprintf("collection:%d", n)] = coll
		t.AddRow(label,
			report.Cell(float64(res.ReadRetries)/Windows),
			report.Cell(float64(res.DroppedSamples)/Windows),
			report.Cell(coll*1000),
			report.Cell(perWindow(res)*1000))
	}
	return &Result{ID: "abl-faults", Title: t.Title, Table: t, Values: values}, nil
}

// AblChaos drives the full-hub fault engine (internal/faults) across one
// scenario per hardware layer and reports what each class of fault costs in
// energy and QoS, and how the resilience layer absorbs it. Every run passes
// the post-simulation invariant checker — injected faults consume energy,
// they never make it vanish.
func AblChaos() (*Result, error) {
	type scenario struct {
		key      string
		label    string
		scheme   hub.Scheme
		ids      []apps.ID
		schedule string
		pol      *hub.ResiliencePolicy
	}
	scenarios := []scenario{
		{key: "clean", label: "clean (baseline A2)",
			scheme: hub.Baseline, ids: []apps.ID{apps.StepCounter}},
		{key: "corrupt", label: "link corrupt p=0.02",
			scheme: hub.Baseline, ids: []apps.ID{apps.StepCounter},
			schedule: "seed=7; link-corrupt:prob=0.02"},
		{key: "corruptloss", label: "corrupt p=0.02 + loss p=0.005",
			scheme: hub.Baseline, ids: []apps.ID{apps.StepCounter},
			schedule: "seed=7; link-corrupt:prob=0.02; link-loss:prob=0.005"},
		{key: "sensor", label: "sensor slow x4 + stuck",
			scheme: hub.Baseline, ids: []apps.ID{apps.StepCounter},
			schedule: "seed=7; sensor-slow:every=100,factor=4; sensor-stuck:every=97"},
		{key: "crash", label: "MCU crash + watchdog degrade (COM A6)",
			scheme: hub.COM, ids: []apps.ID{apps.Heartbeat},
			schedule: "seed=7; mcu-crash:at=1100ms,for=150ms"},
		{key: "outage", label: "uplink outage, 100 B buffer (COM A7)",
			scheme: hub.COM, ids: []apps.ID{apps.ArduinoJSON},
			schedule: "seed=7; radio-outage:at=900ms,for=1500ms",
			pol:      &hub.ResiliencePolicy{RadioBufferBytes: 100, DegradeOnCrash: false}},
		{key: "everything", label: "all of the above (batching A2)",
			scheme: hub.Batching, ids: []apps.ID{apps.StepCounter},
			schedule: "seed=7; link-corrupt:prob=0.02; link-loss:prob=0.005; " +
				"sensor-slow:every=100,factor=4; sensor-stuck:every=97; " +
				"mcu-crash:at=1100ms,for=150ms; radio-outage:on=radio:main,at=900ms,for=600ms"},
	}
	t := &report.Table{
		Title:  "Ablation: injected hardware faults vs energy and QoS (3 windows)",
		Header: []string{"scenario", "mJ/win", "Δ energy", "delivered", "QoS viol", "retx", "crashes", "degraded"},
		Notes: []string{
			"Δ energy compares against the same workload with no schedule attached;",
			"every row passed the run-invariant checker: retries, reboots and re-reads all burn accounted energy",
		},
	}
	values := map[string]float64{}
	for _, sc := range scenarios {
		s := hub.Scenario{Apps: sc.ids, Scheme: sc.scheme, Windows: Windows, Seed: Seed}
		clean, err := runScenario(s, nil)
		if err != nil {
			return nil, err
		}
		s.Faults = sc.schedule
		res, err := runScenario(s, func(c *hub.Config) { c.Resilience = sc.pol })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.key, err)
		}
		delta := res.TotalJoules()/clean.TotalJoules() - 1
		delivered := float64(res.DeliveredSamples) / float64(res.ScheduledSamples)
		values["mj:"+sc.key] = perWindow(res) * 1000
		values["delta:"+sc.key] = delta
		values["delivered:"+sc.key] = delivered
		values["qos:"+sc.key] = float64(res.QoSViolations)
		values["retx:"+sc.key] = float64(res.LinkRetransmits)
		values["crashes:"+sc.key] = float64(res.MCUCrashes)
		values["degraded:"+sc.key] = float64(len(res.Degradations))
		values["radiodrops:"+sc.key] = float64(res.RadioDroppedBursts)
		t.AddRow(sc.label,
			report.Cell(perWindow(res)*1000),
			report.Percent(delta),
			report.Percent(delivered),
			report.Cell(res.QoSViolations),
			report.Cell(res.LinkRetransmits),
			report.Cell(res.MCUCrashes),
			report.Cell(len(res.Degradations)))
	}
	return &Result{ID: "abl-chaos", Title: t.Title, Table: t, Values: values}, nil
}

// AblProfile measures the real Go implementations with the oprofile-analog
// profiler and sets them beside the Figure 6 calibration constants. The
// calibration drives the energy model (it describes the paper's embedded C
// code); this table documents how our substitutes actually behave.
func AblProfile() (*Result, error) {
	t := &report.Table{
		Title: "Ablation: measured Go implementations vs Figure 6 calibration",
		Header: []string{
			"app", "calibrated heap (KB)", "measured alloc (KB/win)",
			"calibrated MIPS", "measured wall (ms/win)",
		},
		Notes: []string{
			"measured columns profile this repo's Go code on the build machine;",
			"the simulator prices apps with the calibrated columns (the paper's embedded implementations)",
		},
	}
	values := map[string]float64{}
	light, err := catalog.Light(Seed)
	if err != nil {
		return nil, err
	}
	for _, a := range light {
		sp := a.Spec()
		prof, err := trace.ProfileCompute(a, 2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.ID, err)
		}
		values["alloc:"+string(sp.ID)] = prof.AllocBytesPerWindow
		values["wallMs:"+string(sp.ID)] = prof.WallPerWindow.Seconds() * 1000
		t.AddRow(string(sp.ID),
			report.Cell(float64(sp.MemoryBytes())/1000),
			report.Cell(prof.AllocBytesPerWindow/1000),
			report.Cell(sp.MIPS),
			fmt.Sprintf("%.2f", prof.WallPerWindow.Seconds()*1000))
	}
	return &Result{ID: "abl-profile", Title: t.Title, Table: t, Values: values}, nil
}
