// Package experiments regenerates every table and figure of the paper's
// evaluation (§II, §IV) from the simulator. Each experiment returns both a
// rendered table and the key metrics as named values, so the CLI, the
// benchmark harness, and the test suite (which asserts the paper's headline
// numbers within tolerance bands) share one implementation.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/energy"
	"iothub/internal/fleet"
	"iothub/internal/hub"
	"iothub/internal/report"
	"iothub/internal/sensor"
	"iothub/internal/sim"
	"iothub/internal/trace"
)

// Windows is the number of QoS windows each scenario simulates; results are
// reported per window.
const Windows = 3

// Seed drives all synthetic signals, making every experiment reproducible.
const Seed = 1

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Table *report.Table
	// Chart optionally renders the figure as ASCII bars (bar figures only).
	Chart *report.BarChart
	// Values carries the headline metrics by name for programmatic checks.
	Values map[string]float64
}

// Experiment is a runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Result, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: sensor specifications", Run: Table1},
		{ID: "table2", Title: "Table II: workload features", Run: Table2},
		{ID: "fig1", Title: "Figure 1: idle hub vs baseline energy", Run: Fig1},
		{ID: "fig3", Title: "Figure 3: SC/M2X energy breakdown and BEAM", Run: Fig3},
		{ID: "fig4", Title: "Figure 4: data transfer energy split", Run: Fig4},
		{ID: "fig5", Title: "Figure 5: power-state timelines", Run: Fig5},
		{ID: "fig6", Title: "Figure 6: memory usage and MIPS", Run: Fig6},
		{ID: "fig7", Title: "Figure 7: step counter Baseline vs Batching", Run: Fig7},
		{ID: "fig8", Title: "Figure 8: step counter timing breakdown", Run: Fig8},
		{ID: "fig9", Title: "Figure 9: step counter three schemes", Run: Fig9},
		{ID: "fig10", Title: "Figure 10: single-app energy, three schemes", Run: Fig10},
		{ID: "fig11", Title: "Figure 11: multi-app combos", Run: Fig11},
		{ID: "fig12", Title: "Figure 12: heavy-weight scenarios", Run: Fig12},
		{ID: "fig13", Title: "Figure 13: COM performance speedup", Run: Fig13},
	}
}

// ErrUnknown is returned by ByID for unknown experiment IDs.
var ErrUnknown = errors.New("experiments: unknown experiment")

// ByID finds an experiment or ablation by its ID ("fig10", "table2",
// "abl-dma", ...).
func ByID(id string) (Experiment, error) {
	for _, e := range append(All(), Ablations()...) {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w: %q", ErrUnknown, id)
}

// newApps instantiates catalog workloads.
func newApps(ids ...apps.ID) ([]apps.App, error) {
	out := make([]apps.App, 0, len(ids))
	for _, id := range ids {
		a, err := catalog.New(id, Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// run executes one scenario and returns its result.
func run(scheme hub.Scheme, assign map[apps.ID]hub.Mode, ids ...apps.ID) (*hub.RunResult, error) {
	list, err := newApps(ids...)
	if err != nil {
		return nil, err
	}
	return hub.Run(hub.Config{
		Apps:    list,
		Scheme:  scheme,
		Assign:  assign,
		Windows: Windows,
	})
}

// perWindow normalizes a run's total energy to joules per window.
func perWindow(r *hub.RunResult) float64 {
	return r.TotalJoules() / Windows
}

// Table1 reproduces Table I from the sensor registry.
func Table1() (*Result, error) {
	t := &report.Table{
		Title: "Table I: sensor specifications",
		Header: []string{
			"id", "name", "bus", "read time", "power typ (mW)",
			"sample", "bytes", "QoS rate (Hz)", "MCU-friendly",
		},
	}
	for _, sp := range sensor.All() {
		t.AddRow(
			string(sp.ID), sp.Name, sp.Bus.String(), sp.ReadTime.String(),
			report.Cell(sp.PowerTyp*1000), sp.DataType, report.Cell(sp.SampleBytes),
			report.Cell(sp.QoSRateHz), report.Cell(sp.MCUFriendly),
		)
	}
	return &Result{
		ID: "table1", Title: t.Title, Table: t,
		Values: map[string]float64{"sensors": float64(len(sensor.All()))},
	}, nil
}

// Table2 reproduces Table II, with the per-window interrupt counts and data
// volumes computed by the model (tests assert they match the paper exactly).
func Table2() (*Result, error) {
	t := &report.Table{
		Title: "Table II: workload features",
		Header: []string{
			"id", "benchmark", "category", "sensors",
			"data (KB)", "# interrupts", "task",
		},
		Notes: []string{
			"A5 data volume is 36.46 KB vs the paper's 36.91 KB: the paper's own rows are inconsistent (DESIGN.md §5)",
		},
	}
	values := map[string]float64{}
	all, err := catalog.All(Seed)
	if err != nil {
		return nil, err
	}
	for _, a := range all {
		sp := a.Spec()
		irq, err := sp.InterruptsPerWindow()
		if err != nil {
			return nil, err
		}
		bytes, err := sp.DataBytesPerWindow()
		if err != nil {
			return nil, err
		}
		sensorsCol := ""
		for i, u := range sp.Sensors {
			if i > 0 {
				sensorsCol += ","
			}
			sensorsCol += string(u.Sensor)
		}
		t.AddRow(
			string(sp.ID), sp.Name, sp.Category, sensorsCol,
			report.Cell(float64(bytes)/1024), report.Cell(irq), sp.Task,
		)
		values["irq:"+string(sp.ID)] = float64(irq)
		values["bytes:"+string(sp.ID)] = float64(bytes)
	}
	return &Result{ID: "table2", Title: t.Title, Table: t, Values: values}, nil
}

// Fig1 reproduces Figure 1: the baseline execution of the ten light apps
// costs ~9.5x the idle hub.
func Fig1() (*Result, error) {
	idle, err := hub.RunIdle(time.Second, nil)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, id := range catalog.LightIDs {
		res, err := run(hub.Baseline, nil, id)
		if err != nil {
			return nil, err
		}
		sum += res.TotalJoules() / res.Duration.Seconds()
	}
	avg := sum / float64(len(catalog.LightIDs))
	ratio := avg / idle.TotalJoules()
	t := &report.Table{
		Title:  "Figure 1: energy of an idle hub vs the 10-app baseline average",
		Header: []string{"configuration", "power (W)", "normalized"},
		Notes:  []string{"paper: baseline = 9.5x idle"},
	}
	t.AddRow("idle hub", report.Cell(idle.TotalJoules()), "1.00x")
	t.AddRow("baseline (A1-A10 avg)", report.Cell(avg), fmt.Sprintf("%.1fx", ratio))
	return &Result{
		ID: "fig1", Title: t.Title, Table: t,
		Values: map[string]float64{"ratio": ratio, "idleWatts": idle.TotalJoules()},
	}, nil
}

// breakdownRow renders a run as the four-routine millijoule row the paper's
// stacked bars show.
func breakdownRow(t *report.Table, label string, r *hub.RunResult) {
	b := r.Energy
	t.AddRow(
		label,
		report.Millijoules(b[energy.DataCollection]/Windows),
		report.Millijoules(b[energy.Interrupt]/Windows),
		report.Millijoules(b[energy.DataTransfer]/Windows),
		report.Millijoules(b[energy.AppCompute]/Windows),
		report.Millijoules(b.Attributed()/Windows),
	)
}

var breakdownHeader = []string{
	"scenario", "collection", "interrupt", "transfer", "compute", "total",
}

// Fig3 reproduces Figure 3: SC and M2X alone, concurrent, and with BEAM.
func Fig3() (*Result, error) {
	sc, err := run(hub.Baseline, nil, apps.StepCounter)
	if err != nil {
		return nil, err
	}
	m2x, err := run(hub.Baseline, nil, apps.M2X)
	if err != nil {
		return nil, err
	}
	both, err := run(hub.Baseline, nil, apps.StepCounter, apps.M2X)
	if err != nil {
		return nil, err
	}
	beam, err := run(hub.BEAM, nil, apps.StepCounter, apps.M2X)
	if err != nil {
		return nil, err
	}
	t := &report.Table{Title: "Figure 3: energy breakdown, SC and M2X", Header: breakdownHeader}
	breakdownRow(t, "SC", sc)
	breakdownRow(t, "M2X", m2x)
	breakdownRow(t, "SC+M2X baseline", both)
	breakdownRow(t, "SC+M2X BEAM", beam)
	saving := 1 - beam.TotalJoules()/both.TotalJoules()
	t.Notes = append(t.Notes, fmt.Sprintf("BEAM saves %s (paper: 9%%; they share only the accelerometer)", report.Percent(saving)))
	return &Result{
		ID: "fig3", Title: t.Title, Table: t,
		Values: map[string]float64{
			"scJ":        perWindow(sc),
			"m2xJ":       perWindow(m2x),
			"bothJ":      perWindow(both),
			"beamSaving": saving,
			"m2xOverSC":  perWindow(m2x) / perWindow(sc),
			"xferFracSC": sc.Energy.Fraction(energy.DataTransfer),
			"irqFracSC":  sc.Energy.Fraction(energy.Interrupt),
			"collFracSC": sc.Energy.Fraction(energy.DataCollection),
		},
	}, nil
}

// Fig4 reproduces Figure 4: who consumes the data-transfer routine's energy —
// the CPU-side software stack, the MCU-side stack, or the physical wire.
func Fig4() (*Result, error) {
	res, err := run(hub.Baseline, nil, apps.StepCounter)
	if err != nil {
		return nil, err
	}
	p := hub.DefaultParams()
	cpuJ := res.CPUBusy[energy.DataTransfer].Seconds() * p.CPU.ActiveW
	mcuJ := res.MCUBusy[energy.DataTransfer].Seconds() * p.MCU.ActiveW
	wireJ := res.PerComponent["link"].Total()
	total := cpuJ + mcuJ + wireJ
	t := &report.Table{
		Title:  "Figure 4: energy split of the data transfer routine",
		Header: []string{"consumer", "energy", "share"},
		Notes:  []string{"paper: CPU 77%, MCU 13%, physical transfer 10%"},
	}
	t.AddRow("CPU software stack", report.Millijoules(cpuJ/Windows), report.Percent(cpuJ/total))
	t.AddRow("MCU software stack", report.Millijoules(mcuJ/Windows), report.Percent(mcuJ/total))
	t.AddRow("physical transfer", report.Millijoules(wireJ/Windows), report.Percent(wireJ/total))
	return &Result{
		ID: "fig4", Title: t.Title, Table: t,
		Values: map[string]float64{
			"cpuShare":  cpuJ / total,
			"mcuShare":  mcuJ / total,
			"wireShare": wireJ / total,
		},
	}, nil
}

// Fig5 reproduces Figure 5: CPU power-state timelines under Baseline and
// Batching for the step counter.
func Fig5() (*Result, error) {
	runTraced := func(scheme hub.Scheme) (*hub.RunResult, error) {
		list, err := newApps(apps.StepCounter)
		if err != nil {
			return nil, err
		}
		return hub.Run(hub.Config{Apps: list, Scheme: scheme, Windows: 2, TracePower: true})
	}
	base, err := runTraced(hub.Baseline)
	if err != nil {
		return nil, err
	}
	bat, err := runTraced(hub.Batching)
	if err != nil {
		return nil, err
	}
	p := hub.DefaultParams()
	end := sim.Time(2 * time.Second)
	baseSleep := trace.SleepFraction(base.Traces["cpu"], p.CPU.SleepW, end)
	batSleep := trace.SleepFraction(bat.Traces["cpu"], p.CPU.SleepW, end)
	t := &report.Table{
		Title:  "Figure 5: CPU power-state occupancy, step counter",
		Header: []string{"scheme", "active+stall", "asleep", "sleep fraction"},
		Notes: []string{
			"paper: Baseline keeps the CPU active the whole time; Batching lets it sleep ~93% of the window",
		},
	}
	row := func(label string, tr []energy.Sample, frac float64) {
		var awake, asleep time.Duration
		for w, d := range trace.Occupancy(tr, end) {
			if w <= p.CPU.SleepW {
				asleep += d
			} else {
				awake += d
			}
		}
		t.AddRow(label, awake.String(), asleep.String(), report.Percent(frac))
	}
	row("Baseline", base.Traces["cpu"], baseSleep)
	row("Batching", bat.Traces["cpu"], batSleep)
	return &Result{
		ID: "fig5", Title: t.Title, Table: t,
		Values: map[string]float64{
			"baselineSleepFraction": baseSleep,
			"batchingSleepFraction": batSleep,
		},
	}, nil
}

// Fig6 reproduces Figure 6: memory usage and MIPS per workload.
func Fig6() (*Result, error) {
	t := &report.Table{
		Title:  "Figure 6: memory usage and compute demand",
		Header: []string{"app", "heap (B)", "stack (B)", "memory (KB)", "MIPS"},
		Notes:  []string{"paper: avg 26.2 KB memory, avg 47.45 MIPS over A1-A10"},
	}
	light, err := catalog.Light(Seed)
	if err != nil {
		return nil, err
	}
	values := map[string]float64{}
	var memSum, mipsSum float64
	for _, a := range light {
		sp := a.Spec()
		t.AddRow(
			string(sp.ID), report.Cell(sp.HeapBytes), report.Cell(sp.StackBytes),
			report.Cell(float64(sp.MemoryBytes())/1000), report.Cell(sp.MIPS),
		)
		memSum += float64(sp.MemoryBytes())
		mipsSum += sp.MIPS
		values["mips:"+string(sp.ID)] = sp.MIPS
	}
	values["avgMemKB"] = memSum / 10 / 1000
	values["avgMIPS"] = mipsSum / 10
	t.AddRow("Avg.", "", "", report.Cell(values["avgMemKB"]), report.Cell(values["avgMIPS"]))
	return &Result{ID: "fig6", Title: t.Title, Table: t, Values: values}, nil
}

// Fig7 reproduces Figure 7: the step counter under Baseline vs Batching,
// normalized to Baseline.
func Fig7() (*Result, error) {
	base, err := run(hub.Baseline, nil, apps.StepCounter)
	if err != nil {
		return nil, err
	}
	bat, err := run(hub.Batching, nil, apps.StepCounter)
	if err != nil {
		return nil, err
	}
	t := normalizedTable("Figure 7: step counter, Baseline vs Batching", base,
		labeled{"Baseline", base}, labeled{"Batching", bat})
	saving := 1 - bat.TotalJoules()/base.TotalJoules()
	t.Notes = append(t.Notes,
		fmt.Sprintf("batching saves %s; interrupts drop %d -> %d per window (paper: 1000 -> 1, 63%% saving)",
			report.Percent(saving), base.Interrupts/Windows, bat.Interrupts/Windows))
	return &Result{
		ID: "fig7", Title: t.Title, Table: t,
		Values: map[string]float64{
			"saving":             saving,
			"baselineInterrupts": float64(base.Interrupts) / Windows,
			"batchingInterrupts": float64(bat.Interrupts) / Windows,
		},
	}, nil
}

// Fig8 reproduces Figure 8: per-window routine times for the step counter
// under Baseline and COM.
func Fig8() (*Result, error) {
	base, err := run(hub.Baseline, nil, apps.StepCounter)
	if err != nil {
		return nil, err
	}
	com, err := run(hub.COM, nil, apps.StepCounter)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Figure 8: step counter timing breakdown (ms per window)",
		Header: []string{"scheme", "collection", "interrupt", "transfer", "compute", "total"},
		Notes:  []string{"paper: Baseline ~342 ms vs COM ~122 ms of routine time"},
	}
	rowMs := func(label string, r *hub.RunResult) float64 {
		lat := r.RoutineLatency()
		total := r.BusyLatency().Seconds() * 1000 / Windows
		t.AddRow(label,
			fmt.Sprintf("%.1f", lat[energy.DataCollection].Seconds()*1000/Windows),
			fmt.Sprintf("%.1f", lat[energy.Interrupt].Seconds()*1000/Windows),
			fmt.Sprintf("%.1f", lat[energy.DataTransfer].Seconds()*1000/Windows),
			fmt.Sprintf("%.1f", lat[energy.AppCompute].Seconds()*1000/Windows),
			fmt.Sprintf("%.1f", total),
		)
		return total
	}
	baseMs := rowMs("Baseline", base)
	comMs := rowMs("COM", com)
	return &Result{
		ID: "fig8", Title: t.Title, Table: t,
		Values: map[string]float64{"baselineMs": baseMs, "comMs": comMs},
	}, nil
}

// Fig9 reproduces Figure 9: the step counter under all three schemes.
func Fig9() (*Result, error) {
	base, err := run(hub.Baseline, nil, apps.StepCounter)
	if err != nil {
		return nil, err
	}
	bat, err := run(hub.Batching, nil, apps.StepCounter)
	if err != nil {
		return nil, err
	}
	com, err := run(hub.COM, nil, apps.StepCounter)
	if err != nil {
		return nil, err
	}
	t := normalizedTable("Figure 9: step counter, Baseline/Batching/COM", base,
		labeled{"Baseline", base}, labeled{"Batching", bat}, labeled{"COM", com})
	return &Result{
		ID: "fig9", Title: t.Title, Table: t,
		Values: map[string]float64{
			"batchingFrac": bat.TotalJoules() / base.TotalJoules(),
			"comFrac":      com.TotalJoules() / base.TotalJoules(),
		},
	}, nil
}

type labeled struct {
	label string
	run   *hub.RunResult
}

// normalizedTable renders runs as percent-of-baseline four-routine rows,
// matching the paper's normalized stacked bars.
func normalizedTable(title string, base *hub.RunResult, rows ...labeled) *report.Table {
	t := &report.Table{
		Title:  title,
		Header: []string{"scheme", "collection", "interrupt", "transfer", "compute", "total"},
	}
	ref := base.Energy.Attributed()
	for _, lr := range rows {
		b := lr.run.Energy
		t.AddRow(lr.label,
			report.Percent(b[energy.DataCollection]/ref),
			report.Percent(b[energy.Interrupt]/ref),
			report.Percent(b[energy.DataTransfer]/ref),
			report.Percent(b[energy.AppCompute]/ref),
			report.Percent(b.Attributed()/ref),
		)
	}
	return t
}

// Fig10 reproduces Figure 10: normalized energy for A1-A10 under the three
// schemes.
func Fig10() (*Result, error) {
	t := &report.Table{
		Title:  "Figure 10: single-app normalized energy (three schemes)",
		Header: []string{"app", "baseline", "batching", "COM", "batching saving", "COM saving"},
		Notes:  []string{"paper averages: Batching saves 52%, COM saves 85%"},
	}
	values := map[string]float64{}
	var batSum, comSum float64
	for _, id := range catalog.LightIDs {
		base, err := run(hub.Baseline, nil, id)
		if err != nil {
			return nil, err
		}
		bat, err := run(hub.Batching, nil, id)
		if err != nil {
			return nil, err
		}
		com, err := run(hub.COM, nil, id)
		if err != nil {
			return nil, err
		}
		bs := 1 - bat.TotalJoules()/base.TotalJoules()
		cs := 1 - com.TotalJoules()/base.TotalJoules()
		batSum += bs
		comSum += cs
		values["batching:"+string(id)] = bs
		values["com:"+string(id)] = cs
		t.AddRow(string(id), "100.0%",
			report.Percent(bat.TotalJoules()/base.TotalJoules()),
			report.Percent(com.TotalJoules()/base.TotalJoules()),
			report.Percent(bs), report.Percent(cs))
	}
	values["avgBatchingSaving"] = batSum / 10
	values["avgCOMSaving"] = comSum / 10
	t.AddRow("Avg.", "100.0%", "", "",
		report.Percent(values["avgBatchingSaving"]), report.Percent(values["avgCOMSaving"]))
	chart := &report.BarChart{Title: "COM saving per app (Fig. 10)"}
	for _, id := range catalog.LightIDs {
		v := values["com:"+string(id)]
		chart.Add(string(id), v, report.Percent(v))
	}
	return &Result{ID: "fig10", Title: t.Title, Table: t, Chart: chart, Values: values}, nil
}

// Combos lists the 14 sensor-sharing app mixes of Figure 11.
var Combos = [][]apps.ID{
	{apps.StepCounter, apps.Blynk},
	{apps.Blynk, apps.Earthquake},
	{apps.M2X, apps.Blynk},
	{apps.ArduinoJSON, apps.Blynk},
	{apps.StepCounter, apps.Earthquake},
	{apps.StepCounter, apps.M2X},
	{apps.M2X, apps.Earthquake},
	{apps.ArduinoJSON, apps.M2X},
	{apps.StepCounter, apps.Blynk, apps.Earthquake},
	{apps.StepCounter, apps.M2X, apps.Blynk},
	{apps.Blynk, apps.Earthquake, apps.M2X},
	{apps.ArduinoJSON, apps.M2X, apps.Blynk},
	{apps.StepCounter, apps.M2X, apps.Earthquake},
	{apps.StepCounter, apps.M2X, apps.Blynk, apps.Earthquake},
}

func comboLabel(ids []apps.ID) string {
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += "+"
		}
		out += string(id)
	}
	return out
}

// Fig11 reproduces Figure 11: the 14 multi-app scenarios under Baseline,
// BEAM, and full offload (all Figure 11 apps are light-weight, so the
// paper's "BCOM" bars are COM).
func Fig11() (*Result, error) {
	t := &report.Table{
		Title:  "Figure 11: multi-app combos, normalized energy",
		Header: []string{"combo", "BEAM", "offload (BCOM)", "BEAM saving", "offload saving"},
		Notes:  []string{"paper averages: BEAM saves 29%, offload saves 70%"},
	}
	values := map[string]float64{}
	var beamSum, comSum float64
	for _, ids := range Combos {
		base, err := run(hub.Baseline, nil, ids...)
		if err != nil {
			return nil, err
		}
		beam, err := run(hub.BEAM, nil, ids...)
		if err != nil {
			return nil, err
		}
		com, err := run(hub.COM, nil, ids...)
		if err != nil {
			return nil, err
		}
		bs := 1 - beam.TotalJoules()/base.TotalJoules()
		cs := 1 - com.TotalJoules()/base.TotalJoules()
		beamSum += bs
		comSum += cs
		label := comboLabel(ids)
		values["beam:"+label] = bs
		values["com:"+label] = cs
		t.AddRow(label,
			report.Percent(beam.TotalJoules()/base.TotalJoules()),
			report.Percent(com.TotalJoules()/base.TotalJoules()),
			report.Percent(bs), report.Percent(cs))
	}
	values["avgBEAMSaving"] = beamSum / float64(len(Combos))
	values["avgOffloadSaving"] = comSum / float64(len(Combos))
	t.AddRow("Avg.", "", "",
		report.Percent(values["avgBEAMSaving"]), report.Percent(values["avgOffloadSaving"]))
	chart := &report.BarChart{Title: "BEAM saving per combo (Fig. 11)"}
	for _, ids := range Combos {
		label := comboLabel(ids)
		v := values["beam:"+label]
		chart.Add(label, v, report.Percent(v))
	}
	return &Result{ID: "fig11", Title: t.Title, Table: t, Chart: chart, Values: values}, nil
}

// Fig12 reproduces Figure 12: scenarios involving the heavy-weight A11.
func Fig12() (*Result, error) {
	t := &report.Table{
		Title:  "Figure 12: heavy-weight scenarios, normalized energy",
		Header: []string{"scenario", "scheme", "normalized", "saving"},
		Notes:  []string{"paper: A11 alone Batching saves 5%; A11+A6 BCOM 9%; A11+A6+A1 BCOM 10%"},
	}
	values := map[string]float64{}
	// addScenario adds one scenario's rows and returns its Baseline run.
	addScenario := func(key string, ids []apps.ID) (*hub.RunResult, error) {
		base, err := run(hub.Baseline, nil, ids...)
		if err != nil {
			return nil, err
		}
		addRow := func(scheme string, r *hub.RunResult) {
			frac := r.TotalJoules() / base.TotalJoules()
			t.AddRow(key, scheme, report.Percent(frac), report.Percent(1-frac))
			values[key+":"+scheme] = 1 - frac
		}
		bat, err := run(hub.Batching, nil, ids...)
		if err != nil {
			return nil, err
		}
		t.AddRow(key, "Baseline", "100.0%", "0.0%")
		if len(ids) > 1 {
			beam, err := run(hub.BEAM, nil, ids...)
			if err != nil {
				return nil, err
			}
			addRow("BEAM", beam)
		}
		addRow("Batching", bat)
		if len(ids) > 1 {
			bcom, err := fleet.RunScenario(hub.Scenario{
				Apps: ids, Scheme: hub.BCOM, Windows: Windows, Seed: Seed,
			})
			if err != nil {
				return nil, err
			}
			addRow("BCOM", bcom)
		}
		return base, nil
	}
	a11, err := addScenario("A11", []apps.ID{apps.SpeechToTxt})
	if err != nil {
		return nil, err
	}
	if _, err := addScenario("A11+A6", []apps.ID{apps.SpeechToTxt, apps.DropboxMgr}); err != nil {
		return nil, err
	}
	if _, err := addScenario("A11+A6+A1", []apps.ID{apps.SpeechToTxt, apps.DropboxMgr, apps.CoAPServer}); err != nil {
		return nil, err
	}
	// Fig. 12a also reports the baseline compute share of A11 (~78%).
	values["A11:computeFraction"] = a11.Energy.Fraction(energy.AppCompute)
	return &Result{ID: "fig12", Title: t.Title, Table: t, Values: values}, nil
}

// Fig13 reproduces Figure 13: COM's performance speedup over Baseline.
func Fig13() (*Result, error) {
	t := &report.Table{
		Title:  "Figure 13: COM performance speedup (routine time ratio)",
		Header: []string{"app", "baseline (ms)", "COM (ms)", "speedup"},
		Notes:  []string{"paper: average 1.88x; A3 ~0.9x and A8 ~0.8x slow down"},
	}
	values := map[string]float64{}
	var sum float64
	for _, id := range catalog.LightIDs {
		base, err := run(hub.Baseline, nil, id)
		if err != nil {
			return nil, err
		}
		com, err := run(hub.COM, nil, id)
		if err != nil {
			return nil, err
		}
		sp := float64(base.BusyLatency()) / float64(com.BusyLatency())
		sum += sp
		values["speedup:"+string(id)] = sp
		t.AddRow(string(id),
			fmt.Sprintf("%.1f", base.BusyLatency().Seconds()*1000/Windows),
			fmt.Sprintf("%.1f", com.BusyLatency().Seconds()*1000/Windows),
			fmt.Sprintf("%.2fx", sp))
	}
	values["avgSpeedup"] = sum / 10
	t.AddRow("Avg.", "", "", fmt.Sprintf("%.2fx", values["avgSpeedup"]))
	chart := &report.BarChart{Title: "COM speedup per app (Fig. 13)"}
	for _, id := range catalog.LightIDs {
		v := values["speedup:"+string(id)]
		chart.Add(string(id), v, fmt.Sprintf("%.2fx", v))
	}
	return &Result{ID: "fig13", Title: t.Title, Table: t, Chart: chart, Values: values}, nil
}
