// Package experiments regenerates every table and figure of the paper's
// evaluation (§II, §IV) from the simulator. Each experiment returns both a
// rendered table and the key metrics as named values, so the CLI, the
// benchmark harness, and the test suite (which asserts the paper's headline
// numbers within tolerance bands) share one implementation.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	// A figure also splits into the hub runs it reads (needs) and a render
	// over their results, so a pass can share runs between figures. Tables,
	// Figs. 5 and 6 and the ablations leave both nil and run whole.
	needs  func() []key
	render func(*results) (*Result, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: sensor specifications", Run: Table1},
		{ID: "table2", Title: "Table II: workload features", Run: Table2},
		{ID: "fig1", Title: "Figure 1: idle hub vs baseline energy", Run: Fig1, needs: fig1Runs, render: fig1},
		{ID: "fig3", Title: "Figure 3: SC/M2X energy breakdown and BEAM", Run: Fig3, needs: fig3Runs, render: fig3},
		{ID: "fig4", Title: "Figure 4: data transfer energy split", Run: Fig4, needs: fig4Runs, render: fig4},
		{ID: "fig5", Title: "Figure 5: power-state timelines", Run: Fig5},
		{ID: "fig6", Title: "Figure 6: memory usage and MIPS", Run: Fig6},
		{ID: "fig7", Title: "Figure 7: step counter Baseline vs Batching", Run: Fig7, needs: fig7Runs, render: fig7},
		{ID: "fig8", Title: "Figure 8: step counter timing breakdown", Run: Fig8, needs: fig8Runs, render: fig8},
		{ID: "fig9", Title: "Figure 9: step counter three schemes", Run: Fig9, needs: fig9Runs, render: fig9},
		{ID: "fig10", Title: "Figure 10: single-app energy, three schemes", Run: Fig10, needs: fig10Runs, render: fig10},
		{ID: "fig11", Title: "Figure 11: multi-app combos", Run: Fig11, needs: fig11Runs, render: fig11},
		{ID: "fig12", Title: "Figure 12: heavy-weight scenarios", Run: Fig12, needs: fig12Runs, render: fig12},
		{ID: "fig13", Title: "Figure 13: COM performance speedup", Run: Fig13, needs: fig13Runs, render: fig13},
	}
}

// ErrUnknown is returned by ByID for unknown experiment IDs. Its text carries
// no package prefix, like the pass's other errors: cmd/experiments adds one.
var ErrUnknown = errors.New("unknown experiment")

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

// key names one hub run a figure reads: a scheme over an app mix, for
// Windows windows at Seed. A pass runs each distinct key once.
type key struct {
	scheme hub.Scheme
	mix    string // app IDs joined by "+", as comboLabel writes them
}

// keys declares each scheme over each mix.
func keys(mixes [][]apps.ID, schemes ...hub.Scheme) (out []key) {
	for _, ids := range mixes {
		for _, s := range schemes {
			out = append(out, key{scheme: s, mix: comboLabel(ids)})
		}
	}
	return out
}

// each declares each scheme over each app alone.
func each(ids []apps.ID, schemes ...hub.Scheme) (out []key) {
	for _, id := range ids {
		out = append(out, keys([][]apps.ID{{id}}, schemes...)...)
	}
	return out
}

// scenario is the hub scenario k runs.
func (k key) scenario() hub.Scenario {
	s := hub.Scenario{Scheme: k.scheme, Windows: Windows, Seed: Seed}
	for _, id := range strings.Split(k.mix, "+") {
		s.Apps = append(s.Apps, apps.ID(id))
	}
	return s
}

// runScenario executes every hub run of the package: through
// fleet.RunScenario, which plans BCOM, or, when tune edits the config for a
// knob a hub.Scenario does not carry, through hub.Run. Tests swap it to
// count runs.
var runScenario = func(s hub.Scenario, tune func(*hub.Config)) (*hub.RunResult, error) {
	if tune == nil {
		return fleet.RunScenario(s)
	}
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	tune(&cfg)
	return hub.Run(cfg)
}

// ran is one run's outcome; the pass keeps it until every figure renders.
type ran struct {
	res *hub.RunResult
	err error // labeled with the run's scenario
}

// results is what a figure's render reads: the runs it declared, shared
// read-only with the other figures of the pass.
type results struct {
	needs []key
	runs  map[key]*ran
	err   error // the first read of a run the figure did not declare
}

// get returns run k's result. A read of a run the figure did not declare
// fails the pass, and reads as an empty result meanwhile.
func (r *results) get(k key) *hub.RunResult {
	if slices.Contains(r.needs, k) {
		return r.runs[k].res
	}
	if r.err == nil {
		r.err = fmt.Errorf("render reads undeclared run %s", k.scenario().Label())
	}
	return &hub.RunResult{Energy: energy.NewBreakdown()}
}

// of is get for scheme s over the mix ids.
func (r *results) of(s hub.Scheme, ids ...apps.ID) *hub.RunResult {
	return r.get(key{scheme: s, mix: comboLabel(ids)})
}

// Regenerate renders exps, in order, from one pass. The pass runs each
// distinct hub run the figures among exps declare once, however many
// figures read it, on a pool of GOMAXPROCS workers that takes one run at a
// time; an experiment that declares nothing (a table, an ablation) runs
// whole on the same pool. The first failing run fails the pass before
// anything renders. Results live for the pass only.
func Regenerate(exps []Experiment) ([]*Result, error) {
	return regenerate(exps, runtime.GOMAXPROCS(0))
}

// regenerate is Regenerate on a pool of the given size, the calling
// goroutine among its workers.
func regenerate(exps []Experiment, workers int) ([]*Result, error) {
	out := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	needs := make([][]key, len(exps))
	runs := map[key]*ran{}
	var whole, single []func()
	for i, e := range exps {
		if e.render == nil {
			whole = append(whole, func() { out[i], errs[i] = e.Run() })
			continue
		}
		needs[i] = e.needs()
		for _, k := range needs[i] {
			if runs[k] == nil {
				r := &ran{}
				runs[k] = r
				single = append(single, func() {
					if r.res, r.err = runScenario(k.scenario(), nil); r.err != nil {
						r.err = fmt.Errorf("%s: %w", k.scenario().Label(), r.err)
					} else {
						r.res.Outputs = nil // no render reads them, and they are most of a held result
					}
				})
			}
		}
	}
	// Whole experiments go out first, as each is many runs long.
	parallel(append(whole, single...), workers)
	for i, e := range exps {
		for _, k := range needs[i] {
			if errs[i] == nil {
				errs[i] = runs[k].err
			}
		}
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, errs[i])
		}
	}
	for i, e := range exps {
		if e.render == nil {
			continue
		}
		r := &results{needs: needs[i], runs: runs}
		if out[i], errs[i] = e.render(r); errs[i] == nil {
			errs[i] = r.err
		}
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, errs[i])
		}
	}
	return out, nil
}

// alone is the pass over one figure, on the calling goroutine.
func alone(id string, needs func() []key, render func(*results) (*Result, error)) (*Result, error) {
	out, err := regenerate([]Experiment{{ID: id, needs: needs, render: render}}, 1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// parallel runs jobs on a pool of workers goroutines, the calling one among
// them, each taking the next job as it finishes one.
func parallel(jobs []func(), workers int) {
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
			jobs[i]()
		}
	}
	var wg sync.WaitGroup
	for range min(workers, len(jobs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
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

// The hub runs each figure reads, as keys. A pass runs their union, each
// distinct run once: Figs. 1 and 13 read Fig. 10's Baseline and COM runs,
// Figs. 4 and 7-9 its step-counter runs, and Fig. 3 reads runs of Figs. 10
// and 11. Fig. 5's traced runs are its own, so it declares none. Each list
// is built only when a pass asks for it.
func fig1Runs() []key  { return each(catalog.LightIDs, hub.Baseline) }
func fig4Runs() []key  { return each([]apps.ID{apps.StepCounter}, hub.Baseline) }
func fig7Runs() []key  { return each([]apps.ID{apps.StepCounter}, hub.Baseline, hub.Batching) }
func fig8Runs() []key  { return each([]apps.ID{apps.StepCounter}, hub.Baseline, hub.COM) }
func fig9Runs() []key  { return each([]apps.ID{apps.StepCounter}, hub.Baseline, hub.Batching, hub.COM) }
func fig10Runs() []key { return each(catalog.LightIDs, hub.Baseline, hub.Batching, hub.COM) }
func fig11Runs() []key { return keys(Combos, hub.Baseline, hub.BEAM, hub.COM) }
func fig13Runs() []key { return each(catalog.LightIDs, hub.Baseline, hub.COM) }

func fig3Runs() []key {
	return append(each([]apps.ID{apps.StepCounter, apps.M2X}, hub.Baseline),
		keys([][]apps.ID{{apps.StepCounter, apps.M2X}}, hub.Baseline, hub.BEAM)...)
}

// fig12Runs lists Figure 12's runs in row order; A11 alone has no BEAM or
// BCOM row, as both need a second app.
func fig12Runs() []key {
	return append(keys(fig12Combos[:1], hub.Baseline, hub.Batching),
		keys(fig12Combos[1:], hub.Baseline, hub.BEAM, hub.Batching, hub.BCOM)...)
}

// Fig1 reproduces Figure 1: the baseline execution of the ten light apps
// costs ~9.5x the idle hub.
func Fig1() (*Result, error) { return alone("fig1", fig1Runs, fig1) }

func fig1(r *results) (*Result, error) {
	idle, err := hub.RunIdle(time.Second, nil)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, id := range catalog.LightIDs {
		res := r.of(hub.Baseline, id)
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

// Fig3 reproduces Figure 3: SC and M2X alone, concurrent, and with BEAM.
func Fig3() (*Result, error) { return alone("fig3", fig3Runs, fig3) }

func fig3(r *results) (*Result, error) {
	sc, m2x := r.of(hub.Baseline, apps.StepCounter), r.of(hub.Baseline, apps.M2X)
	both, beam := r.of(hub.Baseline, apps.StepCounter, apps.M2X), r.of(hub.BEAM, apps.StepCounter, apps.M2X)
	t := &report.Table{
		Title:  "Figure 3: energy breakdown, SC and M2X",
		Header: []string{"scenario", "collection", "interrupt", "transfer", "compute", "total"},
	}
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
func Fig4() (*Result, error) { return alone("fig4", fig4Runs, fig4) }

func fig4(r *results) (*Result, error) {
	res := r.of(hub.Baseline, apps.StepCounter)
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
// Batching for the step counter. No other figure reads its two traced
// two-window runs, so it runs them itself.
func Fig5() (*Result, error) {
	var runs [2]*hub.RunResult
	for i, scheme := range []hub.Scheme{hub.Baseline, hub.Batching} {
		s := hub.Scenario{Apps: []apps.ID{apps.StepCounter}, Scheme: scheme, Windows: 2, Seed: Seed}
		var err error
		if runs[i], err = runScenario(s, func(c *hub.Config) { c.TracePower = true }); err != nil {
			return nil, err
		}
	}
	base, bat := runs[0], runs[1]
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
func Fig7() (*Result, error) { return alone("fig7", fig7Runs, fig7) }

func fig7(r *results) (*Result, error) {
	base, bat := r.of(hub.Baseline, apps.StepCounter), r.of(hub.Batching, apps.StepCounter)
	t := normalizedTable("Figure 7: step counter, Baseline vs Batching", []string{"Baseline", "Batching"}, base, bat)
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
func Fig8() (*Result, error) { return alone("fig8", fig8Runs, fig8) }

func fig8(r *results) (*Result, error) {
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
	baseMs := rowMs("Baseline", r.of(hub.Baseline, apps.StepCounter))
	comMs := rowMs("COM", r.of(hub.COM, apps.StepCounter))
	return &Result{
		ID: "fig8", Title: t.Title, Table: t,
		Values: map[string]float64{"baselineMs": baseMs, "comMs": comMs},
	}, nil
}

// Fig9 reproduces Figure 9: the step counter under all three schemes.
func Fig9() (*Result, error) { return alone("fig9", fig9Runs, fig9) }

func fig9(r *results) (*Result, error) {
	base, bat, com := r.of(hub.Baseline, apps.StepCounter), r.of(hub.Batching, apps.StepCounter), r.of(hub.COM, apps.StepCounter)
	t := normalizedTable("Figure 9: step counter, Baseline/Batching/COM", []string{"Baseline", "Batching", "COM"}, base, bat, com)
	return &Result{
		ID: "fig9", Title: t.Title, Table: t,
		Values: map[string]float64{
			"batchingFrac": bat.TotalJoules() / base.TotalJoules(),
			"comFrac":      com.TotalJoules() / base.TotalJoules(),
		},
	}, nil
}

// normalizedTable renders runs, the first of them Baseline, as labeled
// percent-of-baseline four-routine rows, matching the paper's normalized
// stacked bars.
func normalizedTable(title string, labels []string, runs ...*hub.RunResult) *report.Table {
	t := &report.Table{
		Title:  title,
		Header: []string{"scheme", "collection", "interrupt", "transfer", "compute", "total"},
	}
	ref := runs[0].Energy.Attributed()
	for i, r := range runs {
		b := r.Energy
		t.AddRow(labels[i],
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
func Fig10() (*Result, error) { return alone("fig10", fig10Runs, fig10) }

func fig10(r *results) (*Result, error) {
	t := &report.Table{
		Title:  "Figure 10: single-app normalized energy (three schemes)",
		Header: []string{"app", "baseline", "batching", "COM", "batching saving", "COM saving"},
		Notes:  []string{"paper averages: Batching saves 52%, COM saves 85%"},
	}
	chart := &report.BarChart{Title: "COM saving per app (Fig. 10)"}
	values := map[string]float64{}
	var batSum, comSum float64
	for _, id := range catalog.LightIDs {
		base, bat, com := r.of(hub.Baseline, id), r.of(hub.Batching, id), r.of(hub.COM, id)
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
		chart.Add(string(id), cs, report.Percent(cs))
	}
	values["avgBatchingSaving"] = batSum / 10
	values["avgCOMSaving"] = comSum / 10
	t.AddRow("Avg.", "100.0%", "", "",
		report.Percent(values["avgBatchingSaving"]), report.Percent(values["avgCOMSaving"]))
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

// comboLabel joins a mix's app IDs with "+".
func comboLabel(ids []apps.ID) string {
	s := make([]string, len(ids))
	for i, id := range ids {
		s[i] = string(id)
	}
	return strings.Join(s, "+")
}

// Fig11 reproduces Figure 11: the 14 multi-app scenarios under Baseline,
// BEAM, and full offload (all Figure 11 apps are light-weight, so the
// paper's "BCOM" bars are COM).
func Fig11() (*Result, error) { return alone("fig11", fig11Runs, fig11) }

func fig11(r *results) (*Result, error) {
	t := &report.Table{
		Title:  "Figure 11: multi-app combos, normalized energy",
		Header: []string{"combo", "BEAM", "offload (BCOM)", "BEAM saving", "offload saving"},
		Notes:  []string{"paper averages: BEAM saves 29%, offload saves 70%"},
	}
	chart := &report.BarChart{Title: "BEAM saving per combo (Fig. 11)"}
	values := map[string]float64{}
	var beamSum, comSum float64
	for _, ids := range Combos {
		base, beam, com := r.of(hub.Baseline, ids...), r.of(hub.BEAM, ids...), r.of(hub.COM, ids...)
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
		chart.Add(label, bs, report.Percent(bs))
	}
	values["avgBEAMSaving"] = beamSum / float64(len(Combos))
	values["avgOffloadSaving"] = comSum / float64(len(Combos))
	t.AddRow("Avg.", "", "",
		report.Percent(values["avgBEAMSaving"]), report.Percent(values["avgOffloadSaving"]))
	return &Result{ID: "fig11", Title: t.Title, Table: t, Chart: chart, Values: values}, nil
}

// Fig12 reproduces Figure 12: scenarios involving the heavy-weight A11.
func Fig12() (*Result, error) { return alone("fig12", fig12Runs, fig12) }

func fig12(r *results) (*Result, error) {
	t := &report.Table{
		Title:  "Figure 12: heavy-weight scenarios, normalized energy",
		Header: []string{"scenario", "scheme", "normalized", "saving"},
		Notes:  []string{"paper: A11 alone Batching saves 5%; A11+A6 BCOM 9%; A11+A6+A1 BCOM 10%"},
	}
	values := map[string]float64{}
	for _, k := range fig12Runs() {
		frac := r.get(k).TotalJoules() / r.get(key{scheme: hub.Baseline, mix: k.mix}).TotalJoules()
		t.AddRow(k.mix, k.scheme.String(), report.Percent(frac), report.Percent(1-frac))
		if k.scheme != hub.Baseline {
			values[k.mix+":"+k.scheme.String()] = 1 - frac
		}
	}
	// Fig. 12a also reports the baseline compute share of A11 (~78%).
	values["A11:computeFraction"] = r.of(hub.Baseline, apps.SpeechToTxt).Energy.Fraction(energy.AppCompute)
	return &Result{ID: "fig12", Title: t.Title, Table: t, Values: values}, nil
}

// Fig13 reproduces Figure 13: COM's performance speedup over Baseline.
func Fig13() (*Result, error) { return alone("fig13", fig13Runs, fig13) }

func fig13(r *results) (*Result, error) {
	t := &report.Table{
		Title:  "Figure 13: COM performance speedup (routine time ratio)",
		Header: []string{"app", "baseline (ms)", "COM (ms)", "speedup"},
		Notes:  []string{"paper: average 1.88x; A3 ~0.9x and A8 ~0.8x slow down"},
	}
	chart := &report.BarChart{Title: "COM speedup per app (Fig. 13)"}
	values := map[string]float64{}
	var sum float64
	for _, id := range catalog.LightIDs {
		base, com := r.of(hub.Baseline, id), r.of(hub.COM, id)
		sp := float64(base.BusyLatency()) / float64(com.BusyLatency())
		sum += sp
		values["speedup:"+string(id)] = sp
		t.AddRow(string(id),
			fmt.Sprintf("%.1f", base.BusyLatency().Seconds()*1000/Windows),
			fmt.Sprintf("%.1f", com.BusyLatency().Seconds()*1000/Windows),
			fmt.Sprintf("%.2fx", sp))
		chart.Add(string(id), sp, fmt.Sprintf("%.2fx", sp))
	}
	values["avgSpeedup"] = sum / 10
	t.AddRow("Avg.", "", "", fmt.Sprintf("%.2fx", values["avgSpeedup"]))
	return &Result{ID: "fig13", Title: t.Title, Table: t, Chart: chart, Values: values}, nil
}
