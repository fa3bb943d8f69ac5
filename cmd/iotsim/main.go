// Command iotsim runs one IoT hub scenario and prints its energy and timing
// breakdown, the interrupt/transfer statistics, and the apps' real outputs.
//
// Usage:
//
//	iotsim -apps A2 -scheme baseline -windows 3
//	iotsim -apps A2,A7 -scheme beam
//	iotsim -apps A11,A6 -scheme bcom          # partitioned by the planner
//	iotsim -apps A2 -scheme batching -timeline
//	iotsim -apps A6 -scheme com -check -chaos "seed=7; mcu-crash:at=1100ms,for=150ms"
//	iotsim -apps A2 -chaos "sensor-fail:every=10"   # every 10th read of each sensor fails
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"iothub/internal/apps"
	"iothub/internal/core"
	"iothub/internal/energy"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/power"
	"iothub/internal/profiling"
	"iothub/internal/report"
	"iothub/internal/scheme"
	"iothub/internal/sim"
	"iothub/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iotsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("iotsim", flag.ContinueOnError)
	appsFlag := fs.String("apps", "A2", "comma-separated Table II workload IDs (A1..A11)")
	schemeFlag := fs.String("scheme", "baseline", "execution scheme: "+strings.Join(scheme.Names(), ", "))
	windows := fs.Int("windows", 3, "number of QoS windows to simulate")
	seed := fs.Int64("seed", 1, "synthetic signal seed")
	timeline := fs.Bool("timeline", false, "print the CPU power timeline (Fig. 5 style)")
	showOutputs := fs.Bool("outputs", true, "print per-window app outputs")
	chaos := fs.String("chaos", "", `fault schedule, e.g. "seed=7; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms", or "sensor-fail:every=10" to fail every 10th read of each sensor`)
	check := fs.Bool("check", false, "run the post-simulation invariant checker verbosely and print the fault/resilience summary")
	jsonOut := fs.Bool("json", false, "emit the full run result as machine-readable JSON instead of tables")
	traceOut := fs.String("trace", "", "write a Perfetto-loadable Chrome trace-event JSON of the run's routine spans to this file")
	counters := fs.Bool("counters", false, "print the hardware counter registry after the run (oprofile-style)")
	flight := fs.Bool("flight", false, "print the flight recorder — the last hub events as JSON lines — after the run")
	meterRate := fs.Float64("meter-rate", 0, "arm an in-situ energy meter sampling at this rate in Hz (0 = free external meter)")
	meterPreset := fs.String("meter-preset", "insitu", "in-situ meter cost preset: external, insitu, eco")
	battery := fs.Float64("battery-mah", 0, "battery capacity in mAh at 5 V: alone it projects lifetime (single app only); with -harvest it powers the run live")
	harvest := fs.String("harvest", "", "run on the battery live with this harvest profile: a preset ("+
		strings.Join(power.PresetNames(), ", ")+"), a raw trace like \"const:w=0.1\", or \"none\" for battery-only")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the simulation to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	sch, err := hub.ParseScheme(*schemeFlag)
	if err != nil {
		return fmt.Errorf("%w (valid schemes: %s)", err, strings.Join(scheme.Names(), ", "))
	}
	def, err := scheme.Lookup(sch)
	if err != nil {
		return err
	}
	sc := hub.Scenario{Scheme: sch, Windows: *windows, Seed: *seed, Faults: *chaos}
	for _, raw := range strings.Split(*appsFlag, ",") {
		sc.Apps = append(sc.Apps, apps.ID(strings.TrimSpace(strings.ToUpper(raw))))
	}
	// The preset name is validated even at rate 0 (when the meter stays
	// disarmed), so a typo fails loudly instead of silently measuring nothing.
	model, err := obs.Preset(*meterPreset, *meterRate)
	if err != nil {
		return err
	}
	if *meterRate > 0 {
		sc.Meter = &model
	}
	// Same contract for -harvest: resolve the profile up front so an unknown
	// preset errors (listing the valid names) even without -battery-mah.
	harvestTrace, err := resolveHarvest(*harvest)
	if err != nil {
		return err
	}
	if *harvest != "" {
		if *battery <= 0 {
			return fmt.Errorf("-harvest needs -battery-mah > 0 to power the run")
		}
		sc.Power = &power.Supply{
			Battery: power.Battery{CapacityMAh: *battery, Volts: 5},
			Harvest: harvestTrace,
		}
	}
	cfg, err := sc.Config()
	if err != nil {
		return err
	}
	cfg.TracePower = *timeline
	var rec *obs.Recorder
	if *traceOut != "" || *counters || *flight {
		rec = obs.NewRecorder()
		if *traceOut != "" {
			rec.EnableTracing()
		}
		p := hub.DefaultParams()
		p.Obs = rec
		cfg.Params = &p
	}
	if def.Planned() {
		plan, err := core.PlanBCOM(cfg.Apps, hub.DefaultParams())
		if err != nil {
			return err
		}
		cfg.Assign = plan.Assign
		fmt.Fprintf(out, "planner: %v\n", plan.Assign)
	}
	res, err := hub.Run(cfg)
	if err != nil {
		if *flight && rec != nil {
			// Post-mortem: the flight ring holds the last hub events
			// leading up to the failure.
			fmt.Fprintln(os.Stderr, "flight recorder (most recent last):")
			_ = obs.WriteFlight(os.Stderr, rec)
		}
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
		return exportObs(out, rec, *traceOut, *counters, *flight)
	}
	printSummary(out, res, *windows)
	if res.ReadRetries > 0 || res.DroppedSamples > 0 {
		fmt.Fprintf(out, "faults: %d retries, %d dropped samples\n\n", res.ReadRetries, res.DroppedSamples)
	}
	if res.MeterSamples > 0 || res.MeterDroppedSamples > 0 {
		fmt.Fprintf(out, "meter: %d samples (%d dropped), %d MCU cycles, %d flushes, %d B persisted\n\n",
			res.MeterSamples, res.MeterDroppedSamples, res.MeterCycles, res.MeterFlushes, res.MeterBytes)
	}
	if res.BatteryCapacityJ > 0 {
		fmt.Fprintf(out, "battery: %.2f J usable, final SoC %.1f%% (low water %.1f%%), harvested %.2f J, "+
			"survival %v, %d brownouts (%v dark)\n\n",
			res.BatteryCapacityJ, res.BatterySoCJ/res.BatteryCapacityJ*100,
			res.BatteryMinSoCJ/res.BatteryCapacityJ*100, res.BatteryHarvestJ,
			res.BatterySurvival.Round(time.Millisecond), res.Brownouts, res.BrownoutTime.Round(time.Millisecond))
	}
	if *check {
		printCheck(out, res)
	}
	if *battery > 0 && cfg.Power == nil {
		if len(cfg.Apps) != 1 {
			return fmt.Errorf("-battery-mah projects single-app workloads only")
		}
		life, err := core.Lifetime(cfg.Apps[0].Spec(), hub.DefaultParams(), power.Battery{CapacityMAh: *battery, Volts: 5})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "battery %.0f mAh @ 5V: baseline %v, batching %v, COM %v\n\n",
			*battery, life.Baseline.Round(time.Minute), life.Batching.Round(time.Minute), life.COM.Round(time.Minute))
	}
	if *showOutputs {
		printOutputs(out, res)
	}
	if *timeline {
		printTimeline(out, res, *windows)
	}
	return exportObs(out, rec, *traceOut, *counters, *flight)
}

// resolveHarvest turns the -harvest flag into ParseTrace text: a preset name
// resolves through power.Preset (unknown names error listing the valid ones),
// raw trace text (anything containing ':') is validated by the parser, and
// ""/"none" mean battery-only operation.
func resolveHarvest(flag string) (string, error) {
	switch {
	case flag == "" || flag == "none":
		return "", nil
	case strings.Contains(flag, ":"):
		if _, err := power.ParseTrace(flag); err != nil {
			return "", err
		}
		return flag, nil
	default:
		return power.Preset(flag)
	}
}

// exportObs dumps whatever the run's recorder captured: the Chrome
// trace-event file, the counter registry, and the flight ring. A nil
// recorder (no obs flag given) is a no-op, keeping the default output
// byte-identical to an uninstrumented build.
func exportObs(out io.Writer, rec *obs.Recorder, tracePath string, counters, flight bool) error {
	if rec == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d spans (%d dropped) -> %s\n\n", len(rec.Spans()), rec.SpansDropped(), tracePath)
	}
	if counters {
		fmt.Fprintln(out, "counters:")
		if err := obs.WriteCounters(out, rec); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if flight {
		fmt.Fprintln(out, "flight recorder (most recent last):")
		if err := obs.WriteFlight(out, rec); err != nil {
			return err
		}
	}
	return nil
}

func printSummary(out io.Writer, res *hub.RunResult, windows int) {
	t := &report.Table{
		Title:  fmt.Sprintf("%v: energy per window", res.Scheme),
		Header: []string{"routine", "energy", "share"},
	}
	for _, r := range energy.Routines {
		if r == energy.Idle {
			continue
		}
		t.AddRow(r.String(),
			report.Millijoules(res.Energy[r]/float64(windows)),
			report.Percent(res.Energy.Fraction(r)))
	}
	t.AddRow("total", report.Millijoules(res.Energy.Attributed()/float64(windows)), "100.0%")
	t.Notes = append(t.Notes, fmt.Sprintf(
		"interrupts=%d bytes=%d flushes=%d wakes=%d qosViolations=%d duration=%v",
		res.Interrupts, res.BytesTransferred, res.BatchFlushes,
		res.CPUWakes, res.QoSViolations, res.Duration.Round(time.Millisecond)))
	fmt.Fprintln(out, t.ASCII())
}

// printCheck re-runs the invariant checker verbosely (hub.Run already
// enforces it — a run that reaches this point passed) and summarizes what the
// fault engine injected and how the resilience layer absorbed it.
func printCheck(out io.Writer, res *hub.RunResult) {
	if err := res.CheckInvariants(); err != nil {
		fmt.Fprintf(out, "invariants: VIOLATED: %v\n\n", err)
		return
	}
	fmt.Fprintf(out, "invariants: ok (energy conserved, time monotonic, %d+%d samples accounted)\n",
		res.ScheduledSamples, res.RecollectedSamples)
	fmt.Fprintf(out, "chaos: link retx=%d corrupt=%d lost=%d aborted=%d | mcu crashes=%d recollected=%d | "+
		"sensor slow=%d stuck=%d | radio deferred=%d dropped=%d (%d B)\n",
		res.LinkRetransmits, res.LinkCorruptFrames, res.LinkLostFrames, res.LinkAbortedTransfers,
		res.MCUCrashes, res.RecollectedSamples, res.SlowReads, res.StuckSamples,
		res.RadioDeferred, res.RadioDroppedBursts, res.RadioDroppedBytes)
	fmt.Fprintf(out, "resilience: downshifts=%d skipped=%d early flushes=%d budget checks=%d misses=%d\n",
		res.RateDownshifts, res.DownshiftSkipped, res.EarlyFlushes,
		res.OffloadBudgetChecks, res.OffloadBudgetMisses)
	for _, d := range res.Degradations {
		fmt.Fprintf(out, "degraded: %s %v -> %v from window %d (%s)\n", d.App, d.From, d.To, d.Window, d.Reason)
	}
	fmt.Fprintln(out)
}

func printOutputs(out io.Writer, res *hub.RunResult) {
	ids := make([]string, 0, len(res.Outputs))
	for id := range res.Outputs {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, wr := range res.Outputs[apps.ID(id)] {
			fmt.Fprintf(out, "%-4s window %d @ %-12v %s\n", id, wr.Window, wr.At, wr.Result.Summary)
		}
	}
	fmt.Fprintln(out)
}

func printTimeline(out io.Writer, res *hub.RunResult, windows int) {
	end := sim.Time(time.Duration(windows) * time.Second)
	wave, err := trace.Resample(res.Traces["cpu"], 10*time.Millisecond, end)
	if err != nil {
		fmt.Fprintln(out, "timeline:", err)
		return
	}
	fmt.Fprintf(out, "CPU power timeline (10 ms bins, %d windows):\n", windows)
	fmt.Fprint(out, trace.RenderASCII(wave, 6))
}
