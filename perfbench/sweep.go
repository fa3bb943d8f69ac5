package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"iothub/internal/apps"
	"iothub/internal/core"
	"iothub/internal/fleet"
	"iothub/internal/fleetd"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/power"
	"iothub/internal/scheme"
)

// denseSpec is the dense-sweep grid: multi-app mixes whose every sample read
// is queued up front, so the event heap and the hub's handlers are nearly
// all of the work. No chaos, meter, power, edge, or app compute.
func denseSpec(seed int64, tiny bool) (fleet.Spec, error) {
	g := &fleet.Grid{
		Apps: [][]apps.ID{
			{apps.StepCounter, apps.M2X},
			{apps.Blynk, apps.Earthquake},
			{apps.StepCounter, apps.M2X, apps.Blynk},
			{apps.StepCounter, apps.M2X, apps.Blynk, apps.Earthquake},
		},
		Schemes:        []string{"baseline", "beam", "batching", "com"},
		Windows:        []int{3, 5},
		QoS:            []float64{0.5, 1, 1.5, 2},
		SkipAppCompute: true,
	}
	if tiny {
		g.Apps, g.Windows, g.QoS = g.Apps[:1], []int{1}, []float64{1}
	}
	return fleet.Spec{Seed: seed, Grid: g}, nil
}

// armedFaults is the armed-service fault schedule: seeded link corruption
// plus one MCU crash inside the first window.
const armedFaults = "seed=7; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms"

// armedSpec is the armed-service grid: short runs that arm every optional
// subsystem (chaos, in-situ meter, battery ledger, edge through ECOM) next to
// unarmed twins. COM is left out (it rejects A11) and so is BEAM (it needs
// two apps).
func armedSpec(seed int64, tiny bool) (fleet.Spec, error) {
	office, err := power.Preset("office")
	if err != nil {
		return fleet.Spec{}, err
	}
	g := &fleet.Grid{
		Apps: [][]apps.ID{
			{apps.StepCounter},
			{apps.DropboxMgr},
			{apps.StepCounter, apps.Earthquake},
			{apps.SpeechToTxt, apps.StepCounter},
		},
		Schemes: []string{"baseline", "batching", "bcom", "ecom"},
		Windows: []int{1, 2, 3},
		Faults:  []string{"", armedFaults},
		Meters:  []obs.MeterModel{{}, obs.Insitu(100)},
		Power: []power.Supply{{}, {
			Battery: power.Battery{CapacityMAh: 0.5, Volts: 3, DerateFraction: 1},
			Harvest: office,
		}},
		SkipAppCompute: true,
	}
	if tiny {
		g.Apps, g.Schemes, g.Windows = g.Apps[3:], []string{"bcom", "ecom"}, []int{1}
	}
	return fleet.Spec{Seed: seed, Grid: g}, nil
}

// shardSize is the armed-service coordinator's shard size: small enough that
// two workers finish within a shard of each other.
const shardSize = 16

func serviceConfig(spec fleet.Spec) fleetd.Config {
	return fleetd.Config{Spec: spec, ShardSize: shardSize, LeaseTTL: 2 * time.Second}
}

func workerConfig(h fleetd.Handler, i int) fleetd.WorkerConfig {
	return fleetd.WorkerConfig{ID: fmt.Sprintf("w%d", i), Transport: fleetd.Loopback{H: h}, Seed: int64(i + 1)}
}

// servicePass runs the spec through a fleetd coordinator and n loopback
// workers. wrap, when set, intercepts every RPC. The wall time runs from
// coordinator start-up to the folded result; the workers' exit is waited for
// but not timed.
func servicePass(spec fleet.Spec, n int, wrap func(fleetd.Handler) fleetd.Handler) (*fleet.Result, time.Duration, error) {
	t0 := time.Now()
	c, err := fleetd.New(serviceConfig(spec))
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	h := fleetd.Handler(c.Handle)
	if wrap != nil {
		h = wrap(h)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wk, err := fleetd.NewWorker(workerConfig(h, i))
		if err != nil {
			c.Close() // a closed coordinator tells the started workers to exit
			wg.Wait()
			return nil, 0, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = wk.Run()
		}()
	}
	res, err := c.Wait()
	wall := time.Since(t0)
	wg.Wait()
	if err != nil {
		return nil, 0, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, 0, fmt.Errorf("fleetd worker: %w", e)
		}
	}
	return res, wall, nil
}

// sweepWorkload is a fleet sweep measured end to end, in process or through
// fleetd.
type sweepWorkload struct {
	name    string
	service bool
	spec    func(seed int64, tiny bool) (fleet.Spec, error)
}

// pass runs the whole sweep once the way its user would.
func (w sweepWorkload) pass(spec fleet.Spec, n int) (*fleet.Result, time.Duration, error) {
	if w.service {
		return servicePass(spec, n, nil)
	}
	t0 := time.Now()
	res, err := fleet.Run(spec, fleet.Options{Workers: n})
	return res, time.Since(t0), err
}

// setupOnce times everything before the steady phase: spec construction and
// expansion, coordinator and worker start-up, and one cold scenario in a
// fresh arena.
func (w sweepWorkload) setupOnce(seed int64, tiny bool, n int) (time.Duration, error) {
	t0 := time.Now()
	spec, err := w.spec(seed, tiny)
	if err != nil {
		return 0, err
	}
	scens, err := spec.Expand()
	if err != nil {
		return 0, err
	}
	var c *fleetd.Coordinator
	if w.service {
		if c, err = fleetd.New(serviceConfig(spec)); err != nil {
			return 0, err
		}
		defer c.Close()
		for i := 0; i < n; i++ {
			if _, err := fleetd.NewWorker(workerConfig(c.Handle, i)); err != nil {
				return 0, err
			}
		}
	}
	if _, err := fleet.RunScenario(scens[0]); err != nil {
		return 0, fmt.Errorf("cold scenario %s: %w", scens[0].Label(), err)
	}
	return time.Since(t0), nil
}

// endToEnd is the untraced run: set-up several times, one warm-up pass whose
// aggregate every timed pass must reproduce, timed passes for the run's
// length, then an untimed pass at the reference seed against the stored
// digest.
func (w sweepWorkload) endToEnd(c runConfig) (*outcome, error) {
	o := newOutcome()
	n := workers()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := w.setupOnce(c.seed, c.tiny, n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	spec, err := w.spec(c.seed, c.tiny)
	if err != nil {
		return nil, err
	}
	warm, err := fleet.Run(spec, fleet.Options{Workers: n})
	if err != nil {
		return nil, err
	}
	o.countFleet(warm)
	want := warm.Agg.JSON()
	o.notef("scenarios per pass: %d, workers: %d", warm.Scenarios, n)

	heap := startHeapPeak()
	var walls, peaks []float64
	start := time.Now()
	for len(walls) < minPasses || fits(start, walls, c.dur) {
		res, wall, err := w.pass(spec, n)
		if err != nil {
			heap.stop()
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		peaks = append(peaks, float64(heap.lap()))
		o.countFleet(res)
		if !bytes.Equal(res.Agg.JSON(), want) {
			o.failf("pass %d: aggregate differs from the in-process warm-up pass", len(walls))
		}
	}
	heap.stop()
	o.notef("timed passes: %d, pass wall s: median %.4f, min %.4f, max %.4f",
		len(walls), median(walls), quantile(walls, 0), quantile(walls, 1))

	if err := o.checkReference(w, c.tiny, refSeed, n, warm.Scenarios); err != nil {
		return nil, err
	}
	o.metrics["scenarios_per_s"] = float64(warm.Scenarios) / median(walls)
	o.metrics["regen_s"] = median(walls)
	o.metrics["setup_s"] = median(setups)
	o.metrics["peak_heap_mb"] = median(peaks) / 1e6
	return o, nil
}

// checkReference runs the workload in process at a pinned seed and compares
// its aggregate with the stored one. The scenario count must equal the run's
// own, whatever its seed.
func (o *outcome) checkReference(w sweepWorkload, tiny bool, seed int64, n, scenarios int) error {
	spec, err := w.spec(seed, tiny)
	if err != nil {
		return err
	}
	res, err := fleet.Run(spec, fleet.Options{Workers: n})
	if err != nil {
		return err
	}
	o.countFleet(res)
	key := refKey(w.name, tiny, seed)
	if res.Scenarios != scenarios {
		o.failf("seed %d expands to %d scenarios, seed under test to %d", seed, res.Scenarios, scenarios)
	}
	ref, ok := loadedRefs.Sweeps[key]
	switch {
	case !ok:
		o.failf("no reference aggregate stored for %s", key)
	case ref.Scenarios != res.Scenarios || ref.Agg != string(res.Agg.JSON()):
		o.failf("aggregate at %s differs from the stored reference", key)
	default:
		o.notef("reference %s: %d scenarios, aggregate matches", key, res.Scenarios)
	}
	return nil
}

// counts are the exact per-scenario quantities an obs.Recorder reports.
type counts struct {
	events, cancels, wakes, irqs, frames, bursts, reads uint64
	uartBytes, radioBytes, scheduled                    uint64
}

// scenarioObs is what the traced serial pass learns about one scenario.
type scenarioObs struct {
	scheme                         string
	windows                        int
	chaos, meter, power, planned   bool
	runNs, configNs, planNs, aggNs float64
	allocs, bytes                  uint64
	counts                         counts
}

// tracedResult is one traced serial pass.
type tracedResult struct {
	agg      *fleet.Aggregator
	obs      []scenarioObs
	failures int
}

// tracedPass runs scens one after another in the benchmark's own loop, with
// a span around each public call: Scenario.Config, core.PlanBCOM where the
// scheme needs a partition, Arena.Run with an obs.Recorder for exact counts,
// and fleet.Metrics plus Aggregator.Apply. fresh gives every scenario a new
// arena (as hub.Run does); otherwise one arena is reused (as a fleet worker
// does). The aggregate is folded exactly as fleet.Run folds it.
func tracedPass(tr *tracer, parent int, scens []hub.Scenario, fresh bool) *tracedResult {
	out := &tracedResult{agg: fleet.NewAggregator(), obs: make([]scenarioObs, 0, len(scens))}
	arena := hub.NewArena()
	var before, after runtime.MemStats
	for i, s := range scens {
		sc := tr.begin("scenario", parent)
		so := scenarioObs{
			scheme:  strings.ToLower(s.Scheme.String()),
			windows: s.Windows,
			chaos:   s.Faults != "",
			meter:   s.Meter != nil && s.Meter.Armed(),
			power:   s.Power.Armed(),
		}
		sp := tr.begin("hub.Scenario.Config", sc)
		cfg, err := s.Config()
		so.configNs = float64(tr.end(sp))
		if err == nil {
			var def scheme.Def
			if def, err = scheme.Lookup(s.Scheme); err == nil && def.RequiresAssign() && cfg.Assign == nil {
				sp = tr.begin("core.PlanBCOM", sc)
				var plan *core.Plan
				plan, err = core.PlanBCOM(cfg.Apps, hub.DefaultParams())
				so.planNs, so.planned = float64(tr.end(sp)), true
				if err == nil {
					cfg.Assign = plan.Assign
				}
			}
		}
		var res *hub.RunResult
		rec := obs.NewRecorder()
		if err == nil {
			rec.SetFlightLen(0)
			params := hub.DefaultParams()
			params.Obs = rec
			cfg.Params = &params
			if fresh && i > 0 {
				arena = hub.NewArena()
			}
			runtime.ReadMemStats(&before)
			sp = tr.begin("hub.(*Arena).Run", sc)
			res, err = arena.Run(cfg)
			so.runNs = float64(tr.end(sp))
			runtime.ReadMemStats(&after)
			so.allocs = after.Mallocs - before.Mallocs
			so.bytes = after.TotalAlloc - before.TotalAlloc
		}
		sp = tr.begin("fleet.Metrics+Aggregator.Apply", sc)
		if err != nil {
			out.agg.ApplyError()
		} else {
			out.agg.Apply(fleet.Tag(s), fleet.Metrics(res, s.Windows))
		}
		so.aggNs = float64(tr.end(sp))
		tr.end(sc)
		if err != nil {
			out.failures++
			// A failed scenario leaves the arena mid-run; start over.
			arena = hub.NewArena()
			continue
		}
		so.counts = counts{
			events:     rec.Get(obs.SimEventsScheduled),
			cancels:    rec.Get(obs.SimEventsCancelled),
			wakes:      rec.Get(obs.CPUWakes),
			irqs:       rec.Get(obs.InterruptsRaised),
			frames:     rec.Get(obs.UARTFrames),
			bursts:     rec.Get(obs.RadioBursts),
			reads:      rec.Get(obs.SensorReads),
			uartBytes:  rec.Get(obs.UARTBytes),
			radioBytes: rec.Get(obs.RadioBytes),
			scheduled:  uint64(res.ScheduledSamples),
		}
		out.obs = append(out.obs, so)
	}
	return out
}

// sameCounts reports whether two traced passes saw identical exact counts.
func sameCounts(a, b []scenarioObs) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].counts != b[i].counts {
			return false
		}
	}
	return true
}

// traced is the per-layer run: rounds of {traced serial pass, untraced
// workers=1 fleet.Run} for the run's length, then one pooled fleet.Run, the
// traced service pass (armed-service), the ladder probes, and a pass at the
// held-out seed against its stored digest.
func (w sweepWorkload) traced(c runConfig) (*outcome, error) {
	o := newOutcome()
	n := workers()
	spec, err := w.spec(c.seed, c.tiny)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var first *tracedResult
	var all []scenarioObs
	var overhead, expandMs, serialWall, rounds []float64
	start := time.Now()
	for round := 1; round == 1 || fits(start, rounds, c.dur); round++ {
		roundStart := time.Now()
		t0 := roundStart
		root := tr.begin("pass.traced", -1)
		sp := tr.begin("fleet.Spec.Expand", root)
		scens, err := spec.Expand()
		expandMs = append(expandMs, float64(tr.end(sp))/1e6)
		if err != nil {
			return nil, err
		}
		tp := tracedPass(tr, root, scens, false)
		tr.end(root)
		tracedWall := time.Since(t0)
		o.attempted += len(scens)
		o.failed += tp.failures

		t0 = time.Now()
		plain, err := fleet.Run(spec, fleet.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		plainWall := time.Since(t0)
		o.countFleet(plain)
		if !bytes.Equal(tp.agg.JSON(), plain.Agg.JSON()) {
			o.failf("round %d: traced aggregate differs from the untraced workers=1 pass", round)
		}
		if first == nil {
			first = tp
		} else if !sameCounts(first.obs, tp.obs) {
			o.failf("round %d: exact counts differ from round 1", round)
		}
		all = append(all, tp.obs...)
		overhead = append(overhead, tracedWall.Seconds()/plainWall.Seconds()-1)
		serialWall = append(serialWall, plainWall.Seconds())
		rounds = append(rounds, time.Since(roundStart).Seconds())
	}
	o.notef("traced rounds: %d over %d scenarios", len(overhead), len(first.obs))

	// The pool at n workers, once: efficiency against the serial passes, and
	// the GC's share of the CPU it used.
	cpu0 := readCPU()
	t0 := time.Now()
	pooled, err := fleet.Run(spec, fleet.Options{Workers: n})
	if err != nil {
		return nil, err
	}
	pooledWall := time.Since(t0)
	gcFrac := readCPU().gcFracSince(cpu0)
	o.countFleet(pooled)
	if !bytes.Equal(pooled.Agg.JSON(), first.agg.JSON()) {
		o.failf("workers=%d aggregate differs from the serial passes", n)
	}

	layerFromScenarios(o.metrics, first.obs, all)
	o.metrics["fleet.expand_ms"] = median(expandMs)
	o.metrics["fleet.pool_efficiency"] = median(serialWall) / (float64(n) * pooledWall.Seconds())
	o.metrics["gc_cpu_frac"] = gcFrac
	o.metrics["trace_overhead_frac"] = median(overhead)

	if w.service {
		if err := o.traceService(tr, spec, n, pooledWall, first.agg.JSON()); err != nil {
			return nil, err
		}
	}
	if err := o.ladder(first.obs, c.probeBudget()); err != nil {
		return nil, err
	}
	if err := o.checkReference(w, c.tiny, heldOutSeed, n, len(first.obs)+first.failures); err != nil {
		return nil, err
	}
	o.spanTable(tr)
	return o, tr.write(c.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, c.seed))
}

// traceService runs the sweep through fleetd once with every coordinator RPC
// wrapped in a span, and derives the fleetd metrics.
func (o *outcome) traceService(tr *tracer, spec fleet.Spec, n int, fleetWall time.Duration, want []byte) error {
	root := tr.begin("pass.service", -1)
	var mu sync.Mutex
	durs := map[string][]float64{}
	var handled time.Duration
	rpcs, leased := 0, 0
	wrap := func(h fleetd.Handler) fleetd.Handler {
		return func(path string, body []byte) (int, []byte) {
			sp := tr.begin("fleetd.Coordinator.Handle "+path, root)
			status, resp := h(path, body)
			d := tr.end(sp)
			var grant fleetd.LeaseResponse
			if path == "/lease" && status == 200 {
				if err := json.Unmarshal(resp, &grant); err != nil {
					grant = fleetd.LeaseResponse{}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			durs[path] = append(durs[path], float64(d))
			handled += d
			rpcs++
			if grant.Shard != nil {
				leased += grant.Shard.End - grant.Shard.Start
			}
			return status, resp
		}
	}
	res, wall, err := servicePass(spec, n, wrap)
	tr.end(root)
	if err != nil {
		return err
	}
	o.countFleet(res)
	if !bytes.Equal(res.Agg.JSON(), want) {
		o.failf("fleetd aggregate differs from the in-process fleet.Run aggregate")
	}
	total := float64(res.Scenarios)
	o.metrics["fleetd.lease_us_p50"] = median(durs["/lease"]) / 1e3
	o.metrics["fleetd.submit_us_p50"] = median(durs["/submit"]) / 1e3
	o.metrics["fleetd.rpcs_per_scenario"] = float64(rpcs) / total
	o.metrics["fleetd.overhead_frac"] = handled.Seconds() / (float64(n) * wall.Seconds())
	o.metrics["fleetd.vs_fleet_ratio"] = wall.Seconds() / fleetWall.Seconds()
	o.metrics["fleetd.reassign_frac"] = float64(leased-res.Scenarios) / total
	o.notef("fleetd: %d RPCs, %d scenarios leased for %d in the sweep", rpcs, leased, res.Scenarios)
	return nil
}

// layerFromScenarios derives the sim, hub, device, and fleet-aggregation
// metrics of a traced pass. Exact counts come from one pass (first); times
// pool every traced round (all).
func layerFromScenarios(m map[string]float64, first, all []scenarioObs) {
	var events, cancels, dispatched, runNs float64
	var wakes, irqs, frames, bursts []float64
	for _, s := range first {
		events += float64(s.counts.events)
		cancels += float64(s.counts.cancels)
		wakes = append(wakes, float64(s.counts.wakes))
		irqs = append(irqs, float64(s.counts.irqs))
		frames = append(frames, float64(s.counts.frames))
		bursts = append(bursts, float64(s.counts.bursts))
	}
	scenarios := float64(len(first))
	m["sim.events_per_scenario"] = events / scenarios
	m["sim.cancel_frac"] = cancels / events
	m["cpu.wakes_per_scenario"] = mean(wakes)
	m["interrupts_per_scenario"] = mean(irqs)
	m["link.frames_per_scenario"] = mean(frames)
	m["radio.bursts_per_scenario"] = mean(bursts)

	var runMs, config, plan, agg, allocs, kb []float64
	perScheme := map[string][2]float64{} // run ns, windows
	type armed struct{ on, off []float64 }
	var chaos, meter, pwr armed
	split := func(a *armed, on bool, v float64) {
		if on {
			a.on = append(a.on, v)
		} else {
			a.off = append(a.off, v)
		}
	}
	for _, s := range all {
		dispatched += float64(s.counts.events - s.counts.cancels)
		runNs += s.runNs
		runMs = append(runMs, s.runNs/1e6)
		config = append(config, s.configNs/1e3)
		if s.planned {
			plan = append(plan, s.planNs/1e3)
		}
		agg = append(agg, s.aggNs/1e3)
		allocs = append(allocs, float64(s.allocs))
		kb = append(kb, float64(s.bytes)/1024)
		ps := perScheme[s.scheme]
		perScheme[s.scheme] = [2]float64{ps[0] + s.runNs, ps[1] + float64(s.windows)}
		split(&chaos, s.chaos, s.runNs)
		split(&meter, s.meter, s.runNs)
		split(&pwr, s.power, s.runNs)
	}
	m["hub.ns_per_event"] = runNs / dispatched
	m["hub.run_ms_p50"] = quantile(runMs, 0.5)
	m["hub.run_ms_p90"] = quantile(runMs, 0.9)
	for _, name := range schemeNames {
		if ps := perScheme[name]; ps[1] > 0 {
			m["hub.us_per_window."+name] = ps[0] / ps[1] / 1e3
		}
	}
	m["hub.config_us_per_scenario"] = mean(config)
	m["core.plan_us_per_call"] = mean(plan)
	m["hub.arena_allocs_per_scenario"] = mean(allocs)
	m["hub.arena_kb_per_scenario"] = mean(kb)
	m["fleet.agg_us_per_scenario"] = mean(agg)
	ratio := func(a armed) float64 {
		if len(a.on) == 0 || len(a.off) == 0 {
			return 0
		}
		return mean(a.on) / mean(a.off)
	}
	m["hub.chaos_cost_ratio"] = ratio(chaos)
	m["hub.meter_cost_ratio"] = ratio(meter)
	m["hub.power_cost_ratio"] = ratio(pwr)
}
