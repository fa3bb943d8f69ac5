package main

// metricDef declares one reported metric: its name, unit, and which
// direction is better. The catalogue below is the benchmark's contract; the
// self-test checks it against BENCHMARK.json at the repository root.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"scenarios_per_s", "1/s", "higher"},
	{"regen_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// schemeNames are the schemes any workload's grid uses; each gets a
// hub.us_per_window.<scheme> metric (0 on workloads whose grid lacks it).
var schemeNames = []string{"baseline", "batching", "beam", "com", "bcom", "ecom"}

// perLayer are the metrics a traced run reports. A metric of a layer the
// workload bypasses reads 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		// sim: exact kernel traffic, then the bare scheduler at the
		// workload's own queue depth.
		{"sim.events_per_scenario", "count", "lower"},
		{"sim.cancel_frac", "ratio", "lower"},
		{"sim.probe_ns_per_event", "ns", "lower"},
		// hub runner.
		{"hub.ns_per_event", "ns", "lower"},
		{"hub.run_ms_p50", "ms", "lower"},
		{"hub.run_ms_p90", "ms", "lower"},
	}
	for _, s := range schemeNames {
		m = append(m, metricDef{"hub.us_per_window." + s, "us", "lower"})
	}
	m = append(m, []metricDef{
		// hub set-up and arena.
		{"hub.config_us_per_scenario", "us", "lower"},
		{"core.plan_us_per_call", "us", "lower"},
		{"hub.arena_allocs_per_scenario", "count", "lower"},
		{"hub.arena_kb_per_scenario", "KB", "lower"},
		// hub subsystems: armed over unarmed twins.
		{"hub.chaos_cost_ratio", "ratio", "lower"},
		{"hub.meter_cost_ratio", "ratio", "lower"},
		{"hub.power_cost_ratio", "ratio", "lower"},
		// devices: exact counts, then the per-call rungs of the ladder.
		{"cpu.wakes_per_scenario", "count", "lower"},
		{"interrupts_per_scenario", "count", "lower"},
		{"link.frames_per_scenario", "count", "lower"},
		{"radio.bursts_per_scenario", "count", "lower"},
		{"cpu.exec_ns", "ns", "lower"},
		{"mcu.exec_ns", "ns", "lower"},
		{"link.tx_ns", "ns", "lower"},
		{"radio.tx_ns", "ns", "lower"},
		{"ladder.sim_share", "ratio", "higher"},
		// fleet.
		{"fleet.expand_ms", "ms", "lower"},
		{"fleet.pool_efficiency", "ratio", "higher"},
		{"fleet.agg_us_per_scenario", "us", "lower"},
		// fleetd.
		{"fleetd.lease_us_p50", "us", "lower"},
		{"fleetd.submit_us_p50", "us", "lower"},
		{"fleetd.rpcs_per_scenario", "count", "lower"},
		{"fleetd.overhead_frac", "ratio", "lower"},
		{"fleetd.vs_fleet_ratio", "ratio", "lower"},
		{"fleetd.reassign_frac", "ratio", "lower"},
		// experiments, apps, runtime.
		{"experiments.slowest_s", "s", "lower"},
		{"experiments.pool_efficiency", "ratio", "higher"},
		{"apps.compute_frac", "ratio", "lower"},
		{"hub.fresh_allocs_per_run", "count", "lower"},
		{"gc_cpu_frac", "ratio", "lower"},
		{"trace_overhead_frac", "ratio", "lower"},
	}...)
	return m
}()
