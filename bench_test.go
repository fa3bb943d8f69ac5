// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its artifact end to end
// (full discrete-event simulation including the real app computations), so
// ns/op is the cost of reproducing that figure and the reported metrics are
// attached with b.ReportMetric.
//
//	go test -bench=. -benchmem
package iothub_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/experiments"
	"iothub/internal/fleet"
	"iothub/internal/fleetd"
	"iothub/internal/hub"
)

// benchExperiment runs one experiment per iteration and reports selected
// metric values alongside the timing. Metric units must not contain
// whitespace, so value keys with spaces are reported with underscores.
func benchExperiment(b *testing.B, run func() (*experiments.Result, error), metrics ...string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, m := range metrics {
		if v, ok := last.Values[m]; ok {
			b.ReportMetric(v, strings.ReplaceAll(m, " ", "_"))
		}
	}
}

func BenchmarkTable01Sensors(b *testing.B) {
	benchExperiment(b, experiments.Table1, "sensors")
}

func BenchmarkTable02Workloads(b *testing.B) {
	benchExperiment(b, experiments.Table2, "irq:A4", "bytes:A4")
}

func BenchmarkFig01IdleVsBaseline(b *testing.B) {
	benchExperiment(b, experiments.Fig1, "ratio")
}

func BenchmarkFig03BreakdownSCM2X(b *testing.B) {
	benchExperiment(b, experiments.Fig3, "beamSaving", "xferFracSC")
}

func BenchmarkFig04TransferSplit(b *testing.B) {
	benchExperiment(b, experiments.Fig4, "cpuShare", "mcuShare", "wireShare")
}

func BenchmarkFig05Timeline(b *testing.B) {
	benchExperiment(b, experiments.Fig5, "batchingSleepFraction")
}

func BenchmarkFig06Characterization(b *testing.B) {
	benchExperiment(b, experiments.Fig6, "avgMemKB", "avgMIPS")
}

func BenchmarkFig07SCBatching(b *testing.B) {
	benchExperiment(b, experiments.Fig7, "saving")
}

func BenchmarkFig08SCTiming(b *testing.B) {
	benchExperiment(b, experiments.Fig8, "baselineMs", "comMs")
}

func BenchmarkFig09SCThreeSchemes(b *testing.B) {
	benchExperiment(b, experiments.Fig9, "batchingFrac", "comFrac")
}

func BenchmarkFig10SingleApp(b *testing.B) {
	benchExperiment(b, experiments.Fig10, "avgBatchingSaving", "avgCOMSaving")
}

func BenchmarkFig11MultiApp(b *testing.B) {
	benchExperiment(b, experiments.Fig11, "avgBEAMSaving", "avgOffloadSaving")
}

func BenchmarkFig12HeavyWeight(b *testing.B) {
	benchExperiment(b, experiments.Fig12, "A11:Batching", "A11+A6:BCOM")
}

func BenchmarkFig13Speedup(b *testing.B) {
	benchExperiment(b, experiments.Fig13, "avgSpeedup", "speedup:A3", "speedup:A8")
}

// Ablation benches (DESIGN.md §6): the parameter sweeps over the design
// choices the paper's results hinge on.

func BenchmarkAblBatchRAM(b *testing.B) {
	benchExperiment(b, experiments.AblBatchRAM, "saving:1KB", "saving:32KB")
}

func BenchmarkAblLinkBandwidth(b *testing.B) {
	benchExperiment(b, experiments.AblLinkBandwidth, "batching:29KBps", "batching:936KBps")
}

func BenchmarkAblGovernor(b *testing.B) {
	benchExperiment(b, experiments.AblGovernor, "withSleep", "withoutSleep")
}

func BenchmarkAblMCUSlowdown(b *testing.B) {
	benchExperiment(b, experiments.AblMCUSlowdown, "avg:19x", "slower:19x")
}

func BenchmarkAblDMA(b *testing.B) {
	benchExperiment(b, experiments.AblDMA, "A2 baseline")
}

// sweepSpec is the 64-scenario grid the fleet and service sweeps run.
func sweepSpec() fleet.Spec {
	return fleet.Spec{
		Seed: 7,
		Grid: &fleet.Grid{
			Apps:           [][]apps.ID{{apps.StepCounter}, {apps.M2X}, {apps.StepCounter, apps.M2X}, {apps.Blynk}},
			Schemes:        []string{"baseline", "batching"},
			Windows:        []int{1, 2},
			QoS:            []float64{0.25, 0.5, 1, 2},
			SkipAppCompute: true,
		},
	}
}

// sweepAllocBudget is the allocation ceiling per scenario of a workers=1
// fleet sweep: the arena revives every per-run object, so what remains is
// scenario materialization and result maps. Measured on go1.24: 126.5, and
// 151.8 under -race. Raising it means a hot path regressed.
const sweepAllocBudget = 200

// TestFleetSweepAllocBudget gates the sweep's allocations per scenario.
func TestFleetSweepAllocBudget(t *testing.T) {
	spec := sweepSpec()
	var completed int
	allocs := testing.AllocsPerRun(1, func() {
		res, err := fleet.Run(spec, fleet.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg.Errors > 0 {
			t.Fatalf("failed scenarios: %+v", res.Failed)
		}
		completed = res.Completed
	})
	if completed != 64 {
		t.Fatalf("sweep completed %d scenarios, want 64", completed)
	}
	per := allocs / float64(completed)
	if per > sweepAllocBudget {
		t.Errorf("fleet sweep = %.1f allocs/scenario, budget %d", per, sweepAllocBudget)
	}
	t.Logf("fleet sweep = %.1f allocs/scenario (budget %d)", per, sweepAllocBudget)
}

// denseScenario is the heaviest scenario of the repository benchmark's
// dense-sweep grid: four apps under Baseline at twice their QoS rates for five
// windows, which backs the MCU's work queue up to 45,637 items.
func denseScenario() hub.Scenario {
	return hub.Scenario{
		Apps:           []apps.ID{apps.StepCounter, apps.M2X, apps.Blynk, apps.Earthquake},
		Scheme:         hub.Baseline,
		Windows:        5,
		Seed:           1,
		QoSMult:        2,
		SkipAppCompute: true,
	}
}

// arenaRetainBudget is the live heap, in bytes, an arena may keep after
// running denseScenario: its device queues, pools and result, sized to that
// run's peak backlog. Measured on go1.24: 4.04 MB, and the same under -race;
// 56-byte work items that held their completion's callback made it 5.35 MB.
// Raising it means a per-worker record grew.
const arenaRetainBudget = 4.7e6

// TestArenaRetainBudget gates what a fleet worker's arena holds between
// scenarios, beside the sweep's allocation budget: the live heap after a
// collection, with the arena alive, less the live heap before it was built.
func TestArenaRetainBudget(t *testing.T) {
	sc := denseScenario()
	// A first run in a throwaway arena settles package-level state, so the
	// measured growth is the arena's own.
	if _, err := fleet.RunScenario(sc); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a := hub.NewArena()
	if _, err := fleet.RunScenarioIn(a, sc); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if retained > arenaRetainBudget {
		t.Errorf("%s retains %.2f MB in its arena, budget %.2f MB", sc.Label(), float64(retained)/1e6, arenaRetainBudget/1e6)
	}
	t.Logf("%s retains %.2f MB in its arena (budget %.2f MB)", sc.Label(), float64(retained)/1e6, arenaRetainBudget/1e6)
}

// BenchmarkFleetSweep runs a 64-scenario grid through the fleet engine at
// worker counts 1, 2, 4, and NumCPU. The aggregates are byte-identical at
// every count (asserted by internal/fleet's tests); only wall clock changes,
// so the workers=N/workers=1 ns/op ratios are the engine's scaling curve.
// On a single-core host the curve is flat — the fixed counts keep the
// trajectory comparable across differently-sized runners.
func BenchmarkFleetSweep(b *testing.B) {
	spec := sweepSpec()
	scens, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	if len(scens) != 64 {
		b.Fatalf("grid expands to %d scenarios, want 64", len(scens))
	}
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var last *fleet.Result
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(spec, fleet.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Agg.Errors > 0 {
					b.Fatalf("failed scenarios: %+v", res.Failed)
				}
				last = res
			}
			b.ReportMetric(float64(last.Completed), "scenarios")
		})
	}
}

// BenchmarkServiceSweep runs the same 64-scenario grid through the fleetd
// coordinator with in-process loopback workers. The delta against
// BenchmarkFleetSweep at the same worker count is the price of the
// fault-tolerance machinery: sharding, leases, heartbeats, submission
// fingerprints, and index-ordered folding.
func BenchmarkServiceSweep(b *testing.B) {
	spec := sweepSpec()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := fleetd.New(fleetd.Config{Spec: spec, ShardSize: 8})
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						wk, err := fleetd.NewWorker(fleetd.WorkerConfig{
							ID:        fmt.Sprintf("w%d", w),
							Transport: fleetd.Loopback{H: c.Handle},
						})
						if err == nil {
							wk.Run()
						}
					}(w)
				}
				wg.Wait()
				res, err := c.Wait()
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != 64 || res.Agg.Errors > 0 {
					b.Fatalf("folded %d scenarios, %d errors", res.Completed, res.Agg.Errors)
				}
				c.Close()
			}
		})
	}
}
