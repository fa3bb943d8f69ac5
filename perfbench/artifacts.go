package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"iothub/internal/experiments"
	"iothub/internal/fleet"
	"iothub/internal/hub"
)

// tinyArtifacts are the cheap artifacts the self-test regenerates.
var tinyArtifacts = map[string]bool{"table1": true, "table2": true, "fig1": true}

// artifacts lists the paper-artifacts set: every experiments.All() entry.
// Ablations are excluded; two of them spawn their own worker pools.
func artifacts(tiny bool) []experiments.Experiment {
	var out []experiments.Experiment
	for _, e := range experiments.All() {
		if !tiny || tinyArtifacts[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// setupArtifact is the cold artifact each set-up regenerates.
const setupArtifact = "fig7"

// artifactDigest hashes what a reader of the artifact sees: its rendered
// table and its named values, at full precision.
func artifactDigest(r *experiments.Result) string {
	h := sha256.New()
	io.WriteString(h, r.ID+"\n")
	if r.Table != nil {
		io.WriteString(h, r.Table.ASCII())
	}
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(r.Values[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// artifactRun is one regenerated artifact.
type artifactRun struct {
	id     string
	dur    time.Duration
	digest string
	err    error
}

// poolPass regenerates exps on a pool of n goroutines, handing them out in
// slice order. With tr set, each Experiment.Run is a span under parent.
func poolPass(exps []experiments.Experiment, n int, tr *tracer, parent int) []artifactRun {
	out := make([]artifactRun, len(exps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sp := -1
				if tr != nil {
					sp = tr.begin("experiments.Experiment.Run", parent)
				}
				t0 := time.Now()
				r, err := exps[i].Run()
				out[i] = artifactRun{id: exps[i].ID, dur: time.Since(t0), err: err}
				if tr != nil {
					tr.end(sp)
				}
				if err == nil {
					out[i].digest = artifactDigest(r)
				}
			}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// checkArtifacts counts a pass's artifacts and fails any that errored or
// whose digest differs from the stored reference.
func (o *outcome) checkArtifacts(runs []artifactRun) {
	for _, r := range runs {
		o.attempted++
		switch want, ok := loadedRefs.Artifacts[r.id]; {
		case r.err != nil:
			o.failf("artifact %s: %v", r.id, r.err)
		case !ok:
			o.failf("artifact %s: no reference digest stored", r.id)
		case r.digest != want:
			o.failf("artifact %s: output differs from the stored reference", r.id)
		}
	}
}

// dispatchOrder is the pool's fixed hand-out order: longest first, by the
// artifact costs measured when the benchmark was defined, so the pool's
// wall time tracks the total work rather than the luck of the schedule.
// Artifacts missing from the list follow in paper order.
var dispatchOrder = []string{"fig11", "fig12", "fig10", "fig1", "fig13", "fig3", "fig9", "fig5", "fig8", "fig7", "fig4", "fig6", "table2", "table1"}

func inDispatchOrder(exps []experiments.Experiment) []experiments.Experiment {
	rank := map[string]int{}
	for i, id := range dispatchOrder {
		rank[id] = i + 1
	}
	out := append([]experiments.Experiment(nil), exps...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := rank[out[i].ID], rank[out[j].ID]
		return ri != 0 && (rj == 0 || ri < rj)
	})
	return out
}

// artifactsEndToEnd is the untraced paper-artifacts run. The artifact set is
// fixed by the paper, so the seed selects nothing here; every pass is checked
// against the stored digests.
func artifactsEndToEnd(c runConfig) (*outcome, error) {
	o := newOutcome()
	n := workers()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cold, err := experiments.ByID(setupArtifact)
		if err != nil {
			return nil, err
		}
		r, err := cold.Run()
		d := time.Since(t0)
		run := artifactRun{id: cold.ID, dur: d, err: err}
		if err == nil {
			run.digest = artifactDigest(r)
		}
		o.checkArtifacts([]artifactRun{run})
		setups = append(setups, d.Seconds())
	}
	exps := inDispatchOrder(artifacts(c.tiny))
	warm := poolPass(exps, n, nil, -1)
	o.checkArtifacts(warm)
	o.notef("artifacts per pass: %d, workers: %d; warm-up pass s: %s", len(exps), n, durations(warm))

	heap := startHeapPeak()
	var walls, peaks []float64
	start := time.Now()
	for len(walls) < minPasses || fits(start, walls, c.dur) {
		t0 := time.Now()
		runs := poolPass(exps, n, nil, -1)
		walls = append(walls, time.Since(t0).Seconds())
		peaks = append(peaks, float64(heap.lap()))
		o.checkArtifacts(runs)
	}
	heap.stop()
	o.notef("timed passes: %d, pass wall s: median %.4f, min %.4f, max %.4f",
		len(walls), median(walls), quantile(walls, 0), quantile(walls, 1))
	o.metrics["scenarios_per_s"] = float64(len(exps)) / median(walls)
	o.metrics["regen_s"] = median(walls)
	o.metrics["setup_s"] = median(setups)
	o.metrics["peak_heap_mb"] = median(peaks) / 1e6
	return o, nil
}

// durations lists each artifact's time in a pass, in dispatch order.
func durations(runs []artifactRun) string {
	var b strings.Builder
	for i, r := range runs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.3f", r.id, r.dur.Seconds())
	}
	return b.String()
}

// comboScenarios are the Fig. 11 mixes under the three schemes Fig. 11 runs,
// with real app compute, seeded from the run's seed — the hub-level view of
// this workload, since the artifacts call hub.Run out of the benchmark's
// reach.
func comboScenarios(seed int64, tiny bool, skipCompute bool) []hub.Scenario {
	combos := experiments.Combos
	if tiny {
		combos = combos[:1]
	}
	var out []hub.Scenario
	for _, mix := range combos {
		for _, s := range []hub.Scheme{hub.Baseline, hub.BEAM, hub.COM} {
			out = append(out, hub.Scenario{
				Apps: mix, Scheme: s, Windows: experiments.Windows,
				Seed: fleet.ScenarioSeed(seed, len(out)), SkipAppCompute: skipCompute,
			})
		}
	}
	return out
}

// plainPass runs scens one after another, each in a fresh arena as hub.Run
// does, and folds them as tracedPass does, untraced.
func plainPass(scens []hub.Scenario) (*fleet.Aggregator, time.Duration, int) {
	agg := fleet.NewAggregator()
	failures := 0
	t0 := time.Now()
	for _, s := range scens {
		r, err := fleet.RunScenario(s)
		if err != nil {
			agg.ApplyError()
			failures++
			continue
		}
		agg.Apply(fleet.Tag(s), fleet.Metrics(r, s.Windows))
	}
	return agg, time.Since(t0), failures
}

// artifactsTraced is the per-layer paper-artifacts run: rounds of {traced
// pool pass with a span per Experiment.Run, traced serial pass over the
// Fig. 11 mixes in fresh arenas, the same pass untraced with and without app
// compute}, then the ladder probes.
func artifactsTraced(c runConfig) (*outcome, error) {
	o := newOutcome()
	n := workers()
	tr := newTracer()
	exps := inDispatchOrder(artifacts(c.tiny))
	warm := poolPass(exps, n, nil, -1)
	o.checkArtifacts(warm)

	real, skip := comboScenarios(c.seed, c.tiny, false), comboScenarios(c.seed, c.tiny, true)
	var first *tracedResult
	var all []scenarioObs
	var slowest, poolEff, gcFrac, overhead, computeFrac, rounds []float64
	slowestID := ""
	start := time.Now()
	for round := 1; round == 1 || fits(start, rounds, c.dur); round++ {
		roundStart := time.Now()
		cpu0 := readCPU()
		t0 := time.Now()
		root := tr.begin("pass.artifacts", -1)
		runs := poolPass(exps, n, tr, root)
		tr.end(root)
		wall := time.Since(t0)
		gcFrac = append(gcFrac, readCPU().gcFracSince(cpu0))
		o.checkArtifacts(runs)
		var busy, max time.Duration
		for _, r := range runs {
			busy += r.dur
			if r.dur > max {
				max, slowestID = r.dur, r.id
			}
		}
		slowest = append(slowest, max.Seconds())
		poolEff = append(poolEff, busy.Seconds()/(float64(n)*wall.Seconds()))

		// Alternate which of the traced and untraced passes runs first, so a
		// drift in machine speed does not bias the overhead.
		var agg *fleet.Aggregator
		var realWall time.Duration
		var failures int
		if round%2 == 0 {
			agg, realWall, failures = plainPass(real)
		}
		t0 = time.Now()
		root = tr.begin("pass.traced", -1)
		tp := tracedPass(tr, root, real, true)
		tr.end(root)
		tracedWall := time.Since(t0)
		if round%2 == 1 {
			agg, realWall, failures = plainPass(real)
		}
		o.attempted += 2 * len(real)
		o.failed += tp.failures + failures
		if string(agg.JSON()) != string(tp.agg.JSON()) {
			o.failf("round %d: traced aggregate differs from the untraced pass", round)
		}
		_, skipWall, failures := plainPass(skip)
		o.attempted += len(skip)
		o.failed += failures
		if first == nil {
			first = tp
		} else if !sameCounts(first.obs, tp.obs) {
			o.failf("round %d: exact counts differ from round 1", round)
		}
		all = append(all, tp.obs...)
		overhead = append(overhead, tracedWall.Seconds()/realWall.Seconds()-1)
		computeFrac = append(computeFrac, 1-skipWall.Seconds()/realWall.Seconds())
		rounds = append(rounds, time.Since(roundStart).Seconds())
	}
	o.notef("traced rounds: %d; slowest artifact: %s", len(slowest), slowestID)

	layerFromScenarios(o.metrics, first.obs, all)
	// Every run here builds a fresh arena, so the arena's per-run
	// allocations are hub.Run's.
	o.metrics["hub.fresh_allocs_per_run"] = o.metrics["hub.arena_allocs_per_scenario"]
	o.metrics["experiments.slowest_s"] = median(slowest)
	o.metrics["experiments.pool_efficiency"] = median(poolEff)
	o.metrics["apps.compute_frac"] = median(computeFrac)
	o.metrics["gc_cpu_frac"] = median(gcFrac)
	o.metrics["trace_overhead_frac"] = median(overhead)
	if err := o.ladder(first.obs, c.probeBudget()); err != nil {
		return nil, err
	}
	o.spanTable(tr)
	return o, tr.write(c.out, fmt.Sprintf("spans-paper-artifacts-seed%d.jsonl", c.seed))
}
