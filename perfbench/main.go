// Command perfbench is the repository benchmark. It drives the simulator
// only through its public packages — fleet.Run, fleetd with loopback
// workers, and experiments.All — and times each layer from outside by
// wrapping calls into that layer's public functions.
//
//	bash perfbench/run.sh --workload dense-sweep --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics. Either prints its provenance,
// notes, and one line per metric, then, as the last line of standard output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Every
// simulated output is checked against the stored references in
// reference.json; see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 11

// minPasses is the fewest timed passes an untraced run makes.
const minPasses = 3

// fits reports whether one more pass, as long as the median of those done,
// still ends within d of start.
func fits(start time.Time, done []float64, d time.Duration) bool {
	next := time.Duration(median(done) * float64(time.Second))
	return time.Since(start)+next <= d
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	tiny     bool
	out      string
}

// probeBudget is how long each ladder probe repeats: a tenth of the run,
// within [50 ms, 500 ms].
func (c runConfig) probeBudget() time.Duration {
	return min(max(c.dur/10, 50*time.Millisecond), 500*time.Millisecond)
}

var sweeps = []sweepWorkload{
	{name: "dense-sweep", spec: denseSpec},
	{name: "armed-service", service: true, spec: armedSpec},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"dense-sweep", "armed-service", "paper-artifacts"}

func runWorkload(c runConfig) (*outcome, error) {
	for _, w := range sweeps {
		if w.name == c.workload {
			if c.trace {
				return w.traced(c)
			}
			return w.endToEnd(c)
		}
	}
	if c.workload == "paper-artifacts" {
		if c.trace {
			return artifactsTraced(c)
		}
		return artifactsEndToEnd(c)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", c.workload, workloadNames)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c runConfig
	fs.StringVar(&c.workload, "workload", "", "workload: dense-sweep, armed-service, or paper-artifacts")
	fs.Int64Var(&c.seed, "seed", refSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured time of the run")
	traceFlag := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	size := fs.String("size", "full", "workload size: full, or tiny for the self-test")
	fs.StringVar(&c.out, "out", filepath.Join(".bench_build", "spans"), "directory for span dumps (empty: none)")
	record := fs.String("record", "", "compute the reference outputs, write them to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordReferences(*record); err != nil {
			fmt.Fprintf(stderr, "perfbench: record: %v\n", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 || *size != "full" && *size != "tiny" || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --trace 0|1, --size full|tiny, --seconds > 0\n")
		return 2
	}
	c.trace, c.tiny = *traceFlag == 1, *size == "tiny"
	c.dur = time.Duration(*seconds * float64(time.Second))
	if err := loadReferences(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o, err := runWorkload(c)
	if err == nil {
		err = report(stdout, c, o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints provenance, notes, and one line per metric, then the result
// object as the last line. Per-layer metrics of a layer the workload
// bypasses read 0.
func report(w io.Writer, c runConfig, o *outcome) error {
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !c.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range o.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("nothing attempted")
	}
	prov, err := json.Marshal(newProvenance(c))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", prov)
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# failed_frac %.6g (%d of %d attempted)\n", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	for _, d := range defs {
		fmt.Fprintf(w, "metric %-34s %16.6f %-6s %s is better\n", d.name, res.Metrics[d.name].Value, d.unit, d.better)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
