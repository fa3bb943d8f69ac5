// Live sweep gauges and their Prometheus text-format export. Unlike the
// Recorder — per-run, single-threaded, virtual-time — Gauges are fleet-wide,
// concurrent, and wall-clock: the worker pool updates them from many
// goroutines while the metrics server scrapes them from another.

package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Gauges is the live state of one fleet sweep, exported in Prometheus text
// format. All fields are safe for concurrent update and scrape.
type Gauges struct {
	total   atomic.Int64
	done    atomic.Int64
	errors  atomic.Int64
	busy    atomic.Int64 // workers currently executing a scenario
	workers atomic.Int64 // pool size

	// Per-counter totals over the sweep's runs, and which counters some run
	// reported — only those are exported, so a service whose workers report
	// nothing shows no run totals rather than zeros.
	runTotals   [numCounters]atomic.Uint64
	runReported [numCounters]atomic.Bool

	mu          sync.Mutex
	start       time.Time
	fingerprint string
}

// NewGauges returns zeroed gauges with the rate clock started.
func NewGauges() *Gauges {
	return &Gauges{start: time.Now()}
}

// StartSweep records the sweep's size and pool width and restarts the rate
// clock.
func (g *Gauges) StartSweep(total, workers int) {
	if g == nil {
		return
	}
	g.total.Store(int64(total))
	g.workers.Store(int64(workers))
	g.mu.Lock()
	g.start = time.Now()
	g.mu.Unlock()
}

// ScenarioDone accounts one completed scenario (failed = errored run).
func (g *Gauges) ScenarioDone(failed bool) {
	if g == nil {
		return
	}
	g.done.Add(1)
	if failed {
		g.errors.Add(1)
	}
}

// WorkerBusy moves a worker in (+1) or out (-1) of the executing state —
// the pool-occupancy gauge.
func (g *Gauges) WorkerBusy(delta int) {
	if g == nil {
		return
	}
	g.busy.Add(int64(delta))
}

// SetFingerprint publishes the aggregate fingerprint as of the latest
// collector checkpoint.
func (g *Gauges) SetFingerprint(fp string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.fingerprint = fp
	g.mu.Unlock()
}

// RunObserved adds one completed run's value of counter c to the sweep
// total and marks c reported; the fleet pool feeds it hub.RunResult.Counters.
func (g *Gauges) RunObserved(c Counter, v uint64) {
	if g == nil {
		return
	}
	g.runTotals[c].Add(v)
	if !g.runReported[c].Load() {
		g.runReported[c].Store(true)
	}
}

// Snapshot is one consistent read of the gauges.
type Snapshot struct {
	Total, Done, Errors int64
	WorkersBusy         int64
	Workers             int64
	// RatePerSec is completed scenarios per wall-clock second since
	// StartSweep; ETASeconds extrapolates the remainder (0 when done or
	// when no rate is established yet).
	RatePerSec  float64
	ETASeconds  float64
	Fingerprint string
}

// Read takes a snapshot.
func (g *Gauges) Read() Snapshot {
	if g == nil {
		return Snapshot{}
	}
	g.mu.Lock()
	start, fp := g.start, g.fingerprint
	g.mu.Unlock()
	s := Snapshot{
		Total:       g.total.Load(),
		Done:        g.done.Load(),
		Errors:      g.errors.Load(),
		WorkersBusy: g.busy.Load(),
		Workers:     g.workers.Load(),
		Fingerprint: fp,
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 && s.Done > 0 {
		s.RatePerSec = float64(s.Done) / elapsed
		if left := s.Total - s.Done; left > 0 && s.RatePerSec > 0 {
			s.ETASeconds = float64(left) / s.RatePerSec
		}
	}
	return s
}

// WriteGauge writes one fully annotated Prometheus gauge series.
func WriteGauge(w io.Writer, name, help string, value float64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, value)
	return err
}

// WritePrometheus renders the gauges in Prometheus exposition text format
// (version 0.0.4), the payload behind iotfleet's -metrics-addr endpoint.
func (g *Gauges) WritePrometheus(w io.Writer) error {
	s := g.Read()
	series := []struct {
		name, help string
		value      float64
	}{
		{"iothub_fleet_scenarios_total", "Scenarios in the expanded sweep.", float64(s.Total)},
		{"iothub_fleet_scenarios_done", "Scenarios completed (resumed ones included).", float64(s.Done)},
		{"iothub_fleet_scenarios_errors", "Scenarios whose run errored.", float64(s.Errors)},
		{"iothub_fleet_scenarios_per_second", "Completion rate over the sweep so far.", s.RatePerSec},
		{"iothub_fleet_workers", "Worker pool size.", float64(s.Workers)},
		{"iothub_fleet_workers_busy", "Workers currently executing a scenario.", float64(s.WorkersBusy)},
	}
	for _, sr := range series {
		if err := WriteGauge(w, sr.name, sr.help, sr.value); err != nil {
			return err
		}
	}
	for c := range Counter(numCounters) {
		if g == nil || !g.runReported[c].Load() {
			continue
		}
		name := "iothub_" + c.String() + "_total"
		help := "Sum of the " + c.String() + " counter over the sweep's runs."
		if err := WriteGauge(w, name, help, float64(g.runTotals[c].Load())); err != nil {
			return err
		}
	}
	fp := s.Fingerprint
	if fp == "" {
		fp = "none"
	}
	_, err := fmt.Fprintf(w,
		"# HELP iothub_fleet_aggregate_fingerprint_info Aggregate-state fingerprint as of the latest checkpoint.\n"+
			"# TYPE iothub_fleet_aggregate_fingerprint_info gauge\n"+
			"iothub_fleet_aggregate_fingerprint_info{fingerprint=%q} 1\n", fp)
	return err
}

// PrometheusText renders WritePrometheus into a string.
func (g *Gauges) PrometheusText() string {
	var b strings.Builder
	_ = g.WritePrometheus(&b)
	return b.String()
}
