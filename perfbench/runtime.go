package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iothub/internal/fleet"
)

// workers is the benchmark's pool size: the CPUs the process may use.
func workers() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// heapPeak samples the Go heap in use until stopped and keeps the maximum
// since the last lap.
type heapPeak struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.raise(heapInUse())
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) raise(v uint64) {
	for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
	}
}

// lap returns the peak in bytes since the previous lap and starts a new one.
func (h *heapPeak) lap() uint64 {
	h.raise(heapInUse())
	return h.peak.Swap(heapInUse())
}

// stop ends sampling.
func (h *heapPeak) stop() {
	close(h.quit)
	h.wg.Wait()
}

// cpuTimes is a snapshot of the runtime's CPU accounting.
type cpuTimes struct{ gc, total, idle float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64(), idle: s[2].Value.Float64()}
}

// gcFracSince is the GC's share of the CPU time the process used since
// prev (idle time excluded).
func (c cpuTimes) gcFracSince(prev cpuTimes) float64 {
	used := (c.total - c.idle) - (prev.total - prev.idle)
	if used <= 0 {
		return 0
	}
	return (c.gc - prev.gc) / used
}

// provenance is the machine and build a result was measured on.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Size       string  `json:"size"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Workers    int     `json:"workers"`
	NumCPU     int     `json:"numcpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	CPUModel   string  `json:"cpu"`
}

func newProvenance(c runConfig) provenance {
	size := "full"
	if c.tiny {
		size = "tiny"
	}
	return provenance{
		Workload: c.workload, Seed: c.seed, Size: size, Trace: c.trace, Seconds: c.dur.Seconds(),
		Workers: workers(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), CPUModel: cpuModel(),
	}
}

// commit is the VCS revision stamped into the binary at build time, when the
// benchmark was built inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// outcome is what a run measured and checked.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// countFleet counts a sweep's scenarios and its failed ones.
func (o *outcome) countFleet(res *fleet.Result) {
	o.attempted += res.Completed
	o.failed += len(res.Failed)
	for _, f := range res.Failed {
		o.notef("FAIL: scenario %d %s: %s", f.Index, f.Label, f.Err)
	}
}

// failf records one failed check.
func (o *outcome) failf(format string, args ...any) {
	o.failed++
	o.notef("FAIL: "+format, args...)
}

// spanTable notes each span name's count, total, and self time.
func (o *outcome) spanTable(tr *tracer) {
	o.notef("%-40s %8s %12s %12s", "span", "count", "total ms", "self ms")
	for _, s := range tr.stats() {
		o.notef("%-40s %8d %12.3f %12.3f", s.name, s.count,
			float64(s.total)/1e6, float64(s.self)/1e6)
	}
}
