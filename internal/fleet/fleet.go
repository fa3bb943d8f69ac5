package fleet

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"iothub/internal/core"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/scheme"
)

// Options tune one sweep execution without changing what it computes: the
// same spec yields byte-identical aggregates under any Options.
type Options struct {
	// Workers is the pool size (0 = Spec.Workers, then GOMAXPROCS).
	Workers int
	// Journal is the checkpoint file path ("" = no journal).
	Journal string
	// Resume replays an existing journal at Journal and continues from the
	// first unfinished scenario. Without Resume an existing journal is
	// truncated and the sweep starts over.
	Resume bool
	// Progress, when non-nil, receives coarse progress lines.
	Progress io.Writer
	// MaxScenarios, when > 0, stops the sweep after that many scenarios
	// have been applied (counting resumed ones) and leaves the journal
	// resumable — the hook the interrupt-and-resume tests use.
	MaxScenarios int
	// Gauges, when non-nil, receives live sweep state (scenarios done,
	// worker occupancy, aggregate fingerprints) — the backing store of
	// iotfleet's Prometheus endpoint. Nil allocates a private set so
	// progress lines always carry rate and ETA.
	Gauges *obs.Gauges
}

// ScenarioError records one failed scenario; the sweep keeps going.
type ScenarioError struct {
	Index int
	Label string
	Err   string
}

// Result is a completed (or MaxScenarios-truncated) sweep.
type Result struct {
	// Agg holds the streaming aggregates in scenario-index order.
	Agg *Aggregator
	// Scenarios is the expanded sweep size; Completed counts scenarios
	// applied this run plus any resumed from the journal; Resumed counts
	// only the latter.
	Scenarios int
	Completed int
	Resumed   int
	// Failed lists scenarios whose run errored (also counted in
	// Agg.Errors). Failures seen only in a resumed journal prefix carry the
	// journal's recorded error text.
	Failed []ScenarioError
	// Warnings lists non-fatal conditions tolerated during the run, e.g. a
	// journal whose final record was truncated by a crash mid-write.
	Warnings []string
}

// RunScenario materializes and executes one scenario, planning the partition
// when the scheme's table row calls for one — BCOM today, any future
// partitioned scheme without changes here. It is the one scenario runner:
// hub cannot import the planner. It runs in a throwaway arena, so the result
// owns its storage outright.
func RunScenario(s hub.Scenario) (*hub.RunResult, error) {
	return RunScenarioIn(hub.NewArena(), s)
}

// RunScenarioIn is RunScenario executing in a caller-owned arena — what the
// fleet workers run, one arena per worker, so back-to-back scenarios reuse
// the scheduler, meter, and device stack instead of reconstructing them. The
// returned result is only valid until the arena's next run (see the
// retention contract in hub's arena); callers copy what they keep.
func RunScenarioIn(a *hub.Arena, s hub.Scenario) (*hub.RunResult, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	def, err := scheme.Lookup(s.Scheme)
	if err != nil {
		return nil, err
	}
	if def.Planned() && cfg.Assign == nil {
		// A scenario carrying its own explicit partition (Hybrid plans, or a
		// pinned BCOM split) runs it verbatim; only a BCOM scenario with a nil
		// Assign invokes the planner's admission test.
		plan, err := core.PlanBCOM(cfg.Apps, hub.DefaultParams())
		if err != nil {
			return nil, err
		}
		cfg.Assign = plan.Assign
	}
	return a.Run(cfg)
}

// execScenario is the worker pool's execution function, a seam the panic
// recovery tests swap to inject failures.
var execScenario = RunScenarioIn

// safeRun executes one scenario in *ap and converts a panic into a scenario
// error carrying the label and seed, so one pathological scenario fails
// alone instead of killing the whole sweep. A panic leaves the arena in an
// unknowable mid-run state, so it is replaced with a fresh one.
func safeRun(ap **hub.Arena, s hub.Scenario) (r *hub.RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			*ap = hub.NewArena()
			r = nil
			err = fmt.Errorf("fleet: scenario %s (seed %d) panicked: %v", s.Label(), s.Seed, p)
		}
	}()
	return execScenario(*ap, s)
}

// Run executes the sweep: Expand the spec, open its Fold (replaying the
// journal when resuming), and run every scenario in [Next, Limit) on the
// worker pool, folding each record as it finishes. The fold applies records
// in strict scenario-index order, so the final aggregates are byte-identical
// for any worker count.
func Run(spec Spec, opt Options) (*Result, error) {
	scens, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if opt.Workers == 0 {
		opt.Workers = spec.Workers
	}
	if opt.Workers == 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Workers < 1 {
		return nil, fmt.Errorf("fleet: %d workers, want >= 1", opt.Workers)
	}
	f, err := OpenFold(spec, scens, opt)
	if err != nil {
		return nil, err
	}
	// The pool fails only with the fold's own error, which Close returns.
	_ = pool(scens, f.Next(), f.Limit(), opt.Workers, f.gauges, func(d DoneRecord) error { return f.Add(d) })
	return f.Close()
}

// RunRange executes scenarios [start, end) of an expanded sequence with up
// to parallelism scenarios in flight and returns their records in index
// order — the shard-execution primitive fleetd workers run. Results are
// independent of parallelism (each scenario is self-seeded and records are
// assembled positionally).
func RunRange(scens []hub.Scenario, start, end, parallelism int) ([]DoneRecord, error) {
	if start < 0 || end > len(scens) || start > end {
		return nil, fmt.Errorf("fleet: range [%d, %d) outside 0..%d", start, end, len(scens))
	}
	records := make([]DoneRecord, end-start)
	err := pool(scens, start, end, max(parallelism, 1), nil, func(d DoneRecord) error {
		records[d.Index-start] = d
		return nil
	})
	return records, err
}

// pool runs scenarios [start, end) on workers goroutines, each reusing one
// arena across its scenarios, and hands every record to emit on the calling
// goroutine in completion order. The first error emit returns stops
// dispatch; scenarios already running finish and are dropped, and pool
// returns that error. g receives worker occupancy and each run's counter
// totals; it may be nil.
func pool(scens []hub.Scenario, start, end, workers int, g *obs.Gauges, emit func(DoneRecord) error) error {
	indices := make(chan int)
	// One slot per worker: a finished worker starts its next scenario
	// without waiting for emit.
	records := make(chan DoneRecord, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Metrics are extracted before the arena's next run recycles
			// the result's storage.
			arena := hub.NewArena()
			for i := range indices {
				d := DoneRecord{Index: i, Label: scens[i].Label()}
				g.WorkerBusy(+1)
				r, err := safeRun(&arena, scens[i])
				g.WorkerBusy(-1)
				if err != nil {
					d.Err = err.Error()
				} else {
					r.Counters(g.RunObserved)
					d.Metrics = Metrics(r, scens[i].Windows)
				}
				records <- d
			}
		}()
	}
	go func() {
	dispatch:
		for i := start; i < end; i++ {
			select {
			case indices <- i:
			case <-stop:
				break dispatch
			}
		}
		close(indices)
		wg.Wait()
		close(records)
	}()
	var err error
	for d := range records {
		if err == nil {
			if err = emit(d); err != nil {
				close(stop)
			}
		}
	}
	return err
}
