package fleetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"syscall"
	"time"

	"iothub/internal/fleet"
	"iothub/internal/hub"
)

// ErrCoordinatorGone marks a retry budget exhausted purely on connection
// refusals: the coordinator process is not there anymore. For a disposable
// worker that almost always means the sweep finished and serve exited
// before this worker heard the Done ack — a clean exit, not a failure.
var ErrCoordinatorGone = errors.New("fleetd: coordinator unreachable (connection refused)")

// errDone is the internal signal that the worker should exit cleanly.
var errDone = errors.New("fleetd: done")

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// ID names the worker in leases and logs.
	ID string
	// Transport reaches the coordinator.
	Transport Transport
	// Parallelism is the scenarios-in-flight ceiling inside one shard
	// (default 1).
	Parallelism int
	// RetryBase / RetryMax bound the exponential backoff between RPC
	// attempts (defaults 25ms / 1s); RetryBudget caps attempts per RPC
	// (default 10). Exhausting the budget on a submit abandons the shard —
	// the lease expires and the coordinator reassigns it.
	RetryBase   time.Duration
	RetryMax    time.Duration
	RetryBudget int
	// Seed drives backoff jitter (so chaos tests are reproducible).
	Seed int64
	// Warn, when set, receives retry and abandonment notices.
	Warn io.Writer
}

func (c *WorkerConfig) fillDefaults() {
	if c.ID == "" {
		c.ID = "worker"
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 10
	}
}

// Worker pulls shard leases from a coordinator, executes them with the same
// per-scenario engine as the in-process sweep, and submits the records. All
// state lives on the coordinator: a worker can crash at any instant and the
// only cost is one lease TTL of latency.
type Worker struct {
	cfg       WorkerConfig
	scens     []hub.Scenario
	rng       uint64
	shards    int
	retries   int
	everSpoke bool
}

// NewWorker fetches and expands the sweep spec, verifying its fingerprint
// against the coordinator's so a worker can never execute the wrong sweep.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg.fillDefaults()
	w := &Worker{cfg: cfg, rng: uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x1f123bb5159a55e5}
	blob, err := w.callRetry("/spec", nil)
	if err != nil {
		return nil, err
	}
	var spec SpecResponse
	if err := json.Unmarshal(blob, &spec); err != nil {
		return nil, fmt.Errorf("fleetd: bad /spec response: %w", err)
	}
	scens, err := spec.Spec.Expand()
	if err != nil {
		return nil, fmt.Errorf("fleetd: expanding coordinator spec: %w", err)
	}
	if len(scens) != spec.Scenarios {
		return nil, fmt.Errorf("fleetd: spec expands to %d scenarios here, coordinator says %d", len(scens), spec.Scenarios)
	}
	if fp := fleet.SpecFingerprint(spec.Spec, scens); fp != spec.Fingerprint {
		return nil, fmt.Errorf("fleetd: spec fingerprint %s != coordinator's %s", fp, spec.Fingerprint)
	}
	w.scens = scens
	return w, nil
}

// Shards reports how many shards this worker completed (submitted and
// acknowledged, including stale acks).
func (w *Worker) Shards() int { return w.shards }

// Run leases, executes, and submits shards until the coordinator reports
// the sweep done. It returns early only when the transport is terminally
// dead (e.g. the chaos harness killed this worker).
func (w *Worker) Run() error {
	for {
		blob, err := w.callRetry("/lease", LeaseRequest{Worker: w.cfg.ID})
		if err != nil {
			if errors.Is(err, ErrCoordinatorGone) {
				w.warnf("%v; exiting", err)
				return nil
			}
			return err
		}
		var grant LeaseResponse
		if err := json.Unmarshal(blob, &grant); err != nil {
			return fmt.Errorf("fleetd: bad /lease response: %w", err)
		}
		if grant.Done {
			return nil
		}
		if grant.Shard == nil {
			w.sleepJitter(time.Duration(grant.RetryMs) * time.Millisecond)
			continue
		}
		if err := w.runShard(*grant.Shard, time.Duration(grant.TTLMs)*time.Millisecond); err != nil {
			if errors.Is(err, errDone) {
				return nil
			}
			return err
		}
	}
}

// runShard executes one leased range under a heartbeat and submits it.
func (w *Worker) runShard(s ShardInfo, ttl time.Duration) error {
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go w.heartbeatLoop(s.ID, ttl, stop, &hb)
	records, runErr := fleet.RunRange(w.scens, s.Start, s.End, w.cfg.Parallelism)
	close(stop)
	hb.Wait()
	if runErr != nil {
		// A malformed lease (bad range) — abandon it; the lease will expire.
		w.warnf("shard %d: %v; abandoning", s.ID, runErr)
		return nil
	}
	req := SubmitRequest{
		Worker:  w.cfg.ID,
		Shard:   s.ID,
		Attempt: s.Attempt,
		Records: records,
		FP:      fleet.RecordsFingerprint(records),
	}
	blob, err := w.callRetry("/submit", req)
	if err != nil {
		if errors.Is(err, ErrWorkerKilled) {
			return err
		}
		if errors.Is(err, ErrCoordinatorGone) {
			// A resumed coordinator re-runs this shard from its journal.
			w.warnf("shard %d: %v; dropping result and exiting", s.ID, err)
			return errDone
		}
		// Retry budget exhausted on a live-but-lossy wire: drop the shard on
		// the floor. Its lease expires and another worker re-runs it.
		w.warnf("shard %d: submit failed after retries (%v); abandoning", s.ID, err)
		return nil
	}
	var ack SubmitResponse
	if err := json.Unmarshal(blob, &ack); err != nil {
		return fmt.Errorf("fleetd: bad /submit response: %w", err)
	}
	if !ack.OK {
		return fmt.Errorf("fleetd: shard %d rejected: %s", s.ID, ack.Error)
	}
	w.shards++
	return nil
}

// heartbeatLoop renews one lease at TTL/3 cadence until stopped. Failures
// are tolerated — a missed heartbeat costs at most a reassignment.
func (w *Worker) heartbeatLoop(id int64, ttl time.Duration, stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	interval := ttl / 3
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			blob, err := w.call("/heartbeat", HeartbeatRequest{Worker: w.cfg.ID, Shards: []int64{id}})
			if err != nil {
				continue
			}
			var resp HeartbeatResponse
			if err := json.Unmarshal(blob, &resp); err == nil && len(resp.Expired) > 0 {
				w.warnf("lease on shard %d expired under us; result will be acked stale", id)
				return
			}
		}
	}
}

// call makes one RPC attempt.
func (w *Worker) call(path string, req any) ([]byte, error) {
	var body []byte
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	return w.cfg.Transport.Call(path, body)
}

// callRetry wraps call in exponential backoff with jitter under the retry
// budget. A killed transport aborts immediately — the worker is dead, not
// unlucky.
func (w *Worker) callRetry(path string, req any) ([]byte, error) {
	delay := w.cfg.RetryBase
	var lastErr error
	refused := 0
	for attempt := 1; attempt <= w.cfg.RetryBudget; attempt++ {
		blob, err := w.call(path, req)
		if err == nil {
			w.everSpoke = true
			return blob, nil
		}
		if errors.Is(err, ErrWorkerKilled) {
			return nil, err
		}
		if errors.Is(err, syscall.ECONNREFUSED) {
			// A coordinator that once answered and now refuses outright has
			// exited; don't burn the whole backoff ladder finding out.
			if refused++; w.everSpoke && refused >= 3 {
				return nil, fmt.Errorf("%w (last error: %v)", ErrCoordinatorGone, err)
			}
		} else {
			refused = 0
		}
		lastErr = err
		w.retries++
		if attempt < w.cfg.RetryBudget {
			w.warnf("%s attempt %d/%d failed (%v); backing off %v", path, attempt, w.cfg.RetryBudget, err, delay)
			w.sleepJitter(delay)
			delay *= 2
			if delay > w.cfg.RetryMax {
				delay = w.cfg.RetryMax
			}
		}
	}
	if errors.Is(lastErr, syscall.ECONNREFUSED) {
		return nil, fmt.Errorf("%w (last error: %v)", ErrCoordinatorGone, lastErr)
	}
	return nil, fmt.Errorf("fleetd: %s: retry budget (%d) exhausted: %w", path, w.cfg.RetryBudget, lastErr)
}

// sleepJitter sleeps d scaled by a seeded factor in [0.5, 1.5) — desynchronizing
// worker retry storms without wall-clock randomness.
func (w *Worker) sleepJitter(d time.Duration) {
	if d <= 0 {
		d = time.Millisecond
	}
	time.Sleep(time.Duration(float64(d) * (0.5 + splitmix(&w.rng))))
}

func (w *Worker) warnf(format string, args ...any) {
	if w.cfg.Warn == nil {
		return
	}
	fmt.Fprintf(w.cfg.Warn, "fleetd[%s]: "+format+"\n", append([]any{w.cfg.ID}, args...)...)
}
