package fleetd

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"iothub/internal/fleet"
	"iothub/internal/obs"
)

// Config tunes one coordinator. Like fleet.Options, nothing here changes
// what the sweep computes — only how it survives: the same spec folds to
// byte-identical aggregates under any lease TTL, shard size, worker
// population, or failure history.
type Config struct {
	// Spec is the sweep to shard out.
	Spec fleet.Spec
	// Journal / Resume checkpoint and recover the coordinator itself, in the
	// same fingerprint-verified format as fleet.Run — a journal written by
	// either engine resumes under the other.
	Journal string
	Resume  bool
	// LeaseTTL is how long a dispatched shard may go without a heartbeat
	// before it is reassigned (default 3s).
	LeaseTTL time.Duration
	// ShardSize is the initial scenarios-per-shard (default 64); MinShardSize
	// floors the degradation ladder's shrinking (default 8).
	ShardSize    int
	MinShardSize int
	// MaxShardAttempts fails the sweep when any one shard keeps dying
	// (default 8); ReassignBudget fails it when the sweep as a whole does
	// (default 64 lease expiries).
	MaxShardAttempts int
	ReassignBudget   int
	// DegradeAfter steps the ladder once per this many lease expiries
	// (default 4): each step halves the target shard size (≥ MinShardSize)
	// and the in-flight lease ceiling — smaller blast radius, less wasted
	// re-execution, mirroring hub.ResiliencePolicy's downshift under faults.
	DegradeAfter int
	// MaxInflight caps outstanding leases before degradation (default 16).
	MaxInflight int
	// MaxScenarios, when > 0, stops folding after that many scenarios and
	// leaves the journal resumable — the same interrupt-and-resume hook
	// fleet.Options has, used to simulate coordinator crashes in tests.
	MaxScenarios int
	// Progress and Warn receive JSON progress lines and tolerated-anomaly
	// warnings. Both optional.
	Progress io.Writer
	Warn     io.Writer
}

func (c *Config) fillDefaults() {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.ShardSize <= 0 {
		c.ShardSize = 64
	}
	if c.MinShardSize <= 0 {
		c.MinShardSize = 8
	}
	if c.MinShardSize > c.ShardSize {
		c.MinShardSize = c.ShardSize
	}
	if c.MaxShardAttempts <= 0 {
		c.MaxShardAttempts = 8
	}
	if c.ReassignBudget <= 0 {
		c.ReassignBudget = 64
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 4
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 16
	}
}

// shard is one contiguous range of the scenario index space. Every index in
// [0, total) is owned by exactly one of: the folded prefix, the fold's
// reorder buffer, a live lease, or the pending queue — the invariant that
// makes double-counting impossible.
type shard struct {
	id      int64
	start   int
	end     int
	attempt int
}

type lease struct {
	shard   shard
	worker  string
	expires time.Time
}

// Coordinator owns a sweep: it shards the scenario space, leases shards to
// workers under deadlines, folds accepted submissions through the same
// fleet.Fold as the in-process engine (so the merged aggregates and the
// journal are byte-identical to a single-process run), and survives worker
// loss by reassigning expired leases — shrinking shards and concurrency as
// failures accumulate. Its fields below mu are the only count of the
// service state: /status, progress lines and /metrics all read them.
type Coordinator struct {
	cfg    Config
	spec   SpecResponse
	gauges *obs.Gauges // the fold's sweep gauges

	mu          sync.Mutex
	fold        *fleet.Fold
	pending     []shard // sorted by start; lowest range leases first
	leases      map[int64]*lease
	nextShardID int64
	workers     map[string]time.Time // worker → last heard from
	reassigns   int
	level       int // degradation-ladder level
	shardSize   int
	shardsTotal int
	shardsDone  int
	submitDupes int // submissions ignored by the idempotency check
	stopped     bool
	failure     error

	done        chan struct{}
	janitorStop chan struct{}
	janitorWG   sync.WaitGroup
}

// New builds a coordinator: expands the spec, opens its fold (replaying the
// journal when resuming, tolerating a truncated final record), shards the
// remaining index space, and starts the lease janitor.
func New(cfg Config) (*Coordinator, error) {
	cfg.fillDefaults()
	scens, err := cfg.Spec.Expand()
	if err != nil {
		return nil, err
	}
	gauges := obs.NewGauges()
	fold, err := fleet.OpenFold(cfg.Spec, scens, fleet.Options{
		Journal: cfg.Journal, Resume: cfg.Resume, MaxScenarios: cfg.MaxScenarios, Gauges: gauges,
	})
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:         cfg,
		spec:        SpecResponse{Spec: cfg.Spec, Scenarios: len(scens), Fingerprint: fold.SpecFingerprint()},
		gauges:      gauges,
		fold:        fold,
		leases:      map[int64]*lease{},
		workers:     map[string]time.Time{},
		shardSize:   cfg.ShardSize,
		done:        make(chan struct{}),
		janitorStop: make(chan struct{}),
	}
	for _, w := range fold.Result().Warnings {
		c.warnf("%s", w)
	}

	for i := fold.Next(); i < fold.Limit(); i += c.shardSize {
		end := min(i+c.shardSize, fold.Limit())
		c.enqueueLocked(shard{id: c.nextShardID, start: i, end: end, attempt: 1})
		c.nextShardID++
	}
	c.shardsTotal = len(c.pending)

	c.mu.Lock()
	if fold.Next() >= fold.Limit() {
		c.finishLocked()
	}
	c.mu.Unlock()

	c.janitorWG.Add(1)
	go c.janitor()
	return c, nil
}

// Wait blocks until the sweep completes, is stopped by MaxScenarios, or
// fails terminally, and returns the folded result.
func (c *Coordinator) Wait() (*fleet.Result, error) {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fold.Result(), c.failure
}

// Close aborts the sweep (if still running) and releases the janitor and
// journal. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if !c.stopped {
		c.finishLocked()
	}
	c.mu.Unlock()
	c.janitorWG.Wait()
	return nil
}

// Handle is the transport-agnostic RPC dispatcher.
func (c *Coordinator) Handle(path string, body []byte) (int, []byte) {
	switch path {
	case "/spec":
		return marshal(c.spec)
	case "/lease":
		var req LeaseRequest
		if err := json.Unmarshal(orEmpty(body), &req); err != nil {
			return badRequest(err)
		}
		return marshal(c.lease(req))
	case "/heartbeat":
		var req HeartbeatRequest
		if err := json.Unmarshal(orEmpty(body), &req); err != nil {
			return badRequest(err)
		}
		return marshal(c.heartbeat(req))
	case "/submit":
		var req SubmitRequest
		if err := json.Unmarshal(orEmpty(body), &req); err != nil {
			return badRequest(err)
		}
		return marshal(c.submit(req))
	case "/status":
		return marshal(c.Status())
	default:
		return 404, []byte(`{"error":"unknown path"}`)
	}
}

func orEmpty(body []byte) []byte {
	if len(body) == 0 {
		return []byte("{}")
	}
	return body
}

func marshal(v any) (int, []byte) {
	blob, err := json.Marshal(v)
	if err != nil {
		return 500, []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return 200, blob
}

func badRequest(err error) (int, []byte) {
	return 400, []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
}

// lease grants the lowest pending shard, subject to the in-flight ceiling.
func (c *Coordinator) lease(req LeaseRequest) LeaseResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sawWorkerLocked(req.Worker, now)
	c.expireLocked(now)
	if c.stopped {
		return LeaseResponse{Done: true}
	}
	// An idle worker re-polls quickly: the tail of a sweep is workers
	// waiting on the last leases, and a long nap there is pure wall-clock
	// loss (leases stay protected by the TTL regardless of poll rate).
	retryEvery := c.cfg.LeaseTTL / 4
	if retryEvery > 50*time.Millisecond {
		retryEvery = 50 * time.Millisecond
	}
	retry := LeaseResponse{RetryMs: clampMs(retryEvery)}
	if len(c.pending) == 0 || len(c.leases) >= c.maxInflightLocked() {
		return retry
	}
	s := c.pending[0]
	c.pending = c.pending[1:]
	c.leases[s.id] = &lease{shard: s, worker: req.Worker, expires: now.Add(c.cfg.LeaseTTL)}
	info := ShardInfo{ID: s.id, Start: s.start, End: s.end, Attempt: s.attempt}
	return LeaseResponse{Shard: &info, TTLMs: clampMs(c.cfg.LeaseTTL)}
}

// heartbeat renews the caller's leases and reports the ones it lost.
func (c *Coordinator) heartbeat(req HeartbeatRequest) HeartbeatResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sawWorkerLocked(req.Worker, now)
	c.expireLocked(now)
	resp := HeartbeatResponse{OK: true, Done: c.stopped}
	for _, id := range req.Shards {
		if l, ok := c.leases[id]; ok && l.worker == req.Worker {
			l.expires = now.Add(c.cfg.LeaseTTL)
		} else {
			resp.Expired = append(resp.Expired, id)
		}
	}
	return resp
}

// submit accepts a shard's records exactly once. Replays — RPC retries,
// chaos duplications, or a slow worker outrun by a reassignment — are acked
// as stale so the worker moves on, and never fold twice.
func (c *Coordinator) submit(req SubmitRequest) SubmitResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sawWorkerLocked(req.Worker, now)
	c.expireLocked(now)
	if c.stopped {
		return SubmitResponse{OK: true, Stale: true, Done: true}
	}
	l, ok := c.leases[req.Shard]
	if !ok {
		c.submitDupes++
		return SubmitResponse{OK: true, Stale: true, Done: c.stopped}
	}
	s := l.shard
	if len(req.Records) != s.end-s.start {
		return SubmitResponse{Error: fmt.Sprintf("shard %d: %d records, want %d", s.id, len(req.Records), s.end-s.start)}
	}
	for k, rec := range req.Records {
		if rec.Index != s.start+k {
			return SubmitResponse{Error: fmt.Sprintf("shard %d: record %d has index %d, want %d", s.id, k, rec.Index, s.start+k)}
		}
	}
	if fp := fleet.RecordsFingerprint(req.Records); fp != req.FP {
		return SubmitResponse{Error: fmt.Sprintf("shard %d: payload fingerprint %s != declared %s", s.id, fp, req.FP)}
	}
	delete(c.leases, req.Shard)
	c.shardsDone++
	err := c.fold.Add(req.Records...)
	c.progressLocked()
	if err != nil {
		c.failLocked(err)
	} else if c.fold.Next() >= c.fold.Limit() {
		c.finishLocked()
	}
	return SubmitResponse{OK: true, Done: c.stopped}
}

// Status snapshots the coordinator.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := c.fold.Result()
	st := StatusResponse{
		Total:            res.Scenarios,
		Folded:           res.Completed,
		Errors:           res.Agg.Errors,
		Done:             c.stopped,
		Fingerprint:      res.Agg.Fingerprint(),
		ShardsTotal:      c.shardsTotal,
		ShardsDone:       c.shardsDone,
		LeasesActive:     len(c.leases),
		Reassignments:    c.reassigns,
		SubmitDuplicates: c.submitDupes,
		DegradeLevel:     c.level,
		ShardSize:        c.shardSize,
		WorkersLive:      c.liveWorkersLocked(time.Now()),
	}
	if c.failure != nil {
		st.Failed = c.failure.Error()
	}
	return st
}

// WritePrometheus renders the coordinator's /metrics page: the sweep gauges
// its fold keeps, then the service state read from Status, so the page and
// /status cannot disagree.
func (c *Coordinator) WritePrometheus(w io.Writer) error {
	if err := c.gauges.WritePrometheus(w); err != nil {
		return err
	}
	st := c.Status()
	for _, sr := range []struct {
		name, help string
		value      int
	}{
		{"iothub_fleetd_shards_total", "Shards in the coordinator's plan (splits included).", st.ShardsTotal},
		{"iothub_fleetd_shards_done", "Shards whose results were accepted and folded.", st.ShardsDone},
		{"iothub_fleetd_leases_active", "Shard leases currently outstanding.", st.LeasesActive},
		{"iothub_fleetd_lease_expiries_total", "Lease deadline misses (= shard reassignments).", st.Reassignments},
		{"iothub_fleetd_submit_duplicates_total", "Submissions ignored by the idempotency check.", st.SubmitDuplicates},
		{"iothub_fleetd_degrade_level", "Coordinator degradation-ladder level.", st.DegradeLevel},
		{"iothub_fleetd_workers_live", "Workers heard from within the liveness window.", st.WorkersLive},
	} {
		if err := obs.WriteGauge(w, sr.name, sr.help, float64(sr.value)); err != nil {
			return err
		}
	}
	return nil
}

// expireLocked reaps lease deadline misses: each one is a reassignment,
// charged against the sweep budget and the shard's attempt allowance, and
// every DegradeAfter of them steps the degradation ladder — smaller shards,
// fewer concurrent leases.
func (c *Coordinator) expireLocked(now time.Time) {
	if c.stopped {
		return
	}
	var expired []*lease
	for _, l := range c.leases {
		if now.After(l.expires) {
			expired = append(expired, l)
		}
	}
	// Deterministic order for reproducible logs and tests.
	sort.Slice(expired, func(i, j int) bool { return expired[i].shard.start < expired[j].shard.start })
	for _, l := range expired {
		delete(c.leases, l.shard.id)
		c.reassigns++
		c.warnf("lease on shard %d [%d,%d) held by %q expired (attempt %d); reassigning",
			l.shard.id, l.shard.start, l.shard.end, l.worker, l.shard.attempt)
		if c.reassigns > c.cfg.ReassignBudget {
			c.failLocked(fmt.Errorf("fleetd: reassignment budget exhausted (%d expiries > %d)", c.reassigns, c.cfg.ReassignBudget))
			return
		}
		if c.reassigns%c.cfg.DegradeAfter == 0 {
			c.degradeLocked()
		}
		attempt := l.shard.attempt + 1
		if attempt > c.cfg.MaxShardAttempts {
			c.failLocked(fmt.Errorf("fleetd: shard [%d,%d) died %d times (max %d)",
				l.shard.start, l.shard.end, l.shard.attempt, c.cfg.MaxShardAttempts))
			return
		}
		// Re-queue at the current (possibly shrunk) shard size: a wide range
		// that kept dying comes back as several small ones.
		for i := l.shard.start; i < l.shard.end; i += c.shardSize {
			end := i + c.shardSize
			if end > l.shard.end {
				end = l.shard.end
			}
			c.enqueueLocked(shard{id: c.nextShardID, start: i, end: end, attempt: attempt})
			c.nextShardID++
			c.shardsTotal++
		}
	}
}

// degradeLocked steps the ladder: halve the target shard size (floored) and
// the in-flight ceiling.
func (c *Coordinator) degradeLocked() {
	c.level++
	if half := c.shardSize / 2; half >= c.cfg.MinShardSize {
		c.shardSize = half
	} else {
		c.shardSize = c.cfg.MinShardSize
	}
	c.warnf("degradation level %d: shard size now %d, max in-flight leases now %d",
		c.level, c.shardSize, c.maxInflightLocked())
}

func (c *Coordinator) maxInflightLocked() int {
	m := c.cfg.MaxInflight >> c.level
	if m < 1 {
		m = 1
	}
	return m
}

func (c *Coordinator) enqueueLocked(s shard) {
	at := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].start > s.start })
	c.pending = append(c.pending, shard{})
	copy(c.pending[at+1:], c.pending[at:])
	c.pending[at] = s
}

func (c *Coordinator) sawWorkerLocked(worker string, now time.Time) {
	if worker != "" {
		c.workers[worker] = now
	}
}

// liveWorkersLocked counts workers heard from within three lease TTLs.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	live := 0
	for _, at := range c.workers {
		if now.Sub(at) <= 3*c.cfg.LeaseTTL {
			live++
		}
	}
	return live
}

// failLocked records the terminal error and stops the sweep.
func (c *Coordinator) failLocked(err error) {
	if c.failure == nil {
		c.failure = err
	}
	c.warnf("sweep failed: %v", err)
	c.finishLocked()
}

// finishLocked seals the coordinator: fold closed (fingerprint published,
// journal closed), waiters released, janitor told to stop. Idempotent.
func (c *Coordinator) finishLocked() {
	if c.stopped {
		return
	}
	c.stopped = true
	if _, err := c.fold.Close(); err != nil && c.failure == nil {
		c.failure = err
	}
	close(c.done)
	close(c.janitorStop)
}

// janitor reaps expired leases even when no RPC arrives to trigger the lazy
// sweep — the case where every worker died at once.
func (c *Coordinator) janitor() {
	defer c.janitorWG.Done()
	interval := c.cfg.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case now := <-t.C:
			c.mu.Lock()
			c.expireLocked(now)
			c.mu.Unlock()
		}
	}
}

func (c *Coordinator) progressLocked() {
	if c.cfg.Progress == nil {
		return
	}
	res := c.fold.Result()
	fmt.Fprintf(c.cfg.Progress,
		`{"done":%d,"total":%d,"errors":%d,"shards_done":%d,"shards_total":%d,"leases":%d,"reassigns":%d,"level":%d}`+"\n",
		res.Completed, res.Scenarios, res.Agg.Errors, c.shardsDone, c.shardsTotal,
		len(c.leases), c.reassigns, c.level)
}

func (c *Coordinator) warnf(format string, args ...any) {
	if c.cfg.Warn == nil {
		return
	}
	fmt.Fprintf(c.cfg.Warn, "fleetd: "+format+"\n", args...)
}

func clampMs(d time.Duration) int64 {
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}
