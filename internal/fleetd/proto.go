package fleetd

import "iothub/internal/fleet"

// The coordinator/worker protocol: five POSTed JSON RPCs. Every RPC is
// idempotent or safely re-deliverable — the transport is allowed to drop,
// delay, or duplicate any of them (and the chaos harness does, on purpose):
//
//	/spec      → the sweep spec; workers expand it locally and verify the
//	             fingerprint, so a worker can never execute the wrong sweep.
//	/lease     → claim one shard under a deadline. Re-asking is harmless.
//	/heartbeat → renew held leases; also the worker-liveness signal.
//	/submit    → deliver a shard's records. Deduplicated by shard ID: the
//	             first accepted submission wins, every replay is acked stale.
//	/status    → observability for humans, smoke scripts, and tests.

// ShardInfo names one contiguous scenario-index range [Start, End) of the
// expanded sweep. IDs are never reused: a reassigned or split shard gets
// fresh IDs, which is what makes submission dedup a map lookup.
type ShardInfo struct {
	ID      int64 `json:"id"`
	Start   int   `json:"start"`
	End     int   `json:"end"`
	Attempt int   `json:"attempt"`
}

// SpecResponse hands a worker the sweep to expand locally.
type SpecResponse struct {
	Spec        fleet.Spec `json:"spec"`
	Scenarios   int        `json:"scenarios"`
	Fingerprint string     `json:"fingerprint"`
}

// LeaseRequest asks for one shard.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants a shard, asks the worker to retry later, or tells it
// the sweep is over.
type LeaseResponse struct {
	// Done: the sweep is complete (or aborted); the worker should exit.
	Done bool `json:"done,omitempty"`
	// Shard, when non-nil, is leased to the caller until TTLMs elapses
	// without a heartbeat. Nil with Done unset means nothing is available
	// right now — retry after RetryMs.
	Shard   *ShardInfo `json:"shard,omitempty"`
	TTLMs   int64      `json:"ttlMs,omitempty"`
	RetryMs int64      `json:"retryMs,omitempty"`
}

// HeartbeatRequest renews the caller's leases.
type HeartbeatRequest struct {
	Worker string  `json:"worker"`
	Shards []int64 `json:"shards,omitempty"`
}

// HeartbeatResponse reports which of the renewed leases are no longer held
// (expired and reassigned) so the worker can stop wasting cycles on them.
type HeartbeatResponse struct {
	OK      bool    `json:"ok"`
	Done    bool    `json:"done,omitempty"`
	Expired []int64 `json:"expired,omitempty"`
}

// SubmitRequest delivers one executed shard.
type SubmitRequest struct {
	Worker  string             `json:"worker"`
	Shard   int64              `json:"shard"`
	Attempt int                `json:"attempt"`
	Records []fleet.DoneRecord `json:"records"`
	// FP fingerprints Records; the coordinator refuses a payload that does
	// not hash to what it carries (a torn or mis-assembled submission).
	FP string `json:"fp"`
}

// SubmitResponse acknowledges a submission. Stale means the shard was
// already folded or retired (a retried, duplicated, or outrun submission) —
// the worker treats it exactly like OK and moves on.
type SubmitResponse struct {
	OK    bool   `json:"ok"`
	Stale bool   `json:"stale,omitempty"`
	Done  bool   `json:"done,omitempty"`
	Error string `json:"error,omitempty"`
}

// StatusResponse is the coordinator's observable state.
type StatusResponse struct {
	Total            int    `json:"total"`
	Folded           int    `json:"folded"`
	Errors           int    `json:"errors"`
	Done             bool   `json:"done"`
	Failed           string `json:"failed,omitempty"`
	Fingerprint      string `json:"fingerprint"`
	ShardsTotal      int    `json:"shardsTotal"`
	ShardsDone       int    `json:"shardsDone"`
	LeasesActive     int    `json:"leasesActive"`
	Reassignments    int    `json:"reassignments"`
	SubmitDuplicates int    `json:"submitDuplicates"`
	DegradeLevel     int    `json:"degradeLevel"`
	ShardSize        int    `json:"shardSize"`
	WorkersLive      int    `json:"workersLive"`
}
