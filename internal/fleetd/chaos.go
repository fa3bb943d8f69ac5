package fleetd

import (
	"errors"
	"sync"
	"time"
)

// ErrChaosDrop is what a worker sees when the chaos transport eats an RPC —
// either the request never arrived or the reply was lost on the way back.
// Indistinguishable by design: the worker cannot know whether the
// coordinator processed the call, which is exactly the ambiguity the
// idempotent protocol has to absorb.
var ErrChaosDrop = errors.New("fleetd: chaos: rpc dropped")

// ErrWorkerKilled is the permanent failure a killed worker's transport
// returns forever after — the in-process stand-in for kill -9.
var ErrWorkerKilled = errors.New("fleetd: chaos: worker killed")

// ChaosConfig tunes one worker's hostile wire. Probabilities are
// independent per call, evaluated in the order: kill, drop-request, delay,
// duplicate, drop-reply.
type ChaosConfig struct {
	// Seed makes the schedule reproducible.
	Seed int64
	// DropProb loses the request before the coordinator sees it.
	DropProb float64
	// DropReplyProb loses the reply after the coordinator processed the call
	// — the nastier half of at-most-once's impossibility.
	DropReplyProb float64
	// DupProb delivers the request twice (the coordinator sees both).
	DupProb float64
	// DelayProb / MaxDelay add a random hold before delivery.
	DelayProb float64
	MaxDelay  time.Duration
	// KillAfterCalls, when > 0, permanently kills the transport after that
	// many calls — every later call (and the in-flight one) returns
	// ErrWorkerKilled.
	KillAfterCalls int
}

// Chaos wraps a Transport in seeded failure injection. Safe for concurrent
// use; the RNG is mutex-protected so a schedule is a pure function of the
// seed and the call order.
type Chaos struct {
	inner Transport
	cfg   ChaosConfig

	mu     sync.Mutex
	rng    uint64
	calls  int
	killed bool

	// Counters for test assertions (read via Stats after the dust settles).
	drops, replyDrops, dups, delays int
}

// NewChaos wraps inner in a chaos schedule.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	return &Chaos{inner: inner, cfg: cfg, rng: uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

// ChaosStats summarizes what a schedule actually did.
type ChaosStats struct {
	Calls, Drops, ReplyDrops, Dups, Delays int
	Killed                                 bool
}

// Stats snapshots the counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChaosStats{Calls: c.calls, Drops: c.drops, ReplyDrops: c.replyDrops,
		Dups: c.dups, Delays: c.delays, Killed: c.killed}
}

// splitmix advances the splitmix64 state and returns a uniform draw in
// [0, 1) from the top 53 bits of the step's output.
func splitmix(state *uint64) float64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// Call implements Transport: the wrapped call, possibly dropped, delayed,
// duplicated, or severed forever.
func (c *Chaos) Call(path string, body []byte) ([]byte, error) {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return nil, ErrWorkerKilled
	}
	c.calls++
	if c.cfg.KillAfterCalls > 0 && c.calls >= c.cfg.KillAfterCalls {
		c.killed = true
		c.mu.Unlock()
		return nil, ErrWorkerKilled
	}
	drop := splitmix(&c.rng) < c.cfg.DropProb
	var delay time.Duration
	if splitmix(&c.rng) < c.cfg.DelayProb && c.cfg.MaxDelay > 0 {
		delay = time.Duration(splitmix(&c.rng) * float64(c.cfg.MaxDelay))
	}
	dup := splitmix(&c.rng) < c.cfg.DupProb
	dropReply := splitmix(&c.rng) < c.cfg.DropReplyProb
	if drop {
		c.drops++
	}
	if delay > 0 {
		c.delays++
	}
	if dup {
		c.dups++
	}
	c.mu.Unlock()

	if drop {
		return nil, ErrChaosDrop
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if dup {
		// First delivery's reply is discarded — the retried/duplicated
		// request is the one whose answer the worker sees.
		c.inner.Call(path, body)
	}
	resp, err := c.inner.Call(path, body)
	if err != nil {
		return nil, err
	}
	if dropReply {
		c.mu.Lock()
		c.replyDrops++
		c.mu.Unlock()
		return nil, ErrChaosDrop
	}
	return resp, nil
}
