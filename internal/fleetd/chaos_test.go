package fleetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"iothub/internal/apps"
	"iothub/internal/fleet"
)

// chaosSpec expands to exactly 1000 scenarios: 2 app mixes × 2 schemes × 250
// QoS points — big enough that every failure mode in the schedule actually
// fires, small enough to sweep twice (service + oracle) in a few seconds.
func chaosSpec() fleet.Spec {
	qos := make([]float64, 250)
	for i := range qos {
		qos[i] = 0.5 + float64(i)*0.002
	}
	return fleet.Spec{
		Seed: 11,
		Grid: &fleet.Grid{
			Apps:           [][]apps.ID{{apps.StepCounter}, {apps.M2X}},
			Schemes:        []string{"baseline", "batching"},
			Windows:        []int{1},
			QoS:            qos,
			SkipAppCompute: true,
		},
	}
}

// submitKill severs worker 0's wire at its first /submit, so the worker
// always dies holding a finished shard it never handed in, however fast the
// rest of the fleet sweeps. The other workers' wires hold their first call
// until the victim has been granted a shard (or has exited), so they cannot
// finish the sweep before it leases anything.
type submitKill struct {
	inner   Transport
	granted chan struct{}
	once    sync.Once

	mu     sync.Mutex
	killed bool
}

func newSubmitKill(inner Transport) *submitKill {
	return &submitKill{inner: inner, granted: make(chan struct{})}
}

// Call implements Transport.
func (k *submitKill) Call(path string, body []byte) ([]byte, error) {
	k.mu.Lock()
	if path == "/submit" {
		k.killed = true
	}
	dead := k.killed
	k.mu.Unlock()
	if dead {
		return nil, ErrWorkerKilled
	}
	resp, err := k.inner.Call(path, body)
	if err == nil && path == "/lease" {
		var grant LeaseResponse
		if json.Unmarshal(resp, &grant) == nil && grant.Shard != nil {
			k.release()
		}
	}
	return resp, err
}

// release lets the other workers' wires through.
func (k *submitKill) release() { k.once.Do(func() { close(k.granted) }) }

// Killed reports whether the victim reached its first /submit.
func (k *submitKill) Killed() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.killed
}

// heldWire delays every call until open is closed.
type heldWire struct {
	inner Transport
	open  <-chan struct{}
}

// Call implements Transport.
func (h heldWire) Call(path string, body []byte) ([]byte, error) {
	<-h.open
	return h.inner.Call(path, body)
}

// chaosFleet runs n workers against c, each behind its own seeded Chaos
// wire. Worker 0 is killed at its first /submit (see submitKill). Returns the
// chaos wrappers for schedule assertions and worker 0's kill switch.
func chaosFleet(t *testing.T, c *Coordinator, n int, seed int64) ([]*Chaos, *submitKill) {
	t.Helper()
	wires := make([]*Chaos, n)
	var victim *submitKill
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := ChaosConfig{
			Seed:          seed + int64(i),
			DropProb:      0.10,
			DropReplyProb: 0.05,
			DupProb:       0.10,
			DelayProb:     0.20,
			MaxDelay:      3 * time.Millisecond,
		}
		wires[i] = NewChaos(Loopback{H: c.Handle}, cfg)
		var wire Transport
		if i == 0 {
			victim = newSubmitKill(wires[i])
			wire = victim
		} else {
			wire = heldWire{inner: wires[i], open: victim.granted}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				defer victim.release() // never strand the others
			}
			w, err := NewWorker(WorkerConfig{
				ID:        string(rune('a' + i)),
				Transport: wire,
				Seed:      seed + int64(i),
				RetryBase: 2 * time.Millisecond,
				RetryMax:  20 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			if err := w.Run(); err != nil && !(i == 0 && errors.Is(err, ErrWorkerKilled)) {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	return wires, victim
}

// The headline robustness claim: a 1000-scenario sweep sharded across four
// workers — RPCs dropped both directions, duplicated, delayed, one worker
// killed holding a finished shard — produces merged aggregates
// byte-identical to the single-process workers=1 run.
func TestChaosSweepByteIdentical(t *testing.T) {
	spec := chaosSpec()
	want := oracle(t, spec)

	c, err := New(Config{
		Spec:      spec,
		ShardSize: 50, MinShardSize: 10,
		LeaseTTL:       250 * time.Millisecond,
		ReassignBudget: 200, MaxShardAttempts: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wires, victim := chaosFleet(t, c, 4, 1)
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1000 {
		t.Fatalf("folded %d scenarios, want 1000", res.Completed)
	}
	got := res.Agg.JSON()
	if !bytes.Equal(got, want) {
		t.Errorf("chaos-mode aggregates diverge from workers=1 oracle\nservice fingerprint: %s\noracle bytes:  %d\nservice bytes: %d",
			res.Agg.Fingerprint(), len(want), len(got))
	}

	// The schedule must have actually been hostile, or this test proves
	// nothing: the kill fired, and the wire lost/duplicated traffic.
	var stats ChaosStats
	for _, w := range wires {
		s := w.Stats()
		stats.Calls += s.Calls
		stats.Drops += s.Drops
		stats.ReplyDrops += s.ReplyDrops
		stats.Dups += s.Dups
		stats.Delays += s.Delays
	}
	if !victim.Killed() {
		t.Error("kill switch never fired — schedule too gentle")
	}
	if stats.Drops == 0 || stats.ReplyDrops == 0 || stats.Dups == 0 || stats.Delays == 0 {
		t.Errorf("schedule too gentle to be a chaos test: %+v", stats)
	}
	st := c.Status()
	t.Logf("chaos schedule: %+v; coordinator: reassigns=%d degradeLevel=%d shardsTotal=%d",
		stats, st.Reassignments, st.DegradeLevel, st.ShardsTotal)
}

// The same hostile schedule, plus a coordinator crash: kill the coordinator
// mid-sweep (MaxScenarios), bring up a fresh one with Resume against the
// same journal, finish under chaos again — still byte-identical.
func TestChaosCoordinatorKillAndResume(t *testing.T) {
	spec := chaosSpec()
	want := oracle(t, spec)
	journal := filepath.Join(t.TempDir(), "fleetd.jsonl")

	first, err := New(Config{
		Spec: spec, Journal: journal, MaxScenarios: 400,
		ShardSize: 50, MinShardSize: 10,
		LeaseTTL:       250 * time.Millisecond,
		ReassignBudget: 200, MaxShardAttempts: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaosFleet(t, first, 3, 7)
	res1, err := first.Wait()
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	if res1.Completed < 400 || res1.Completed >= 1000 {
		t.Fatalf("first coordinator folded %d, want a mid-sweep stop in [400,1000)", res1.Completed)
	}

	second, err := New(Config{
		Spec: spec, Journal: journal, Resume: true,
		ShardSize: 50, MinShardSize: 10,
		LeaseTTL:       250 * time.Millisecond,
		ReassignBudget: 200, MaxShardAttempts: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	chaosFleet(t, second, 3, 13)
	res2, err := second.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != res1.Completed || res2.Completed != 1000 {
		t.Fatalf("resume folded %d (resumed %d), want 1000 (resumed %d)",
			res2.Completed, res2.Resumed, res1.Completed)
	}
	if got := res2.Agg.JSON(); !bytes.Equal(got, want) {
		t.Errorf("post-crash aggregates diverge from workers=1 oracle (fingerprint %s vs oracle run)",
			res2.Agg.Fingerprint())
	}
}

// Chaos wrappers are deterministic: the same seed and call sequence produce
// the same schedule.
func TestChaosScheduleDeterministic(t *testing.T) {
	count := func() ChaosStats {
		inner := Loopback{H: func(path string, body []byte) (int, []byte) { return 200, []byte("{}") }}
		ch := NewChaos(inner, ChaosConfig{Seed: 42, DropProb: 0.3, DropReplyProb: 0.1, DupProb: 0.2})
		for i := 0; i < 200; i++ {
			ch.Call("/x", nil)
		}
		return ch.Stats()
	}
	a, b := count(), count()
	if a != b {
		t.Errorf("same seed, different schedules: %+v vs %+v", a, b)
	}
	if a.Drops == 0 || a.ReplyDrops == 0 || a.Dups == 0 {
		t.Errorf("probabilities never fired over 200 calls: %+v", a)
	}
}

// A killed transport is dead forever — no zombie resurrection.
func TestChaosKillIsPermanent(t *testing.T) {
	inner := Loopback{H: func(path string, body []byte) (int, []byte) { return 200, []byte("{}") }}
	ch := NewChaos(inner, ChaosConfig{Seed: 1, KillAfterCalls: 3})
	var killed int
	for i := 0; i < 10; i++ {
		if _, err := ch.Call("/x", nil); errors.Is(err, ErrWorkerKilled) {
			killed++
		}
	}
	if killed != 8 {
		t.Errorf("calls 3..10 should all die: %d killed, want 8", killed)
	}
	if !ch.Stats().Killed {
		t.Error("stats do not report the kill")
	}
}
