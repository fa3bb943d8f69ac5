// Package faults is a deterministic, seedable fault-schedule engine for the
// simulated hub. A Schedule is a list of Rules; each Rule injects one Kind of
// hardware fault (link frame corruption/loss, MCU crash, sensor
// stuck/slow/failed read, radio outage) on a Trigger that is count-,
// interval-, time-, or probability-based. Every run of the same Schedule
// with the same Seed produces the identical fault sequence: the engine keeps
// per-(rule, target) counters and PRNG streams whose evolution depends only
// on the order of probes, and the simulator's event order is itself
// deterministic.
//
// Two consumption styles exist:
//
//   - Probe-based faults (link corruption/loss, sensor stuck/slow/fail) are
//     asked about at the moment the hardware operation happens:
//     Fires(kind, target, now) evaluates each matching rule's trigger and
//     reports the first that fires. Each probe advances the matching rules'
//     counters exactly once, so the fault pattern is a pure function of the
//     probe sequence.
//   - Self-firing faults (MCU crash, radio outage) happen at wall-clock
//     instants independent of hub activity: TimedEvents expands their At and
//     Period triggers into concrete instants up to a horizon, which the hub
//     schedules as simulator events.
//
// An empty or nil Schedule is inert: Active reports false and the hub takes
// its fault-free fast path, byte-identical to a run with no schedule at all.
package faults

import (
	"fmt"
	"time"

	"iothub/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault kinds, one per hardware failure mode the hub models.
const (
	// LinkCorrupt flips bits in a link frame; the CRC catches it and the
	// sender retransmits (each retry costs real wire time and energy).
	LinkCorrupt Kind = iota + 1
	// LinkLoss drops a link frame entirely; the sender times out waiting
	// for the acknowledgement before retransmitting.
	LinkLoss
	// MCUCrash reboots the MCU: in-RAM batch buffers are lost and must be
	// re-collected, queued work restarts after the reboot.
	MCUCrash
	// SensorStuck makes a read return the previous (stale) value; timing
	// and energy are unchanged, the staleness is accounted.
	SensorStuck
	// SensorSlow multiplies a read's bus transaction time by Factor.
	SensorSlow
	// RadioOutage takes an uplink radio off the air for Duration; bursts
	// queue (bounded) until it returns.
	RadioOutage
	// SensorFail fails a read's availability check (§II-B Task I): the
	// attempt still costs the full bus transaction and MCU check, and the
	// MCU re-reads once, dropping the sample if the re-read fails too.
	SensorFail

	// lastKind bounds the enumeration.
	lastKind = SensorFail
)

// String names the kind as ParseSchedule spells it.
func (k Kind) String() string {
	switch k {
	case LinkCorrupt:
		return "link-corrupt"
	case LinkLoss:
		return "link-loss"
	case MCUCrash:
		return "mcu-crash"
	case SensorStuck:
		return "sensor-stuck"
	case SensorSlow:
		return "sensor-slow"
	case RadioOutage:
		return "radio-outage"
	case SensorFail:
		return "sensor-fail"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Trigger decides when a rule fires. Exactly one style is typically set;
// when several are set any of them firing fires the rule.
type Trigger struct {
	// EveryNth fires on every Nth probe of the rule (count-triggered).
	EveryNth int
	// Period fires on the first probe at or after each multiple of Period
	// (interval-triggered). For self-firing kinds it fires exactly at each
	// multiple.
	Period time.Duration
	// At fires once at each listed instant (time-triggered).
	At []time.Duration
	// Prob fires each probe with this probability, drawn from the rule's
	// seeded PRNG stream (probabilistic but reproducible).
	Prob float64
}

func (t Trigger) empty() bool {
	return t.EveryNth <= 0 && t.Period <= 0 && len(t.At) == 0 && t.Prob <= 0
}

// Rule injects one fault kind on one target.
type Rule struct {
	Kind Kind
	// Target selects the hardware instance: "link", "mcu", "radio:main",
	// "radio:mcu", or a sensor ID like "S4". Empty matches every target
	// probed for the rule's kind.
	Target  string
	Trigger Trigger
	// Duration is the fault's length for MCUCrash (reboot time; zero means
	// the MCU's calibrated reboot time) and RadioOutage (off-air span).
	Duration time.Duration
	// Factor is the SensorSlow read-time multiplier (values below 1 are
	// clamped to 1).
	Factor float64
}

// Validate rejects rules that could never fire or are malformed.
func (r Rule) Validate() error {
	if r.Kind < LinkCorrupt || r.Kind > lastKind {
		return fmt.Errorf("unknown kind %d", int(r.Kind))
	}
	if r.Trigger.empty() {
		return fmt.Errorf("%v rule has no trigger", r.Kind)
	}
	if r.Trigger.EveryNth < 0 || r.Trigger.Period < 0 || r.Trigger.Prob < 0 || r.Trigger.Prob > 1 {
		return fmt.Errorf("%v rule has invalid trigger", r.Kind)
	}
	for i, at := range r.Trigger.At {
		if at < 0 {
			return fmt.Errorf("%v rule at[%d] negative", r.Kind, i)
		}
		if i > 0 && at < r.Trigger.At[i-1] {
			return fmt.Errorf("%v rule At instants not sorted", r.Kind)
		}
	}
	if r.Duration < 0 {
		return fmt.Errorf("%v rule negative duration", r.Kind)
	}
	if r.Kind == RadioOutage && r.Duration <= 0 {
		return fmt.Errorf("radio-outage rule needs for=<duration>")
	}
	return nil
}

// appliesTo reports whether the rule applies to a probe of target.
func (r *Rule) appliesTo(target string) bool {
	return r.Target == "" || r.Target == target
}

// Schedule is a complete fault plan: a seed plus an ordered rule list.
type Schedule struct {
	// Seed drives every probabilistic trigger. Runs with equal seeds and
	// equal probe sequences produce identical fault patterns.
	Seed int64
	// Rules are evaluated in order; the first firing rule wins a probe.
	Rules []Rule
}

// Active reports whether the schedule injects anything at all.
func (s *Schedule) Active() bool { return s != nil && len(s.Rules) > 0 }

// Validate checks every rule. Violations name the offending rule by its
// 1-based index, matching ParseSchedule's numbering.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, r := range s.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("faults: rule %d: %w", i+1, err)
		}
	}
	return nil
}

// splitmix64 is a tiny self-contained PRNG (Steele et al., "Fast splittable
// pseudorandom number generators"). Used instead of math/rand so the fault
// stream is stable across Go releases.
type splitmix64 struct{ state uint64 }

func (p *splitmix64) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (p *splitmix64) float() float64 { return float64(p.next()>>11) / (1 << 53) }

// fnv1a hashes a target name into the PRNG seed mix.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ruleState is one rule's per-target trigger progress.
type ruleState struct {
	probes  int
	atIdx   int
	nextDue sim.Time // next Period boundary that has not fired yet
	rng     splitmix64
}

// Engine evaluates a Schedule deterministically. One Engine serves one
// simulation run; it is not safe for concurrent use (the simulator is
// single-threaded by design).
type Engine struct {
	seed  int64
	rules []Rule // the engine's own copy of the schedule's rules
	// byKind lists each kind's rule indices in rule order, so a probe walks
	// only the rules that can match it.
	byKind [lastKind + 1][]int
	states []map[string]*ruleState // per rule, per probed target
	// activations counts probe hits — rules Fires reported as firing. Timed
	// (self-firing) events are counted by the hub as it runs them.
	activations uint64
}

// Activations reports how many probes hit a firing rule so far.
func (e *Engine) Activations() uint64 {
	if e == nil {
		return 0
	}
	return e.activations
}

// NewEngine compiles a schedule. A nil or empty schedule returns a nil
// engine, which every method treats as "no faults".
func NewEngine(s *Schedule) (*Engine, error) {
	if !s.Active() {
		return nil, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		seed:   s.Seed,
		rules:  append([]Rule(nil), s.Rules...),
		states: make([]map[string]*ruleState, len(s.Rules)),
	}
	for i, r := range e.rules {
		e.byKind[r.Kind] = append(e.byKind[r.Kind], i)
		e.states[i] = make(map[string]*ruleState)
	}
	return e, nil
}

// ofKind returns kind's rule indices in rule order; nil for a kind with no
// rules or one outside the enumeration.
func (e *Engine) ofKind(kind Kind) []int {
	if kind < 0 || int(kind) >= len(e.byKind) {
		return nil
	}
	return e.byKind[kind]
}

// HasKind reports whether any rule injects one of the given kinds. The hub
// uses it to keep fault-free layers on their exact fault-free code paths.
func (e *Engine) HasKind(kinds ...Kind) bool {
	if e == nil {
		return false
	}
	for _, k := range kinds {
		if len(e.ofKind(k)) > 0 {
			return true
		}
	}
	return false
}

// state returns the rule's progress for a target, creating it with a seed
// derived from (schedule seed, rule index, target name).
func (e *Engine) state(rule int, target string) *ruleState {
	st, ok := e.states[rule][target]
	if !ok {
		st = &ruleState{
			nextDue: sim.Time(e.rules[rule].Trigger.Period),
			rng:     splitmix64{state: uint64(e.seed) ^ (uint64(rule)+1)*0x9e3779b97f4a7c15 ^ fnv1a(target)},
		}
		e.states[rule][target] = st
	}
	return st
}

// Fires probes every rule matching (kind, target) at virtual instant now and
// returns the first rule that fires, or nil. Each matching rule's counters
// advance exactly once per probe, so the outcome is a deterministic function
// of the probe sequence. The returned rule is the engine's own; callers read
// it and must not modify it.
func (e *Engine) Fires(kind Kind, target string, now sim.Time) *Rule {
	if e == nil {
		return nil
	}
	var hit *Rule
	for _, i := range e.ofKind(kind) {
		r := &e.rules[i]
		if !r.appliesTo(target) {
			continue
		}
		st := e.state(i, target)
		st.probes++
		fired := false
		if n := r.Trigger.EveryNth; n > 0 && st.probes%n == 0 {
			fired = true
		}
		if p := sim.Time(r.Trigger.Period); p > 0 && now >= st.nextDue {
			fired = true
			// The next due boundary is the first multiple of Period after
			// now: boundaries the probe sequence never visited are skipped.
			st.nextDue = (now/p + 1) * p
		}
		if st.atIdx < len(r.Trigger.At) && now >= sim.Time(r.Trigger.At[st.atIdx]) {
			fired = true
			st.atIdx++
		}
		if pr := r.Trigger.Prob; pr > 0 && st.rng.float() < pr {
			fired = true
		}
		if fired && hit == nil {
			hit = r
		}
	}
	if hit != nil {
		e.activations++
	}
	return hit
}

// TimedEvent is one concrete firing of a self-firing rule.
type TimedEvent struct {
	At   sim.Time
	Rule Rule
}

// TimedEvents expands every matching rule's At and Period triggers into
// concrete instants in (0, horizon]. Count- and probability-triggers do not
// apply to self-firing kinds and are ignored here.
func (e *Engine) TimedEvents(kind Kind, target string, horizon time.Duration) []TimedEvent {
	if e == nil || horizon <= 0 {
		return nil
	}
	var out []TimedEvent
	for _, i := range e.ofKind(kind) {
		r := e.rules[i]
		if !r.appliesTo(target) {
			continue
		}
		for _, at := range r.Trigger.At {
			if at > 0 && at <= horizon {
				out = append(out, TimedEvent{At: sim.Time(at), Rule: r})
			}
		}
		if p := r.Trigger.Period; p > 0 {
			for at := p; at <= horizon; at += p {
				out = append(out, TimedEvent{At: sim.Time(at), Rule: r})
			}
		}
	}
	// Insertion sort by instant keeps equal instants in rule order, matching
	// the scheduler's own deterministic tie-breaking.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].At < out[j-1].At; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
