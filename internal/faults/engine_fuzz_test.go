package faults

import (
	"testing"
	"time"

	"iothub/internal/sim"
)

// refKey names one rule's progress on one probed target.
type refKey struct {
	rule   int
	target string
}

// refState is the reference's per-(rule, target) trigger progress. Period
// progress is kept as the index of the next boundary that has not fired, an
// independent formulation of the engine's nextDue instant.
type refState struct {
	probes   int
	atIdx    int
	boundary int64
	rng      splitmix64
}

// refEngine is the brute-force oracle FuzzFaultEngine checks the engine
// against: every probe scans every rule of the schedule, advances each
// matching rule's progress once, and the first firing rule wins.
type refEngine struct {
	seed        int64
	rules       []Rule
	states      map[refKey]*refState
	activations uint64
}

func newRefEngine(s *Schedule) *refEngine {
	return &refEngine{
		seed:   s.Seed,
		rules:  append([]Rule(nil), s.Rules...),
		states: make(map[refKey]*refState),
	}
}

// fires returns the index of the rule the probe hits, or -1.
func (r *refEngine) fires(kind Kind, target string, now sim.Time) int {
	hit := -1
	for i, rule := range r.rules {
		if rule.Kind != kind || (rule.Target != "" && rule.Target != target) {
			continue
		}
		key := refKey{i, target}
		st := r.states[key]
		if st == nil {
			st = &refState{
				boundary: 1,
				rng:      splitmix64{state: uint64(r.seed) ^ (uint64(i)+1)*0x9e3779b97f4a7c15 ^ fnv1a(target)},
			}
			r.states[key] = st
		}
		st.probes++
		fired := false
		if n := rule.Trigger.EveryNth; n > 0 && st.probes%n == 0 {
			fired = true
		}
		if p := int64(rule.Trigger.Period); p > 0 && int64(now)/p >= st.boundary {
			fired = true
			st.boundary = int64(now)/p + 1
		}
		if st.atIdx < len(rule.Trigger.At) && now >= sim.Time(rule.Trigger.At[st.atIdx]) {
			fired = true
			st.atIdx++
		}
		if pr := rule.Trigger.Prob; pr > 0 && st.rng.float() < pr {
			fired = true
		}
		if fired && hit < 0 {
			hit = i
		}
	}
	if hit >= 0 {
		r.activations++
	}
	return hit
}

// hasKind reports whether any rule injects kind.
func (r *refEngine) hasKind(kind Kind) bool {
	for _, rule := range r.rules {
		if rule.Kind == kind {
			return true
		}
	}
	return false
}

// firedIndex maps the rule Fires returned to its index among the engine's
// own rules: -1 for none, -2 for a rule the engine does not own.
func firedIndex(e *Engine, got *Rule) int {
	if got == nil {
		return -1
	}
	for i := range e.rules {
		if got == &e.rules[i] {
			return i
		}
	}
	return -2
}

// fuzzTargets are the targets a probe script picks from: the hub's own
// probe targets plus sensors that named-target rules may or may not cover.
var fuzzTargets = []string{"link", "mcu", "radio:mcu", "S4", "S7", "S9"}

// FuzzFaultEngine checks Engine.Fires against the brute-force reference.
// The schedule text goes through ParseSchedule (a user-shaped input); the
// script bytes become probes of three bytes each — kind (every kind, plus 0
// and lastKind+1 outside the enumeration), target, and a step of 0–25.5 ms
// that keeps now non-decreasing. At every probe the engine must report the same rule (or
// none) as the reference and the same Activations and HasKind.
func FuzzFaultEngine(f *testing.F) {
	// sparse mixes every kind and target at uneven steps; dense probes the
	// link kinds on "link" and the sensor kinds on S4 in turn, 1.5 ms apart,
	// so each kind recurs every 6 ms: period boundaries fall between probes
	// and competing rules of one kind fire on the same probe.
	sparse := []byte{
		1, 0, 10, 2, 0, 10, 4, 3, 40, 5, 3, 0, 4, 4, 200, 5, 4, 1,
		3, 1, 255, 6, 2, 7, 0, 0, 0, 7, 5, 3, 4, 5, 90, 5, 5, 90,
		1, 0, 255, 2, 0, 255, 1, 0, 255, 2, 0, 255, 1, 0, 0, 2, 0, 0,
		7, 3, 10, 8, 3, 10, 7, 4, 0, 7, 3, 20,
	}
	var dense []byte
	for i := 0; i < 64; i++ {
		dense = append(dense, byte(1+i%2), 0, 15, byte(4+i%2), 3, 15)
	}
	for _, spec := range []string{
		"seed=7; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms",
		// Empty-target sensor rules, and two rules of one kind competing.
		"sensor-stuck:every=3; sensor-slow:on=S4,every=2,factor=3; sensor-slow:prob=0.5,factor=2",
		// Failed reads on every sensor, and a narrowed rule behind them.
		"seed=5; sensor-fail:every=2; sensor-fail:on=S4,prob=0.5; sensor-stuck:every=3",
		// Period and At triggers on the link, with a count rule behind them.
		"seed=3; link-loss:period=10ms; link-corrupt:at=10ms,at=30ms,at=500ms; link-loss:every=4",
		// Only self-firing kinds: every probed kind has no rules.
		"radio-outage:at=500ms,for=300ms; mcu-crash:period=400ms",
		// All four trigger styles on one rule.
		"seed=9; link-corrupt:every=2,prob=0.3,period=50ms,at=20ms",
		"",
	} {
		f.Add(spec, sparse)
		f.Add(spec, dense)
	}
	f.Fuzz(func(t *testing.T, spec string, script []byte) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		ref := newRefEngine(s)
		e, err := NewEngine(s)
		if err != nil {
			t.Fatalf("NewEngine rejected a parsed schedule %q: %v", spec, err)
		}
		// The engine keeps its own rules: clobbering the caller's copy must
		// not change what it reports.
		for i := range s.Rules {
			s.Rules[i].Target = "clobbered"
		}
		const maxProbes = 512
		var now sim.Time
		for n := 0; len(script) >= 3 && n < maxProbes; n++ {
			kind := Kind(script[0] % byte(lastKind+2))
			target := fuzzTargets[int(script[1])%len(fuzzTargets)]
			now = now.Add(time.Duration(script[2]) * 100 * time.Microsecond)
			script = script[3:]

			want := ref.fires(kind, target, now)
			if got := firedIndex(e, e.Fires(kind, target, now)); got != want {
				t.Fatalf("%q probe %d (%v, %s, %v): engine fired rule %d, reference %d (-1 none, -2 not the engine's)",
					spec, n, kind, target, now, got, want)
			}
			if e.Activations() != ref.activations {
				t.Fatalf("%q probe %d: Activations %d, reference %d", spec, n, e.Activations(), ref.activations)
			}
			if e.HasKind(kind) != ref.hasKind(kind) {
				t.Fatalf("%q probe %d: HasKind(%v) = %v, reference %v", spec, n, kind, e.HasKind(kind), ref.hasKind(kind))
			}
		}
	})
}
