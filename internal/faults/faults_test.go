package faults

import (
	"strings"
	"testing"
	"time"

	"iothub/internal/sim"
)

func TestInactiveSchedules(t *testing.T) {
	var nilSched *Schedule
	if nilSched.Active() {
		t.Error("nil schedule active")
	}
	if (&Schedule{Seed: 42}).Active() {
		t.Error("rule-less schedule active")
	}
	e, err := NewEngine(nil)
	if err != nil {
		t.Fatalf("NewEngine(nil): %v", err)
	}
	if e != nil {
		t.Error("nil schedule compiled to a live engine")
	}
	if e.Fires(LinkCorrupt, "link", 0) != nil {
		t.Error("nil engine fired")
	}
	if e.HasKind(LinkCorrupt) {
		t.Error("nil engine has kinds")
	}
	if evs := e.TimedEvents(MCUCrash, "mcu", time.Second); evs != nil {
		t.Errorf("nil engine timed events: %v", evs)
	}
}

func TestEveryNthTrigger(t *testing.T) {
	e, err := NewEngine(&Schedule{Rules: []Rule{
		{Kind: LinkCorrupt, Target: "link", Trigger: Trigger{EveryNth: 3}},
	}})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	var fired []int
	for i := 1; i <= 9; i++ {
		if e.Fires(LinkCorrupt, "link", 0) != nil {
			fired = append(fired, i)
		}
	}
	want := []int{3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired on probes %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on probes %v, want %v", fired, want)
		}
	}
}

func TestTargetsAreIndependent(t *testing.T) {
	e, err := NewEngine(&Schedule{Rules: []Rule{
		{Kind: SensorStuck, Trigger: Trigger{EveryNth: 2}}, // empty target: all sensors
	}})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Each target keeps its own counter: the second probe of each fires.
	for _, target := range []string{"S4", "S7"} {
		if e.Fires(SensorStuck, target, 0) != nil {
			t.Errorf("%s fired on first probe", target)
		}
		if e.Fires(SensorStuck, target, 0) == nil {
			t.Errorf("%s did not fire on second probe", target)
		}
	}
	// A non-matching kind never fires.
	if e.Fires(LinkLoss, "link", 0) != nil {
		t.Error("unrelated kind fired")
	}
}

func TestAtTriggerFiresOncePerInstant(t *testing.T) {
	e, err := NewEngine(&Schedule{Rules: []Rule{
		{Kind: SensorSlow, Target: "S4", Factor: 3,
			Trigger: Trigger{At: []time.Duration{10 * time.Millisecond, 30 * time.Millisecond}}},
	}})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	times := []time.Duration{5, 10, 12, 30, 40} // ms; probes in time order
	var fired []time.Duration
	for _, ms := range times {
		now := sim.Time(ms * time.Millisecond)
		if r := e.Fires(SensorSlow, "S4", now); r != nil {
			fired = append(fired, ms)
			if r.Factor != 3 {
				t.Errorf("fired rule factor = %v, want 3", r.Factor)
			}
		}
	}
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 30 {
		t.Errorf("fired at %v ms, want [10 30]", fired)
	}
}

func TestPeriodTriggerProbeBased(t *testing.T) {
	e, err := NewEngine(&Schedule{Rules: []Rule{
		{Kind: LinkLoss, Target: "link", Trigger: Trigger{Period: 100 * time.Millisecond}},
	}})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	fires := func(ms int) bool {
		return e.Fires(LinkLoss, "link", sim.Time(time.Duration(ms)*time.Millisecond)) != nil
	}
	if fires(50) {
		t.Error("fired before first boundary")
	}
	if !fires(110) {
		t.Error("did not fire after first boundary")
	}
	if fires(150) {
		t.Error("re-fired inside the same period")
	}
	// A probe gap spanning several boundaries fires once, then re-arms.
	if !fires(450) {
		t.Error("did not fire after skipping boundaries")
	}
	if fires(460) {
		t.Error("re-fired after skip")
	}
	if !fires(510) {
		t.Error("did not fire at the next boundary after a skip")
	}
}

func TestProbTriggerDeterministicPerSeed(t *testing.T) {
	pattern := func(seed int64) []bool {
		e, err := NewEngine(&Schedule{Seed: seed, Rules: []Rule{
			{Kind: LinkCorrupt, Target: "link", Trigger: Trigger{Prob: 0.3}},
		}})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = e.Fires(LinkCorrupt, "link", 0) != nil
		}
		return out
	}
	a, b, c := pattern(1), pattern(1), pattern(2)
	hits := 0
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
		if a[i] {
			hits++
		}
	}
	if !same {
		t.Error("same seed produced different fault patterns")
	}
	if !diff {
		t.Error("different seeds produced identical fault patterns")
	}
	if hits < 30 || hits > 90 {
		t.Errorf("prob=0.3 fired %d/200 probes, want roughly 60", hits)
	}
}

func TestTimedEventsExpansion(t *testing.T) {
	e, err := NewEngine(&Schedule{Rules: []Rule{
		{Kind: MCUCrash, Target: "mcu", Duration: 100 * time.Millisecond,
			Trigger: Trigger{At: []time.Duration{250 * time.Millisecond}}},
		{Kind: MCUCrash, Target: "mcu", Duration: 50 * time.Millisecond,
			Trigger: Trigger{Period: 400 * time.Millisecond}},
	}})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	evs := e.TimedEvents(MCUCrash, "mcu", time.Second)
	want := []time.Duration{250 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.At != sim.Time(want[i]) {
			t.Errorf("event %d at %v, want %v", i, ev.At, want[i])
		}
	}
	if evs[0].Rule.Duration != 100*time.Millisecond {
		t.Errorf("event 0 duration %v, want 100ms", evs[0].Rule.Duration)
	}
	// Horizon bounds expansion: nothing beyond it leaks out.
	if got := e.TimedEvents(MCUCrash, "mcu", 200*time.Millisecond); len(got) != 0 {
		t.Errorf("horizon 200ms produced %v", got)
	}
	if got := e.TimedEvents(RadioOutage, "radio:mcu", time.Second); len(got) != 0 {
		t.Errorf("non-matching kind produced %v", got)
	}
}

func TestValidateRejectsBadRules(t *testing.T) {
	bad := []Schedule{
		{Rules: []Rule{{Kind: Kind(99), Trigger: Trigger{EveryNth: 1}}}},
		{Rules: []Rule{{Kind: 0, Trigger: Trigger{EveryNth: 1}}}},
		{Rules: []Rule{{Kind: lastKind + 1, Trigger: Trigger{EveryNth: 1}}}},
		{Rules: []Rule{{Kind: LinkCorrupt}}}, // no trigger
		{Rules: []Rule{{Kind: LinkCorrupt, Trigger: Trigger{Prob: 1.5}}}},
		{Rules: []Rule{{Kind: MCUCrash, Trigger: Trigger{At: []time.Duration{-1}}}}},
		{Rules: []Rule{{Kind: MCUCrash, Trigger: Trigger{At: []time.Duration{time.Second, time.Millisecond}}}}},
		{Rules: []Rule{{Kind: RadioOutage, Trigger: Trigger{EveryNth: 1}}}}, // no for=
	}
	for i, s := range bad {
		s := s
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d accepted: %+v", i, s.Rules)
		}
		if _, err := NewEngine(&s); err == nil {
			t.Errorf("engine %d compiled: %+v", i, s.Rules)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("seed=7; link-corrupt:every=50; sensor-slow:on=S4,every=100,factor=3; mcu-crash:at=1500ms,for=200ms; radio-outage:at=500ms,for=300ms; sensor-fail:every=10; sensor-fail:on=S9,prob=0.25")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if s.Seed != 7 {
		t.Errorf("seed = %d, want 7", s.Seed)
	}
	if len(s.Rules) != 6 {
		t.Fatalf("got %d rules, want 6", len(s.Rules))
	}
	r := s.Rules[0]
	if r.Kind != LinkCorrupt || r.Target != "link" || r.Trigger.EveryNth != 50 {
		t.Errorf("rule 0 = %+v", r)
	}
	r = s.Rules[1]
	if r.Kind != SensorSlow || r.Target != "S4" || r.Trigger.EveryNth != 100 || r.Factor != 3 {
		t.Errorf("rule 1 = %+v", r)
	}
	r = s.Rules[2]
	if r.Kind != MCUCrash || r.Target != "mcu" || r.Duration != 200*time.Millisecond ||
		len(r.Trigger.At) != 1 || r.Trigger.At[0] != 1500*time.Millisecond {
		t.Errorf("rule 2 = %+v", r)
	}
	r = s.Rules[3]
	if r.Kind != RadioOutage || r.Target != "radio:mcu" || r.Duration != 300*time.Millisecond {
		t.Errorf("rule 3 = %+v", r)
	}
	// A failed-read rule hits every sensor unless on= narrows it.
	r = s.Rules[4]
	if r.Kind != SensorFail || r.Target != "" || r.Trigger.EveryNth != 10 {
		t.Errorf("rule 4 = %+v", r)
	}
	r = s.Rules[5]
	if r.Kind != SensorFail || r.Target != "S9" || r.Trigger.Prob != 0.25 {
		t.Errorf("rule 5 = %+v", r)
	}
	for _, r := range s.Rules {
		if k, err := parseKind(r.Kind.String()); err != nil || k != r.Kind {
			t.Errorf("parseKind(%q) = %v, %v, want %v", r.Kind.String(), k, err, r.Kind)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"seed=x",
		"warp-core:every=2",
		"link-corrupt:every=0",
		"link-corrupt:prob=2",
		"link-corrupt",         // no trigger
		"mcu-crash:at=-5ms",    // negative instant
		"radio-outage:every=3", // missing for=
		"sensor-slow:factor=0,every=1",
		"sensor-fail",             // no trigger
		"sensor-fail:every=0",     // count below 1
		"sensor-fail:on=,every=1", // empty target
		"link-loss:bogus=1",
		"link-loss:every",
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", spec)
		}
	}
}

// A bad rule deep inside a long schedule is reported with its 1-based index
// and raw text, so the offending item is findable without bisecting the spec.
func TestParseScheduleErrorNamesRule(t *testing.T) {
	_, err := ParseSchedule("seed=7; link-corrupt:every=50; link-loss:prob=0.1; radio-outage:every=3")
	if err == nil {
		t.Fatal("bad schedule accepted")
	}
	msg := err.Error()
	for _, want := range []string{`rule 3`, `"radio-outage:every=3"`, "for=<duration>"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %s", msg, want)
		}
	}
	// The seed item is not a rule and must not shift rule numbering.
	if strings.Contains(msg, "rule 4") {
		t.Errorf("error %q counts the seed item as a rule", msg)
	}
}
