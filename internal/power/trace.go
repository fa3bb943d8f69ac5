package power

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind names one harvest rule shape.
type Kind int

const (
	// Const contributes a constant wattage from a start instant on.
	Const Kind = iota
	// Solar contributes a repeating clipped-sine day/night cycle,
	// discretized into piecewise-constant slots so the compiled trace is
	// a finite list of DES events.
	Solar
	// RF contributes a pulsed source: Watts during a burst at the top of
	// every period, zero otherwise.
	RF
)

// Rule is one parsed harvest contribution. A trace's income at time t is the
// sum over its rules — profiles compose additively, like light plus an RF
// charger in the same room.
type Rule struct {
	Kind Kind
	// At delays a Const rule's onset (Solar/RF use Phase instead).
	At time.Duration
	// Watts is the contribution's level: the constant level (Const), the
	// peak of the clipped sine (Solar), or the burst level (RF).
	Watts float64
	// Period is the repeat interval (Solar day length, RF pulse interval).
	Period time.Duration
	// Phase shifts the repeating pattern earlier in time.
	Phase time.Duration
	// Burst is the RF pulse width.
	Burst time.Duration
	// Slots is the Solar discretization (slots per period, default 8).
	Slots int
}

// Step is one compiled trace event: total harvest power becomes Watts at At.
type Step struct {
	At    time.Duration
	Watts float64
}

// Trace is a parsed harvest schedule. The zero value harvests nothing.
type Trace struct {
	Rules []Rule
}

// ParseTrace builds a Trace from the compact text form: a semicolon-separated
// list of rules
//
//	<kind>:param=value[,param=value...]
//
// with kinds const, solar, rf, and parameters
//
//	w=F           contribution level in watts (const/rf; solar uses peak=)
//	peak=F        solar peak watts at high noon
//	at=DUR        const onset delay (Go duration syntax)
//	period=DUR    repeat interval (solar day length, rf pulse interval)
//	phase=DUR     shift the repeating pattern earlier in time
//	burst=DUR     rf pulse width (must be <= period)
//	slots=N       solar slots per period (piecewise-constant resolution)
//
// Examples:
//
//	solar:peak=1.2,period=2s
//	const:w=0.2; rf:w=0.6,period=400ms,burst=120ms
//
// A malformed rule is reported with its 1-based index and raw text, so one
// bad rule in a long trace is easy to locate — the same contract as
// faults.ParseSchedule.
func ParseTrace(spec string) (*Trace, error) {
	t := &Trace{}
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		rule, err := parseRule(item)
		if err != nil {
			return nil, fmt.Errorf("power: rule %d %q: %w", len(t.Rules)+1, item, err)
		}
		t.Rules = append(t.Rules, rule)
	}
	return t, nil
}

func parseKind(name string) (Kind, error) {
	switch name {
	case "const":
		return Const, nil
	case "solar":
		return Solar, nil
	case "rf":
		return RF, nil
	default:
		return 0, fmt.Errorf("unknown kind %q", name)
	}
}

func parseRule(item string) (Rule, error) {
	name, params, _ := strings.Cut(item, ":")
	kind, err := parseKind(strings.TrimSpace(name))
	if err != nil {
		return Rule{}, err
	}
	rule := Rule{Kind: kind}
	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return Rule{}, fmt.Errorf("parameter %q is not key=value", kv)
			}
			if err := applyParam(&rule, strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
				return Rule{}, err
			}
		}
	}
	if err := rule.validate(); err != nil {
		return Rule{}, err
	}
	return rule, nil
}

func applyParam(rule *Rule, key, val string) error {
	switch key {
	case "w", "peak":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return fmt.Errorf("%s=%q, want watts >= 0", key, val)
		}
		rule.Watts = f
	case "at":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return fmt.Errorf("at=%q, want non-negative duration", val)
		}
		rule.At = d
	case "period":
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("period=%q, want positive duration", val)
		}
		rule.Period = d
	case "phase":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return fmt.Errorf("phase=%q, want non-negative duration", val)
		}
		rule.Phase = d
	case "burst":
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("burst=%q, want positive duration", val)
		}
		rule.Burst = d
	case "slots":
		n, err := strconv.Atoi(val)
		if err != nil || n < 2 || n > 1024 {
			return fmt.Errorf("slots=%q, want integer in [2, 1024]", val)
		}
		rule.Slots = n
	default:
		return fmt.Errorf("unknown parameter %q", key)
	}
	return nil
}

// minGranularity bounds how fine a repeating pattern may be: it caps the
// compiled step count (a trace is scheduled as real DES events) at ~2k
// level changes per rule per virtual second.
const minGranularity = 500 * time.Microsecond

func (r Rule) validate() error {
	switch r.Kind {
	case Const:
		if r.Period != 0 || r.Phase != 0 || r.Burst != 0 || r.Slots != 0 {
			return fmt.Errorf("const takes only w= and at=")
		}
	case Solar:
		if r.Period <= 0 {
			return fmt.Errorf("solar needs period=")
		}
		if r.At != 0 || r.Burst != 0 {
			return fmt.Errorf("solar takes peak=, period=, phase=, slots=")
		}
		if slot := r.Period / time.Duration(r.slots()); slot < minGranularity {
			return fmt.Errorf("period %v / %d slots finer than %v", r.Period, r.slots(), minGranularity)
		}
	case RF:
		if r.Period <= 0 || r.Burst <= 0 {
			return fmt.Errorf("rf needs period= and burst=")
		}
		if r.Burst > r.Period {
			return fmt.Errorf("burst %v exceeds period %v", r.Burst, r.Period)
		}
		if r.At != 0 || r.Slots != 0 {
			return fmt.Errorf("rf takes w=, period=, burst=, phase=")
		}
		if r.Period < minGranularity || r.Burst < minGranularity {
			return fmt.Errorf("period/burst finer than %v", minGranularity)
		}
	}
	return nil
}

// slots resolves the Solar discretization default.
func (r Rule) slots() int {
	if r.Slots > 0 {
		return r.Slots
	}
	return 8
}

// wattsAt evaluates one rule's contribution at instant t (piecewise-constant
// everywhere, by construction).
func (r Rule) wattsAt(t time.Duration) float64 {
	switch r.Kind {
	case Const:
		if t >= r.At {
			return r.Watts
		}
		return 0
	case Solar:
		slot := r.Period / time.Duration(r.slots())
		if slot <= 0 {
			return 0
		}
		pos := (t + r.Phase) % r.Period
		// Evaluate the clipped sine at the slot midpoint, so the
		// piecewise-constant trace brackets the continuous curve.
		mid := (float64(pos/slot) + 0.5) / float64(r.slots())
		if v := r.Watts * math.Sin(2*math.Pi*mid); v > 0 {
			return v
		}
		return 0
	case RF:
		if (t+r.Phase)%r.Period < r.Burst {
			return r.Watts
		}
		return 0
	}
	return 0
}

// boundaries appends every instant in (0, horizon] where the rule's
// contribution may change level.
func (r Rule) boundaries(dst []time.Duration, horizon time.Duration) []time.Duration {
	switch r.Kind {
	case Const:
		if r.At > 0 && r.At <= horizon {
			dst = append(dst, r.At)
		}
	case Solar:
		slot := r.Period / time.Duration(r.slots())
		if slot <= 0 {
			return dst
		}
		for t := -(r.Phase % slot); t <= horizon; t += slot {
			if t > 0 {
				dst = append(dst, t)
			}
		}
	case RF:
		for start := -(r.Phase % r.Period); start <= horizon; start += r.Period {
			if start > 0 {
				dst = append(dst, start)
			}
			if end := start + r.Burst; end > 0 && end <= horizon {
				dst = append(dst, end)
			}
		}
	}
	return dst
}

// AppendSteps compiles the trace into the level changes within [0, horizon],
// appended to dst (reuse the slice across runs to stay allocation-steady).
// The first step is always At 0 with the trace's initial level; consecutive
// equal levels are coalesced. Beyond the horizon the last level persists —
// the hub's ledger relies on that to model recharge during a brownout that
// outlives the nominal run.
func (t *Trace) AppendSteps(dst []Step, horizon time.Duration) []Step {
	if t == nil || len(t.Rules) == 0 {
		return append(dst, Step{At: 0, Watts: 0})
	}
	var bounds []time.Duration
	bounds = append(bounds, 0)
	for _, r := range t.Rules {
		bounds = r.boundaries(bounds, horizon)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	last := math.NaN()
	for i, at := range bounds {
		if i > 0 && at == bounds[i-1] {
			continue
		}
		var w float64
		for _, r := range t.Rules {
			w += r.wattsAt(at)
		}
		if w == last {
			continue
		}
		dst = append(dst, Step{At: at, Watts: w})
		last = w
	}
	return dst
}
