package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSchedule builds a Schedule from the CLI's compact text form: a
// semicolon-separated list of items, each either "seed=N" or a rule
//
//	<kind>[:param=value[,param=value...]]
//
// with kinds link-corrupt, link-loss, mcu-crash, sensor-stuck, sensor-slow,
// sensor-fail, radio-outage, and parameters
//
//	every=N       count trigger: fire every Nth probe
//	period=DUR    interval trigger: fire each DUR (Go duration syntax)
//	at=DUR        time trigger: fire once at DUR (repeatable)
//	prob=F        probability trigger in [0,1], drawn from the seed
//	for=DUR       fault length (mcu-crash reboot, radio-outage span)
//	factor=F      sensor-slow read-time multiplier
//	on=TARGET     target override ("link", "mcu", "radio:main", "S4", ...)
//
// Examples:
//
//	seed=7; link-corrupt:every=50
//	sensor-slow:on=S4,every=100,factor=3
//	sensor-fail:every=10
//	mcu-crash:at=1500ms,for=200ms; radio-outage:at=500ms,for=300ms
//
// Kinds imply default targets: link faults hit "link", mcu-crash hits "mcu",
// radio-outage hits "radio:mcu" (the COM notification uplink), and sensor
// faults hit every sensor unless narrowed with on=.
// A malformed item is reported with its 1-based rule index and raw text, so
// one bad rule in a long schedule is easy to locate.
func ParseSchedule(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(item, "seed="); ok {
			seed, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", rest)
			}
			s.Seed = seed
			continue
		}
		rule, err := parseRule(item)
		if err != nil {
			return nil, fmt.Errorf("faults: rule %d %q: %w", len(s.Rules)+1, item, err)
		}
		s.Rules = append(s.Rules, rule)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseKind(name string) (Kind, error) {
	switch name {
	case "link-corrupt":
		return LinkCorrupt, nil
	case "link-loss":
		return LinkLoss, nil
	case "mcu-crash":
		return MCUCrash, nil
	case "sensor-stuck":
		return SensorStuck, nil
	case "sensor-slow":
		return SensorSlow, nil
	case "radio-outage":
		return RadioOutage, nil
	case "sensor-fail":
		return SensorFail, nil
	default:
		return 0, fmt.Errorf("unknown kind %q", name)
	}
}

// defaultTarget is the target a kind hits when on= is absent.
func defaultTarget(k Kind) string {
	switch k {
	case LinkCorrupt, LinkLoss:
		return "link"
	case MCUCrash:
		return "mcu"
	case RadioOutage:
		return "radio:mcu"
	default: // sensor kinds match every sensor
		return ""
	}
}

func parseRule(item string) (Rule, error) {
	name, params, _ := strings.Cut(item, ":")
	kind, err := parseKind(strings.TrimSpace(name))
	if err != nil {
		return Rule{}, err
	}
	rule := Rule{Kind: kind, Target: defaultTarget(kind)}
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
	if err := rule.Validate(); err != nil {
		return Rule{}, err
	}
	return rule, nil
}

func applyParam(rule *Rule, key, val string) error {
	switch key {
	case "every":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("every=%q, want integer >= 1", val)
		}
		rule.Trigger.EveryNth = n
	case "period":
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("period=%q, want positive duration", val)
		}
		rule.Trigger.Period = d
	case "at":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return fmt.Errorf("at=%q, want non-negative duration", val)
		}
		rule.Trigger.At = append(rule.Trigger.At, d)
	case "prob":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p <= 0 || p > 1 {
			return fmt.Errorf("prob=%q, want value in (0,1]", val)
		}
		rule.Trigger.Prob = p
	case "for":
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("for=%q, want positive duration", val)
		}
		rule.Duration = d
	case "factor":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f <= 0 {
			return fmt.Errorf("factor=%q, want positive number", val)
		}
		rule.Factor = f
	case "on":
		if val == "" {
			return fmt.Errorf("on= needs a target")
		}
		rule.Target = val
	default:
		return fmt.Errorf("unknown parameter %q", key)
	}
	return nil
}
