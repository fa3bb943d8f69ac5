package power

import (
	"fmt"
	"time"
)

// DefaultLedgerHz is the ledger settle rate when a Supply does not pick its
// own: 200 Hz of virtual time (a 5 ms step), fine enough that a window's
// worth of demand cannot hide a zero crossing for long, coarse enough that
// the ledger stays a rounding error in the event count.
const DefaultLedgerHz = 200

// Supply couples a Battery with a harvest trace and a ledger rate: the
// complete power configuration of one hub run. The zero value (and a nil
// pointer wherever Supply appears as an override) means mains power — the
// byte-identical asymptote the golden corpus pins.
//
// Supply is comparable, which the fleet grid's zero-value identity check
// relies on.
type Supply struct {
	// Battery is the energy store; its zero value disarms the whole Supply.
	Battery Battery `json:"battery"`
	// Harvest is the income trace in ParseTrace text form ("" = none).
	Harvest string `json:"harvest,omitempty"`
	// LedgerHz is the settle rate of the supply/demand ledger in Hz of
	// virtual time (0 = DefaultLedgerHz). SoC thresholds and the brownout
	// zero crossing are detected at this resolution.
	LedgerHz float64 `json:"ledgerHz,omitempty"`
}

// Armed reports whether the supply participates in a run.
func (s *Supply) Armed() bool { return s != nil && s.Battery.Armed() }

// LedgerPeriod is the interval between ledger settles.
func (s *Supply) LedgerPeriod() time.Duration {
	hz := s.LedgerHz
	if hz <= 0 {
		hz = DefaultLedgerHz
	}
	return time.Duration(float64(time.Second) / hz)
}

// Validate checks the whole supply, including that the harvest trace parses.
func (s *Supply) Validate() error {
	if s == nil {
		return nil
	}
	if err := s.Battery.Validate(); err != nil {
		return err
	}
	if s.LedgerHz < 0 {
		return fmt.Errorf("power: ledger rate %v Hz, want >= 0", s.LedgerHz)
	}
	if !s.Battery.Armed() && (s.Harvest != "" || s.LedgerHz != 0) {
		return fmt.Errorf("power: harvest/ledger configured without a battery")
	}
	if s.Harvest != "" {
		if _, err := ParseTrace(s.Harvest); err != nil {
			return err
		}
	}
	return nil
}

// PresetNames lists the harvest presets Preset accepts, in the order the
// CLI documents them.
func PresetNames() []string { return []string{"solar", "rf", "office"} }

// Preset returns a named harvest trace in ParseTrace text form:
//
//	solar   a 2 s "day" of clipped-sine panel income peaking at 1.6 W
//	rf      a 0.6 W RF charger burst 120 ms out of every 400 ms
//	office  dim constant indoor light plus a phase-shifted solar window
//
// Unknown names are an error listing the valid presets, mirroring
// obs.Preset for meters.
func Preset(name string) (string, error) {
	switch name {
	case "solar":
		return "solar:peak=1.6,period=2s", nil
	case "rf":
		return "rf:w=0.6,period=400ms,burst=120ms", nil
	case "office":
		return "const:w=0.12; solar:peak=0.9,period=4s,phase=1s", nil
	default:
		return "", fmt.Errorf("power: unknown harvest preset %q (want solar, rf, or office)", name)
	}
}
