// Package scheme makes the paper's execution schemes first-class values: a
// scheme is a row of per-app modes (which processor computes, how samples
// cross the link, when the CPU is interrupted) plus a stream topology
// (whether concurrent apps share physical sensor streams).
//
// The paper (Table II, §III–§IV) defines every scheme as a distinct
// composition of the same four routines — Data Collection, Interrupt, Data
// Transfer, and App-specific Computation. This package keeps that shape as
// two tables:
//
//   - the policy table: each Mode's Policy is one verdict per routine
//     (Sample, Transfer, Place, Gate); the hub runner is a scheme-agnostic
//     event conductor that executes whatever verdicts the app's mode holds;
//   - the scheme table: each Scheme's Def names the mode its light and heavy
//     apps run (or takes an explicit partition) and its stream topology, so
//     a new composition is one row here, not surgery on the runner.
//
// All Scheme/Mode-dependent control flow lives in this package — enforced by
// `make lint-scheme`.
package scheme

import (
	"errors"
	"fmt"
	"strings"
)

// Scheme selects the execution scheme for a run.
type Scheme int

// Execution schemes. Baseline..BEAM are the paper's five (§III, §IV);
// Hybrid and ECOM extend the table with the edge tier: Hybrid executes an
// arbitrary per-app mode partition (the optimizer's emission vehicle), ECOM
// is the composition the scheme-space search converges on — heavy apps
// upload to the edge, everything else offloads to the MCU.
const (
	Baseline Scheme = iota + 1
	Batching
	COM
	BCOM
	BEAM
	Hybrid
	ECOM
)

// Errors callers match with errors.Is. The messages keep their historical
// hub-level text: this package took over config authority from internal/hub,
// and every CLI message and test built on the old wording must stay stable.
var (
	ErrConfig        = errors.New("hub: invalid config")
	ErrUnoffloadable = errors.New("hub: app cannot be offloaded")
)

// String names the scheme as the paper's figures do.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case Batching:
		return "Batching"
	case COM:
		return "COM"
	case BCOM:
		return "BCOM"
	case BEAM:
		return "BEAM"
	case Hybrid:
		return "Hybrid"
	case ECOM:
		return "ECOM"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Parse resolves a case-insensitive scheme name ("baseline", "batching",
// "com", "bcom", "beam", "hybrid", "ecom") against the scheme table — the
// CLI-facing inverse of String. Only schemes with a row parse.
func Parse(name string) (Scheme, error) {
	want := strings.TrimSpace(name)
	for _, d := range defs {
		if strings.EqualFold(d.scheme.String(), want) {
			return d.scheme, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown scheme %q", ErrConfig, name)
}

// MarshalText encodes the scheme by name so configs and results serialize
// to JSON as "Batching" rather than a bare integer.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText is the inverse of MarshalText (it accepts any case,
// delegating to Parse).
func (s *Scheme) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// Mode is the per-app execution decision inside a scheme — the row of the
// policy table one app actually runs (Mode.Policy); schemes are compositions
// of modes across apps.
type Mode int

// Per-app modes.
const (
	// PerSample interrupts the CPU for every sensor sample (Baseline/BEAM).
	PerSample Mode = iota + 1
	// Batched buffers a window at the MCU and transfers in bulk.
	Batched
	// Offloaded runs the app-specific computation on the MCU.
	Offloaded
	// Uploaded buffers a window at the MCU like Batched, then uploads it
	// through the main radio and computes in the app's edge container.
	Uploaded
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case PerSample:
		return "PerSample"
	case Batched:
		return "Batched"
	case Offloaded:
		return "Offloaded"
	case Uploaded:
		return "Uploaded"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MarshalText encodes the mode by name (see Scheme.MarshalText).
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText is the inverse of MarshalText.
func (m *Mode) UnmarshalText(text []byte) error {
	for known := PerSample; known.valid(); known++ {
		if known.String() == string(text) {
			*m = known
			return nil
		}
	}
	return fmt.Errorf("%w: unknown mode %q", ErrConfig, text)
}
