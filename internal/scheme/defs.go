package scheme

import (
	"fmt"
	"strings"
	"time"

	"iothub/internal/apps"
)

// ConfigView is the slice of a hub configuration a scheme definition is
// allowed to see: the app specs, the optional per-app mode partition, and
// the QoS window. It deliberately excludes live app instances, hardware
// handles, and the scheduler — scheme logic decides, the conductor executes.
type ConfigView struct {
	// Specs lists the concurrent apps' specifications in config order.
	Specs []apps.Spec
	// Assign is the explicit per-app mode partition; nil for every scheme
	// whose row names its own modes (BCOM and Hybrid require it).
	Assign map[apps.ID]Mode
	// Window is the common QoS window.
	Window time.Duration
}

// Def is one scheme's row of the scheme table: the mode it gives light and
// heavy-weight apps, and its stream topology. Together with the policy table
// (Mode.Policy) these rows are the only places scheme semantics live; the
// hub runner contains no scheme-dependent branches.
type Def struct {
	// scheme is the row's identity.
	scheme Scheme
	// light is the mode every light app runs. Zero means the scheme takes an
	// explicit per-app partition instead (RequiresAssign).
	light Mode
	// heavy is the mode every heavy-weight app runs. Zero refuses heavy apps
	// as ErrUnoffloadable.
	heavy Mode
	// shared groups each sensor's users into one stream; otherwise every
	// (app, sensor) pair is its own stream (planStreams).
	shared bool
	// assignedBy names where a partitioned scheme's Assign comes from; the
	// refusal of a missing Assign quotes it.
	assignedBy string
	// planned marks the one partitioned row whose missing Assign callers
	// fill from the internal/core planner (Planned).
	planned bool
}

// defs is the scheme table in Scheme order: the paper's five rows (§III,
// §IV), then the edge tier's two.
var defs = [...]Def{
	// Every sample interrupts the CPU and crosses the link on its own; the
	// CPU stalls between samples (gaps sit below the sleep break-even).
	{scheme: Baseline, light: PerSample, heavy: PerSample},
	// The MCU buffers each app's window and raises one interrupt per bulk
	// flush (RAM pressure forces early ones); the CPU suspends meanwhile.
	{scheme: Batching, light: Batched, heavy: Batched},
	// Every app runs on the MCU and only its result crosses the link; the
	// CPU power-gates. A heavy-weight app cannot take this row at all.
	{scheme: COM, light: Offloaded},
	// COM for the apps the internal/core planner admits to the MCU within
	// its time and RAM budgets, Batching for the rest (§IV-E3).
	{scheme: BCOM, assignedBy: "see internal/core planner", planned: true},
	// The prior work: Baseline's per-sample policy, but apps that use the
	// same sensor share one read, interrupt and transfer per sample, slower
	// consumers taking strided samples.
	{scheme: BEAM, light: PerSample, heavy: PerSample, shared: true},
	// Any per-app composition of the policy rows, as searched by the
	// internal/optimizer plan emitter.
	{scheme: Hybrid, assignedBy: "the internal/optimizer plan emitter produces it"},
	// Heavy apps upload their windows to the edge tier, the rest offload to
	// the MCU as under COM: the composition the optimizer's search converges
	// on for mixes that pair the two (TestECOMMatchesSearchedHybrid pins it
	// against the searched Hybrid plan).
	{scheme: ECOM, light: Offloaded, heavy: Uploaded},
}

// Lookup returns the scheme's row of the table.
func Lookup(s Scheme) (Def, error) {
	for _, d := range defs {
		if d.scheme == s {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("%w: unknown scheme %v", ErrConfig, s)
}

// All returns every scheme in table order.
func All() []Scheme {
	out := make([]Scheme, len(defs))
	for i, d := range defs {
		out[i] = d.scheme
	}
	return out
}

// Names returns the schemes' lower-case CLI names in table order — the
// single source for every flag help string and spec format doc.
func Names() []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = strings.ToLower(d.scheme.String())
	}
	return out
}

// RequiresAssign reports whether the scheme needs an explicit per-app
// partition: it names no light mode of its own. Callers above the hub —
// fleet workers, CLIs — consult this instead of naming schemes.
func (d Def) RequiresAssign() bool { return d.light == 0 }

// Planned reports whether callers fill a missing Assign from the
// internal/core planner (BCOM). Any other partitioned scheme without an
// Assign is refused by Modes, so a Hybrid never runs BCOM's split under its
// own label.
func (d Def) Planned() bool { return d.planned }

// Modes checks the scheme-specific config rules (Assign shape, app count)
// and resolves each app's mode: the row's light or heavy mode, or the app's
// entry in the explicit partition. General rules (non-empty apps, window
// agreement) are the hub's.
func (d Def) Modes(v ConfigView) (map[apps.ID]Mode, error) {
	if v.Assign != nil && !d.RequiresAssign() {
		return nil, fmt.Errorf("%w: Assign is only valid with a partitioned scheme (BCOM, Hybrid)", ErrConfig)
	}
	if v.Assign == nil && d.RequiresAssign() {
		return nil, fmt.Errorf("%w: %v requires Assign (%s)", ErrConfig, d.scheme, d.assignedBy)
	}
	if d.shared && len(v.Specs) < 2 {
		return nil, fmt.Errorf("%w: %v needs at least two apps", ErrConfig, d.scheme)
	}
	out := make(map[apps.ID]Mode, len(v.Specs))
	for _, sp := range v.Specs {
		m := d.light
		if sp.Heavy {
			m = d.heavy
		}
		if d.RequiresAssign() {
			var ok bool
			if m, ok = v.Assign[sp.ID]; !ok {
				return nil, fmt.Errorf("%w: no assignment for %s", ErrConfig, sp.ID)
			}
			if !m.valid() {
				return nil, fmt.Errorf("%w: %s assigned unknown mode %v", ErrConfig, sp.ID, m)
			}
		}
		// A heavy-weight app never fits the MCU.
		if m == 0 || sp.Heavy && m == Offloaded {
			return nil, fmt.Errorf("%w: %s is heavy-weight", ErrUnoffloadable, sp.ID)
		}
		out[sp.ID] = m
	}
	return out, nil
}

// PlanStreams lays out the physical sampling schedules: which sensor streams
// exist, at what rates, feeding which apps at which strides.
func (d Def) PlanStreams(v ConfigView) ([]StreamSpec, error) {
	return planStreams(v, d.shared)
}
