// Package fleet executes thousands of independent hub scenarios across a
// bounded worker pool and streams their energy metrics into constant-memory
// aggregates — the sweep engine behind the paper's parameter-space figures
// (savings vs sampling rate, scheme comparisons across app mixes).
//
// Three guarantees shape the design:
//
//  1. Determinism: every scenario's seed derives from the fleet seed and the
//     scenario's index (splitmix64), so any single scenario re-runs
//     standalone bit-for-bit; and every finished scenario lands through one
//     Fold, which applies records strictly in scenario-index order through
//     a reorder buffer, so the final numbers are byte-identical whether the
//     sweep ran on 1 worker or N, in process or as fleetd shards.
//  2. Constant memory: per-metric state is an online Welford accumulator
//     plus fixed-size P² quantile sketches, and a resume folds the journal
//     line by line without keeping its records — O(metrics), not
//     O(scenarios).
//  3. Resumability: the Fold writes a JSON-lines journal recording each
//     completed scenario's metrics in index order; an interrupted sweep
//     replays the journal and continues, landing on the same final
//     aggregates as an uninterrupted run. Run and the fleetd coordinator
//     both fold through Fold, so either resumes a journal the other wrote.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"iothub/internal/apps"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/power"
	"iothub/internal/scheme"
)

// Grid declares a cartesian sweep: every combination of app mix, scheme,
// window count, QoS multiplier, and fault schedule becomes one scenario.
// Empty QoS means the paper-default rate (x1); empty Faults means fault-free.
type Grid struct {
	// Apps lists the app mixes to sweep, each a set of Table II IDs run
	// concurrently on one hub.
	Apps [][]apps.ID `json:"apps"`
	// Schemes names the execution schemes, parsed against the scheme
	// table via hub.ParseScheme ("baseline", "batching", "com", "bcom",
	// "beam", "hybrid", "ecom").
	Schemes []string `json:"schemes"`
	// Windows lists QoS-window counts per run.
	Windows []int `json:"windows"`
	// QoS lists sampling-rate multipliers (defaults to [1]).
	QoS []float64 `json:"qos,omitempty"`
	// Faults lists fault schedules in faults.ParseSchedule text form
	// (defaults to [""], i.e. fault-free). The grid aggregates every
	// schedule under its scheme's tag, and every faulted label reads
	// "/chaos", so this axis cannot compare schedules with each other: for
	// that, list explicit Scenarios with a Tag per schedule.
	Faults []string `json:"faults,omitempty"`
	// Meters lists in-situ meter models to sweep (defaults to the free
	// external meter, i.e. unobserved runs).
	Meters []obs.MeterModel `json:"meters,omitempty"`
	// Power lists battery/harvest supplies to sweep (the innermost axis;
	// defaults to mains power, i.e. unconstrained runs).
	Power []power.Supply `json:"power,omitempty"`
	// SkipAppCompute applies to every grid scenario (pure-energy sweeps).
	SkipAppCompute bool `json:"skipCompute,omitempty"`
}

// Spec is the declarative input of a fleet sweep: a seed, an optional
// cartesian grid, and an optional explicit scenario list. Expand flattens it
// into the fleet's scenario sequence.
type Spec struct {
	// Seed is the fleet master seed; per-scenario seeds derive from it.
	Seed int64 `json:"seed"`
	// Workers is the default pool size (0 = GOMAXPROCS); the -workers flag
	// and Options.Workers override it.
	Workers int `json:"workers,omitempty"`
	// Grid, when present, contributes its full cartesian product.
	Grid *Grid `json:"grid,omitempty"`
	// Scenarios are appended after the grid. A scenario with Seed 0 gets a
	// derived seed like grid scenarios do; a nonzero Seed is kept verbatim.
	Scenarios []hub.Scenario `json:"scenarios,omitempty"`
}

// ParseSpec reads a JSON sweep spec.
func ParseSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("fleet: parse spec: %w", err)
	}
	return s, nil
}

// LoadSpec reads a JSON sweep spec from a file.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("fleet: %w", err)
	}
	defer f.Close()
	return ParseSpec(f)
}

// Expand flattens the spec into its scenario sequence in a fixed order —
// grid first (apps, then schemes, then windows, then QoS, then faults,
// innermost last), then the explicit list — assigning each scenario its
// derived seed. The order is part of the fleet's deterministic identity:
// index i always names the same scenario.
func (s Spec) Expand() ([]hub.Scenario, error) {
	var out []hub.Scenario
	if s.Grid != nil {
		g := *s.Grid
		if len(g.Apps) == 0 || len(g.Schemes) == 0 || len(g.Windows) == 0 {
			return nil, fmt.Errorf("fleet: grid needs apps, schemes, and windows")
		}
		qos := g.QoS
		if len(qos) == 0 {
			qos = []float64{1}
		}
		fault := g.Faults
		if len(fault) == 0 {
			fault = []string{""}
		}
		meters := g.Meters
		if len(meters) == 0 {
			meters = []obs.MeterModel{{}}
		}
		supplies := g.Power
		if len(supplies) == 0 {
			supplies = []power.Supply{{}}
		}
		for _, mix := range g.Apps {
			for _, name := range g.Schemes {
				scheme, err := hub.ParseScheme(name)
				if err != nil {
					return nil, fmt.Errorf("fleet: grid: %w", err)
				}
				for _, w := range g.Windows {
					if w < 1 {
						return nil, fmt.Errorf("fleet: grid: windows %d, want >= 1", w)
					}
					for _, q := range qos {
						for _, f := range fault {
							for mi := range meters {
								for pi := range supplies {
									sc := hub.Scenario{
										Apps: mix, Scheme: scheme, Windows: w,
										QoSMult: q, Faults: f,
										SkipAppCompute: g.SkipAppCompute,
									}
									// The zero model is the default external
									// meter: leave it nil so meter-free grids
									// expand (and serialize) exactly as before.
									if meters[mi] != (obs.MeterModel{}) {
										sc.Meter = &meters[mi]
									}
									// Same for the zero supply: nil means
									// mains power, so battery-free grids
									// expand exactly as before.
									if supplies[pi] != (power.Supply{}) {
										sc.Power = &supplies[pi]
									}
									out = append(out, sc)
								}
							}
						}
					}
				}
			}
		}
	}
	// An explicit scenario needs a scheme of the table, like a grid one: the
	// zero Scheme would marshal as "Scheme(0)", which no worker can parse.
	for i, sc := range s.Scenarios {
		if _, err := scheme.Lookup(sc.Scheme); err != nil {
			return nil, fmt.Errorf("fleet: scenario %d: %w", i, err)
		}
	}
	out = append(out, s.Scenarios...)
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: spec expands to no scenarios")
	}
	for i := range out {
		if out[i].Seed == 0 {
			out[i].Seed = ScenarioSeed(s.Seed, i)
		}
	}
	return out, nil
}

// ScenarioSeed derives scenario index i's seed from the fleet seed with one
// splitmix64 step over a seed/index mix. It is a pure function — a scenario
// lifted out of a fleet re-runs standalone with the identical seed.
func ScenarioSeed(fleetSeed int64, i int) int64 {
	x := uint64(fleetSeed)*0x9e3779b97f4a7c15 + uint64(i) + 1
	seed := int64(splitmix64(splitmix64(x)))
	if seed == 0 {
		seed = 1 // keep "seed 0" free to mean "derive one" in specs
	}
	return seed
}

// splitmix64 is the output-mixing half of the reference splitmix64 PRNG
// (same constants as internal/faults); one call is a full avalanche.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
