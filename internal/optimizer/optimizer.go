// Package optimizer searches the scheme-composition space for an app mix: it
// enumerates per-app mode assignments (local per-sample, batched, offloaded,
// edge-uploaded), evaluates every candidate — alongside the scheme table's
// fixed schemes — through the fleet engine with deterministic seeding, and
// emits the minimum-energy feasible plan plus the latency/energy Pareto front.
//
// Where internal/core's planner runs BCOM's fixed admission test (offload
// what fits the MCU, batch the rest), the optimizer treats composition as a
// search problem: any hybrid placement is a candidate, the fleet engine is
// the evaluator, and feasibility is judged on observed QoS, not a static
// budget. The winning composition can be executed two ways that are provably
// identical: as a Hybrid scenario carrying the plan's Assign, or — once a
// search result becomes a row of the scheme table, as ECOM did — by name.
//
// Determinism is end to end: candidate enumeration order is a pure function
// of the spec, every scenario's seed derives from the spec seed and its
// index (fleet.ScenarioSeed), and the emitted plan embeds a replay spec with
// those seeds pinned, so re-running the winner's scenarios through any fleet
// reproduces the recorded aggregates byte for byte.
package optimizer

import (
	"fmt"
	"sort"
	"strings"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/edge"
	"iothub/internal/fleet"
	"iothub/internal/hub"
	"iothub/internal/scheme"
)

// Spec declares one search: the app mix, the evaluation conditions, and the
// QoS constraints a feasible plan must hold.
type Spec struct {
	// Apps is the mix to optimize, by Table II ID.
	Apps []apps.ID `json:"apps"`
	// Windows is the number of QoS windows each evaluation simulates.
	Windows int `json:"windows"`
	// Seed is the search's master seed; every scenario seed derives from it.
	Seed int64 `json:"seed"`
	// QoSMult scales sampling rates (0 or 1 = paper defaults).
	QoSMult float64 `json:"qos,omitempty"`
	// Faults lists the fault schedules each candidate is evaluated under
	// (compact text form; empty = fault-free only). A candidate's metrics
	// aggregate across all its fault variants.
	Faults []string `json:"faults,omitempty"`
	// MaxQoSViolations is the feasibility ceiling on a run's QoS violation
	// count (a candidate is infeasible if any evaluation exceeds it).
	MaxQoSViolations float64 `json:"maxQosViolations"`
	// MaxMeanLatencySec, when > 0, additionally bounds the mean output
	// latency (seconds past window close) of every evaluation.
	MaxMeanLatencySec float64 `json:"maxMeanLatencySec,omitempty"`
	// Omega overrides the edge tier's latency/energy objective weight for
	// ranking ties (0 = keep the edge default).
	Omega float64 `json:"omega,omitempty"`
	// MaxCandidates, when > 0, caps enumeration by deterministic stride
	// sampling over the full composition space.
	MaxCandidates int `json:"maxCandidates,omitempty"`
	// Workers sizes the evaluation pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// SkipAppCompute evaluates energy/timing only (the usual setting).
	SkipAppCompute bool `json:"skipCompute,omitempty"`
}

// Evaluated is one scored design point — a fixed scheme or a searched
// composition — with its aggregated metrics across the spec's fault variants.
type Evaluated struct {
	// Tag is the point's aggregation label ("scheme:com" or "cand:...").
	Tag string `json:"tag"`
	// Scheme executes the point; searched compositions run as Hybrid.
	Scheme scheme.Scheme `json:"scheme"`
	// Assign is the per-app partition (nil for fixed schemes, which derive
	// their own).
	Assign map[apps.ID]scheme.Mode `json:"assign,omitempty"`
	// EnergyPerWindow is the mean attributed energy per window (joules).
	EnergyPerWindow float64 `json:"energyPerWindow"`
	// MeanLatencySec is the mean output latency (seconds past window close).
	MeanLatencySec float64 `json:"meanLatencySec"`
	// MaxQoSViolations is the worst evaluation's QoS violation count.
	MaxQoSViolations float64 `json:"maxQosViolations"`
	// Objective is the weighted latency/energy score used for tie-breaking.
	Objective float64 `json:"objective"`
	// Feasible: every evaluation ran and held the spec's QoS constraints.
	Feasible bool `json:"feasible"`
	// Error carries the first failure when an evaluation errored.
	Error string `json:"error,omitempty"`
}

// Plan is the search's emitted artifact.
type Plan struct {
	// Spec echoes the search input.
	Spec Spec `json:"spec"`
	// Winner is the minimum-energy feasible composition.
	Winner Evaluated `json:"winner"`
	// Builtins are the scheme table's fixed schemes' scores under the same
	// conditions (infeasible ones included, marked).
	Builtins []Evaluated `json:"builtins"`
	// Pareto is the latency/energy front over feasible compositions, sorted
	// by ascending energy (no point on it is dominated by another).
	Pareto []Evaluated `json:"pareto"`
	// BeatsBuiltins: the winner's energy is strictly below every feasible
	// paper scheme (Baseline, Batching, COM, BCOM, BEAM).
	BeatsBuiltins bool `json:"beatsBuiltins"`
	// Candidates counts enumerated compositions (after any MaxCandidates
	// sampling); Skipped counts compositions sampling dropped.
	Candidates int `json:"candidates"`
	Skipped    int `json:"skipped,omitempty"`
	// Replay re-runs the winner's evaluation scenarios standalone: seeds are
	// pinned to the values the search derived, so any fleet reproduces
	// ReplayAggregates byte for byte.
	Replay fleet.Spec `json:"replay"`
	// ReplayAggregates is the canonical fleet aggregate JSON of the replay.
	ReplayAggregates string `json:"replayAggregates"`
}

// paperSchemes are the five hand-coded schemes the winner must beat for
// BeatsBuiltins (ECOM is excluded: it IS a promoted search result).
var paperSchemes = map[scheme.Scheme]bool{
	scheme.Baseline: true, scheme.Batching: true, scheme.COM: true,
	scheme.BCOM: true, scheme.BEAM: true,
}

// modeChoices are the per-app assignment alternatives, in enumeration order.
var modeChoices = []scheme.Mode{scheme.PerSample, scheme.Batched, scheme.Offloaded, scheme.Uploaded}

// candidate is one enumerated composition.
type candidate struct {
	assign map[apps.ID]scheme.Mode
	tag    string
}

// validate checks the spec.
func (s Spec) validate() error {
	if len(s.Apps) == 0 {
		return fmt.Errorf("optimizer: spec lists no apps")
	}
	if s.Windows < 1 {
		return fmt.Errorf("optimizer: windows %d, want >= 1", s.Windows)
	}
	if s.MaxQoSViolations < 0 {
		return fmt.Errorf("optimizer: negative MaxQoSViolations")
	}
	if s.Omega < 0 || s.Omega > 1 {
		return fmt.Errorf("optimizer: omega %v outside [0,1]", s.Omega)
	}
	return nil
}

// enumerate lists the composition space in deterministic order: the mode
// tuple is a base-|modes| counter over the app list (first app cycles
// fastest), heavy apps skip Offloaded (the MCU cannot hold them — the same
// reject Hybrid's validator would issue). When cap > 0 bounds the space,
// enumeration stride-samples: every ceil(n/cap)-th tuple, always including
// the first.
func enumerate(mix []apps.ID, heavy map[apps.ID]bool, cap int) (kept []candidate, skipped int) {
	choices := make([][]scheme.Mode, len(mix))
	total := 1
	for i, id := range mix {
		for _, m := range modeChoices {
			if m == scheme.Offloaded && heavy[id] {
				continue
			}
			choices[i] = append(choices[i], m)
		}
		total *= len(choices[i])
	}
	stride := 1
	if cap > 0 && total > cap {
		stride = (total + cap - 1) / cap
	}
	idx := make([]int, len(mix))
	for n := 0; n < total; n++ {
		if n%stride != 0 {
			skipped++
		} else {
			assign := make(map[apps.ID]scheme.Mode, len(mix))
			parts := make([]string, len(mix))
			for i, id := range mix {
				assign[id] = choices[i][idx[i]]
				parts[i] = fmt.Sprintf("%s=%s", id, assign[id])
			}
			kept = append(kept, candidate{assign: assign, tag: "cand:" + strings.Join(parts, ",")})
		}
		for i := 0; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(choices[i]) {
				break
			}
			idx[i] = 0
		}
	}
	return kept, skipped
}

// faultVariants returns the spec's fault schedules, defaulting to fault-free.
func (s Spec) faultVariants() []string {
	if len(s.Faults) == 0 {
		return []string{""}
	}
	return s.Faults
}

// scenariosFor builds the evaluation scenario for one design point under one
// fault schedule.
func (s Spec) scenarioFor(sch scheme.Scheme, assign map[apps.ID]scheme.Mode, tag, fault string) hub.Scenario {
	return hub.Scenario{
		Apps: s.Apps, Scheme: sch, Windows: s.Windows,
		QoSMult: s.QoSMult, Faults: fault, Assign: assign,
		SkipAppCompute: s.SkipAppCompute, Tag: tag,
	}
}

// Run executes the search and emits the plan.
func Run(spec Spec) (*Plan, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	heavy := make(map[apps.ID]bool, len(spec.Apps))
	for _, id := range spec.Apps {
		a, err := catalog.New(id, 1)
		if err != nil {
			return nil, fmt.Errorf("optimizer: %w", err)
		}
		heavy[id] = a.Spec().Heavy
	}

	// The evaluation sweep: every fixed scheme of the table (Hybrid excluded —
	// it has no derivation of its own) first, then every candidate, each
	// under every fault variant. Order is part of the plan's identity: seeds
	// derive from scenario index.
	var builtinsOrder []scheme.Scheme
	for _, s := range scheme.All() {
		if s == scheme.Hybrid {
			continue
		}
		builtinsOrder = append(builtinsOrder, s)
	}
	cands, skipped := enumerate(spec.Apps, heavy, spec.MaxCandidates)
	faults := spec.faultVariants()

	var scens []hub.Scenario
	scenIndex := map[string][]int{} // tag -> scenario indices (for replay)
	add := func(s hub.Scenario) {
		scenIndex[s.Tag] = append(scenIndex[s.Tag], len(scens))
		scens = append(scens, s)
	}
	for _, sch := range builtinsOrder {
		for _, f := range faults {
			add(spec.scenarioFor(sch, nil, "scheme:"+strings.ToLower(sch.String()), f))
		}
	}
	for _, c := range cands {
		for _, f := range faults {
			add(spec.scenarioFor(scheme.Hybrid, c.assign, c.tag, f))
		}
	}

	sweep := fleet.Spec{Seed: spec.Seed, Scenarios: scens}
	res, err := fleet.Run(sweep, fleet.Options{Workers: spec.Workers})
	if err != nil {
		return nil, fmt.Errorf("optimizer: evaluation sweep: %w", err)
	}
	failedTag := map[string]string{}
	for _, f := range res.Failed {
		tag := fleet.Tag(scens[f.Index])
		if _, ok := failedTag[tag]; !ok {
			failedTag[tag] = f.Err
		}
	}

	ep := edge.DefaultParams()
	if spec.Omega > 0 {
		ep.Omega = spec.Omega
	}
	score := func(tag string, sch scheme.Scheme, assign map[apps.ID]scheme.Mode) Evaluated {
		e := Evaluated{Tag: tag, Scheme: sch, Assign: assign}
		if msg, failed := failedTag[tag]; failed {
			e.Error = msg
			return e
		}
		energy := res.Agg.Metric(tag + "/total")
		latency := res.Agg.Metric(tag + "/latency")
		qos := res.Agg.Metric(tag + "/qos")
		if energy == nil || latency == nil || qos == nil {
			e.Error = "no metrics aggregated"
			return e
		}
		e.EnergyPerWindow = energy.Mean()
		e.MeanLatencySec = latency.Mean()
		e.MaxQoSViolations = qos.Max()
		e.Objective = ep.Objective(e.MeanLatencySec, e.EnergyPerWindow)
		e.Feasible = e.MaxQoSViolations <= spec.MaxQoSViolations &&
			(spec.MaxMeanLatencySec <= 0 || e.MeanLatencySec <= spec.MaxMeanLatencySec)
		return e
	}

	plan := &Plan{Spec: spec, Candidates: len(cands), Skipped: skipped}
	for _, sch := range builtinsOrder {
		plan.Builtins = append(plan.Builtins, score("scheme:"+strings.ToLower(sch.String()), sch, nil))
	}
	evaluated := make([]Evaluated, 0, len(cands))
	for _, c := range cands {
		evaluated = append(evaluated, score(c.tag, scheme.Hybrid, c.assign))
	}

	// Winner: minimum energy over feasible compositions; ties fall to the
	// objective, then latency, then tag (all deterministic).
	better := func(a, b Evaluated) bool {
		if a.EnergyPerWindow != b.EnergyPerWindow {
			return a.EnergyPerWindow < b.EnergyPerWindow
		}
		if a.Objective != b.Objective {
			return a.Objective < b.Objective
		}
		if a.MeanLatencySec != b.MeanLatencySec {
			return a.MeanLatencySec < b.MeanLatencySec
		}
		return a.Tag < b.Tag
	}
	var winner *Evaluated
	for i := range evaluated {
		if !evaluated[i].Feasible {
			continue
		}
		if winner == nil || better(evaluated[i], *winner) {
			winner = &evaluated[i]
		}
	}
	if winner == nil {
		return nil, fmt.Errorf("optimizer: no feasible composition among %d candidates (QoS ceiling %v)",
			len(cands), spec.MaxQoSViolations)
	}
	plan.Winner = *winner

	// Pareto front over feasible compositions: a point survives if no other
	// feasible point is at least as good on both axes and better on one.
	var feas []Evaluated
	for _, e := range evaluated {
		if e.Feasible {
			feas = append(feas, e)
		}
	}
	for _, e := range feas {
		dominated := false
		for _, o := range feas {
			if o.Tag == e.Tag {
				continue
			}
			if o.EnergyPerWindow <= e.EnergyPerWindow && o.MeanLatencySec <= e.MeanLatencySec &&
				(o.EnergyPerWindow < e.EnergyPerWindow || o.MeanLatencySec < e.MeanLatencySec) {
				dominated = true
				break
			}
		}
		if !dominated {
			plan.Pareto = append(plan.Pareto, e)
		}
	}
	sort.Slice(plan.Pareto, func(i, j int) bool {
		if plan.Pareto[i].EnergyPerWindow != plan.Pareto[j].EnergyPerWindow {
			return plan.Pareto[i].EnergyPerWindow < plan.Pareto[j].EnergyPerWindow
		}
		return plan.Pareto[i].Tag < plan.Pareto[j].Tag
	})

	plan.BeatsBuiltins = true
	for _, b := range plan.Builtins {
		if !paperSchemes[b.Scheme] || !b.Feasible {
			continue
		}
		if plan.Winner.EnergyPerWindow >= b.EnergyPerWindow {
			plan.BeatsBuiltins = false
		}
	}

	// Replay spec: the winner's evaluation scenarios with their derived
	// seeds pinned, so the recorded aggregates reproduce byte for byte in
	// any fleet — the property `iotfleet optimize -check-replay` verifies.
	replay := fleet.Spec{Seed: spec.Seed}
	for _, i := range scenIndex[plan.Winner.Tag] {
		s := scens[i]
		s.Seed = fleet.ScenarioSeed(spec.Seed, i)
		replay.Scenarios = append(replay.Scenarios, s)
	}
	plan.Replay = replay
	rres, err := fleet.Run(replay, fleet.Options{Workers: spec.Workers})
	if err != nil {
		return nil, fmt.Errorf("optimizer: replay sweep: %w", err)
	}
	plan.ReplayAggregates = string(rres.Agg.JSON())
	return plan, nil
}

// CheckReplay re-runs a plan's embedded replay spec and verifies the
// aggregates reproduce byte for byte. It returns the fresh aggregate JSON.
func CheckReplay(p *Plan, workers int) ([]byte, error) {
	if len(p.Replay.Scenarios) == 0 {
		return nil, fmt.Errorf("optimizer: plan has no replay scenarios")
	}
	res, err := fleet.Run(p.Replay, fleet.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	got := res.Agg.JSON()
	if string(got) != p.ReplayAggregates {
		return got, fmt.Errorf("optimizer: replay diverged from plan aggregates (%d vs %d bytes)",
			len(got), len(p.ReplayAggregates))
	}
	return got, nil
}
