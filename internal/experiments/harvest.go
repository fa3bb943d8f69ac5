// The harvest ablation: what happens to the scheme comparison when the hub
// stops being mains-powered? Every paper figure assumes an infinite energy
// budget — schemes are ranked by joules consumed. AblHarvest reruns the
// golden-corpus pairings on a small battery fed by a deterministic harvest
// trace (internal/power) and ranks schemes by what a deployment actually
// feels: survival time. Hungry schemes hit the brownout wall mid-run and
// drop samples while the board is dark; frugal ones ride the harvest income
// to the horizon with charge to spare.
package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"iothub/internal/fleet"
	"iothub/internal/hub"
	"iothub/internal/power"
	"iothub/internal/report"
)

// harvestSupply is the shared power envelope every scheme runs under: a coin
// cell sized between the frugal and the hungry schemes' appetites (over three
// windows COM draws ~1.6 J and BCOM ~16.5 J, so a 5.4 J usable pack splits
// the field), topped up by the office harvest preset. Derate is pinned to 1
// so the usable-joules number in the table is exactly capacity × voltage.
func harvestSupply() (power.Supply, error) {
	office, err := power.Preset("office")
	if err != nil {
		return power.Supply{}, err
	}
	return power.Supply{
		Battery: power.Battery{CapacityMAh: 0.5, Volts: 3, DerateFraction: 1},
		Harvest: office,
	}, nil
}

// AblHarvest ranks the golden-corpus schemes by survival time on one shared
// battery + harvest trace. Four properties are enforced, not just printed
// (the make harvest-smoke gate):
//
//  1. Contrast: at this calibration at least one scheme browns out before
//     the horizon and at least one survives to it — the supply genuinely
//     separates the field instead of starving or sparing everyone.
//  2. Consistency: a survivor's survival time equals the horizon and it
//     records zero brownouts; a brownout scheme's survival falls short of
//     the horizon.
//  3. Replay: every pairing run twice yields byte-identical results —
//     brownout, recharge, and recollection are deterministic physics.
//  4. Worker independence: the same six scenarios pushed through the fleet
//     engine produce byte-identical per-scenario records at parallelism 1
//     and 4 — survival metrics aggregate like any other metric.
func AblHarvest() (*Result, error) {
	sup, err := harvestSupply()
	if err != nil {
		return nil, err
	}
	usable, err := sup.Battery.UsableJoules()
	if err != nil {
		return nil, err
	}

	type outcome struct {
		key string
		res *hub.RunResult
	}
	var outcomes []outcome
	for _, sc := range observerScenarios() {
		res, err := runPairing(sc.scheme, sc.ids, nil, &sup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.key, err)
		}
		// Property 3: the supply ledger is physics, not noise — an identical
		// rerun reproduces every brownout and recollection byte for byte.
		again, err := runPairing(sc.scheme, sc.ids, nil, &sup)
		if err != nil {
			return nil, fmt.Errorf("%s rerun: %w", sc.key, err)
		}
		if err := sameRun(res, again); err != nil {
			return nil, fmt.Errorf("%s: battery-armed rerun diverged: %w", sc.key, err)
		}
		outcomes = append(outcomes, outcome{sc.key, res})
	}

	// Properties 1 and 2: the calibration separates the field, and the
	// survival numbers mean what they claim.
	brownouts, survivors := 0, 0
	for _, o := range outcomes {
		r := o.res
		horizon := r.Window * time.Duration(Windows)
		if r.Brownouts > 0 {
			brownouts++
			if r.BatterySurvival >= horizon {
				return nil, fmt.Errorf("%s: browned out yet survival %v >= horizon %v",
					o.key, r.BatterySurvival, horizon)
			}
		} else {
			survivors++
			if r.BatterySurvival != horizon {
				return nil, fmt.Errorf("%s: no brownout yet survival %v != horizon %v",
					o.key, r.BatterySurvival, horizon)
			}
			if r.BrownoutTime != 0 {
				return nil, fmt.Errorf("%s: no brownout yet %v of downtime", o.key, r.BrownoutTime)
			}
		}
	}
	if brownouts == 0 || survivors == 0 {
		return nil, fmt.Errorf("harvest calibration lost its contrast: %d brownouts, %d survivors (want >= 1 of each)",
			brownouts, survivors)
	}

	// Property 4: survival ranks identically for any worker count. The six
	// pairings run through the fleet engine at parallelism 1 and 4; records
	// are compared byte for byte (encoding/json sorts the metric maps).
	var scens []hub.Scenario
	for _, sc := range observerScenarios() {
		scens = append(scens, hub.Scenario{
			Apps: sc.ids, Scheme: sc.scheme, Windows: Windows,
			SkipAppCompute: true, Power: &sup, Tag: sc.key,
			Seed: fleet.ScenarioSeed(Seed, len(scens)),
		})
	}
	serial, err := fleet.RunRange(scens, 0, len(scens), 1)
	if err != nil {
		return nil, err
	}
	wide, err := fleet.RunRange(scens, 0, len(scens), 4)
	if err != nil {
		return nil, err
	}
	js, _ := json.Marshal(serial)
	jw, _ := json.Marshal(wide)
	if string(js) != string(jw) {
		return nil, fmt.Errorf("fleet records differ between 1 and 4 workers:\n  1: %.300s\n  4: %.300s", js, jw)
	}
	for _, d := range serial {
		if d.Err != "" {
			return nil, fmt.Errorf("fleet scenario %s failed: %s", d.Label, d.Err)
		}
	}

	// Rank by survival (longest first), breaking ties by the charge left in
	// the pack, then by name so the table is a total order.
	sort.SliceStable(outcomes, func(i, j int) bool {
		a, b := outcomes[i].res, outcomes[j].res
		if a.BatterySurvival != b.BatterySurvival {
			return a.BatterySurvival > b.BatterySurvival
		}
		if a.BatterySoCJ != b.BatterySoCJ {
			return a.BatterySoCJ > b.BatterySoCJ
		}
		return outcomes[i].key < outcomes[j].key
	})

	t := &report.Table{
		Title: fmt.Sprintf("Ablation: scheme survival on a %.2f J battery + office harvest (%d windows)",
			usable, Windows),
		Header: []string{"rank", "scheme", "survival", "brownouts", "downtime", "final SoC", "harvested", "delivered"},
		Notes: []string{
			"survival = time to first brownout, or the full horizon for schemes that never brown out;",
			"the energy ranking (joules) and the survival ranking disagree exactly where brownout downtime",
			"costs delivered samples — a battery deployment optimizes for the latter",
		},
	}
	values := map[string]float64{}
	for i, o := range outcomes {
		r := o.res
		soc := 0.0
		if r.BatteryCapacityJ > 0 {
			soc = r.BatterySoCJ / r.BatteryCapacityJ
		}
		delivered := float64(r.DeliveredSamples) / float64(r.ScheduledSamples)
		values["survival:"+o.key] = r.BatterySurvival.Seconds()
		values["brownouts:"+o.key] = float64(r.Brownouts)
		values["soc:"+o.key] = soc
		values["harvested:"+o.key] = r.BatteryHarvestJ
		values["delivered:"+o.key] = delivered
		t.AddRow(fmt.Sprintf("%d", i+1), o.key,
			r.BatterySurvival.String(),
			report.Cell(r.Brownouts),
			r.BrownoutTime.String(),
			report.Percent(soc),
			report.Cell(r.BatteryHarvestJ),
			report.Percent(delivered))
	}
	values["usableJ"] = usable
	values["brownoutSchemes"] = float64(brownouts)
	values["survivorSchemes"] = float64(survivors)
	return &Result{ID: "abl-harvest", Title: t.Title, Table: t, Values: values}, nil
}
