package experiments

import (
	"fmt"

	"iothub/internal/apps"
	"iothub/internal/fleet"
	"iothub/internal/hub"
	"iothub/internal/report"
)

// fig12Combos are Figure 12's heavy-weight app mixes, A11 alone first.
var fig12Combos = [][]apps.ID{
	{apps.SpeechToTxt},
	{apps.SpeechToTxt, apps.DropboxMgr},
	{apps.SpeechToTxt, apps.DropboxMgr, apps.CoAPServer},
}

// fig12Rates are the QoS sampling-rate multipliers the sweep explores: half,
// paper-default, and double rate.
var fig12Rates = []float64{0.5, 1, 2}

// FleetFig12Spec reproduces Figure 12 as a fleet sweep extended along the
// sampling-rate axis: each of Figure 12's runs (fig12Runs) at
// half/default/double QoS rates. Each scenario is tagged
// "<combo>|<scheme>|q<rate>" so the aggregates keep the cells separate.
func FleetFig12Spec() fleet.Spec {
	var scens []hub.Scenario
	for _, k := range fig12Runs() {
		for _, q := range fig12Rates {
			s := k.scenario()
			s.Seed = 0 // the fleet derives each cell's seed from its index
			s.QoSMult = q
			s.SkipAppCompute = true
			s.Tag = fmt.Sprintf("%s|%v|q%g", k.mix, k.scheme, q)
			scens = append(scens, s)
		}
	}
	return fleet.Spec{Seed: Seed, Scenarios: scens}
}

// AblFleet12 runs the FleetFig12Spec sweep through the fleet engine and
// reports per-scheme energy savings against Baseline for every (combo, rate)
// cell — the savings-vs-sampling-rate view of Figure 12.
func AblFleet12() (*Result, error) {
	spec := FleetFig12Spec()
	res, err := fleet.Run(spec, fleet.Options{})
	if err != nil {
		return nil, err
	}
	if res.Agg.Errors > 0 {
		return nil, fmt.Errorf("experiments: fleet12: %d of %d scenarios failed: %+v",
			res.Agg.Errors, res.Completed, res.Failed)
	}
	mean := func(combo string, scheme hub.Scheme, q float64) (float64, error) {
		key := fmt.Sprintf("%s|%v|q%g/total", combo, scheme, q)
		m := res.Agg.Metric(key)
		if m == nil {
			return 0, fmt.Errorf("experiments: fleet12: no aggregate %q", key)
		}
		return m.Mean(), nil
	}
	t := &report.Table{
		Title:  "Ablation: Fig. 12 savings vs QoS sampling rate (fleet sweep)",
		Header: []string{"scenario", "rate", "baseline mJ/win", "batching", "BEAM", "BCOM"},
		Notes: []string{
			fmt.Sprintf("%d scenarios aggregated by the fleet engine (deterministic for any worker count)", res.Scenarios),
			"savings are relative to the same combo and rate under Baseline; single-app rows have no BEAM/BCOM",
		},
	}
	values := map[string]float64{}
	for _, ids := range fig12Combos {
		label := comboLabel(ids)
		for _, q := range fig12Rates {
			base, err := mean(label, hub.Baseline, q)
			if err != nil {
				return nil, err
			}
			row := []string{label, fmt.Sprintf("x%g", q), report.Cell(base * 1000)}
			schemes := []hub.Scheme{hub.Batching, hub.BEAM, hub.BCOM}
			for _, s := range schemes {
				if len(ids) == 1 && s != hub.Batching {
					row = append(row, "-")
					continue
				}
				tot, err := mean(label, s, q)
				if err != nil {
					return nil, err
				}
				saving := 1 - tot/base
				values[fmt.Sprintf("%v:%s:q%g", s, label, q)] = saving
				row = append(row, report.Percent(saving))
			}
			values[fmt.Sprintf("base:%s:q%g", label, q)] = base
			t.AddRow(row...)
		}
	}
	return &Result{ID: "abl-fleet12", Title: t.Title, Table: t, Values: values}, nil
}
