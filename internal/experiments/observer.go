// The observer-effect ablation: what does in-situ measurement do to the very
// numbers it measures? Every paper figure in this repo assumes the External
// meter — a bench instrument outside the device's power envelope. AblObserver
// re-runs the scheme comparison with an on-device instrument (obs.MeterModel)
// armed at increasing sampling rates and reports how much each scheme's
// energy and latency inflate under observation.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"iothub/internal/apps"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/power"
	"iothub/internal/report"
)

// observerRates are the in-situ sampling rates the ablation sweeps (Hz of
// virtual time). 1 kHz matches the Eco paper's upper operating point.
var observerRates = []float64{10, 100, 1000}

// observerScenarios mirrors the golden corpus's scheme/app pairings, so the
// ablation observes exactly the workloads the byte-pinned corpus runs.
func observerScenarios() []struct {
	key    string
	scheme hub.Scheme
	ids    []apps.ID
} {
	return []struct {
		key    string
		scheme hub.Scheme
		ids    []apps.ID
	}{
		{"baseline", hub.Baseline, []apps.ID{apps.StepCounter}},
		{"batching", hub.Batching, []apps.ID{apps.StepCounter}},
		{"com", hub.COM, []apps.ID{apps.CoAPServer}},
		{"bcom", hub.BCOM, []apps.ID{apps.SpeechToTxt, apps.DropboxMgr}},
		{"beam", hub.BEAM, []apps.ID{apps.StepCounter, apps.Earthquake}},
		{"ecom", hub.ECOM, []apps.ID{apps.SpeechToTxt, apps.CoAPServer}},
	}
}

// runPairing executes one golden-corpus scheme/app pairing, energy only,
// under an optional meter and power supply (nil = unobserved, mains).
func runPairing(scheme hub.Scheme, ids []apps.ID, m *obs.MeterModel, sup *power.Supply) (*hub.RunResult, error) {
	return runScenario(hub.Scenario{
		Apps: ids, Scheme: scheme, Windows: Windows, Seed: Seed,
		SkipAppCompute: true, Meter: m, Power: sup,
	}, nil)
}

// AblObserver quantifies the observer effect per scheme: each golden-corpus
// scheme runs unobserved, then under the Insitu meter at increasing sampling
// rates, and the table reports the energy and busy-latency inflation the
// instrument itself causes. Three properties are enforced, not just printed
// (the make observer-smoke gate):
//
//  1. Asymptote: the External preset (and rate→0) reproduces the unobserved
//     run byte for byte — the instrument's mere existence costs nothing.
//  2. Monotonicity: within a scheme, energy inflation strictly grows with
//     the sampling rate.
//  3. Ordering: per-sample schemes (Baseline, COM) inflate strictly more
//     than Batching at the same rate — the instrument's event-attribution
//     hook fires on every raised interrupt, and per-sample execution raises
//     orders of magnitude more of them than batched execution.
func AblObserver() (*Result, error) {
	t := &report.Table{
		Title:  "Ablation: observer effect of in-situ measurement (Insitu preset)",
		Header: []string{"scheme", "rate", "samples", "dropped", "Δ energy", "Δ busy latency"},
		Notes: []string{
			"Δ columns compare against the same workload with no meter armed (the External asymptote);",
			"timed samples cost every scheme alike, but the attribution hook fires per raised interrupt —",
			"per-sample schemes trigger it per reading, batched schemes only per flush",
		},
	}
	values := map[string]float64{}
	maxRate := observerRates[len(observerRates)-1]
	inflAtMax := map[string]float64{}
	for _, sc := range observerScenarios() {
		base, err := runPairing(sc.scheme, sc.ids, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.key, err)
		}

		// Property 1: a bench instrument at any rate is byte-identical to no
		// instrument at all.
		ext := obs.External()
		ext.RateHz = maxRate
		free, err := runPairing(sc.scheme, sc.ids, &ext, nil)
		if err != nil {
			return nil, fmt.Errorf("%s external: %w", sc.key, err)
		}
		if err := sameRun(base, free); err != nil {
			return nil, fmt.Errorf("%s: external meter at %g Hz perturbed the run: %w", sc.key, maxRate, err)
		}

		prev := 0.0
		for i, rate := range observerRates {
			m := obs.Insitu(rate)
			res, err := runPairing(sc.scheme, sc.ids, &m, nil)
			if err != nil {
				return nil, fmt.Errorf("%s @%g Hz: %w", sc.key, rate, err)
			}
			eInfl := res.TotalJoules()/base.TotalJoules() - 1
			lInfl := float64(res.BusyLatency())/float64(base.BusyLatency()) - 1
			// Property 2: more observation costs strictly more energy.
			if i > 0 && eInfl <= prev {
				return nil, fmt.Errorf("%s: energy inflation not monotone: %.4f%% @%g Hz <= %.4f%% @%g Hz",
					sc.key, eInfl*100, rate, prev*100, observerRates[i-1])
			}
			prev = eInfl
			if rate == maxRate {
				inflAtMax[sc.key] = eInfl
			}
			rkey := fmt.Sprintf("%s:%.0fHz", sc.key, rate)
			values["energy:"+rkey] = eInfl
			values["latency:"+rkey] = lInfl
			values["samples:"+rkey] = float64(res.MeterSamples)
			values["dropped:"+rkey] = float64(res.MeterDroppedSamples)
			t.AddRow(sc.key, fmt.Sprintf("%.0f Hz", rate),
				report.Cell(res.MeterSamples), report.Cell(res.MeterDroppedSamples),
				report.Percent(eInfl), report.Percent(lInfl))
		}
	}
	// Property 3: the observer effect is scheme-dependent, and in the
	// direction the contention model predicts.
	for _, per := range []string{"baseline", "com"} {
		if inflAtMax[per] <= inflAtMax["batching"] {
			return nil, fmt.Errorf("observer-effect ordering violated: %s inflates %.4f%% <= batching %.4f%% at %g Hz",
				per, inflAtMax[per]*100, inflAtMax["batching"]*100, maxRate)
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"at %g Hz: baseline +%.2f%%, com +%.2f%% vs batching +%.2f%% — the instrument distorts the very comparison it measures",
		maxRate, inflAtMax["baseline"]*100, inflAtMax["com"]*100, inflAtMax["batching"]*100))
	return &Result{ID: "abl-observer", Title: t.Title, Table: t, Values: values}, nil
}

// sameRun compares two runs' canonical JSON byte for byte (encoding/json
// sorts map keys, so equal marshalings mean equal results).
func sameRun(a, b *hub.RunResult) error {
	ja, err := json.Marshal(a)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("results differ:\n  a: %.200s\n  b: %.200s", ja, jb)
	}
	return nil
}
