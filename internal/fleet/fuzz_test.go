package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/hub"
	"iothub/internal/obs"
	"iothub/internal/power"
)

// The spec fuzz target keeps each input cheap: specs expanding to more than
// fuzzMaxScenarios scenarios, or naming more than fuzzMaxApps apps across
// them, are skipped before Expand runs.
const (
	fuzzMaxScenarios = 8
	fuzzMaxApps      = 24
)

// fuzzExpansion returns how many scenarios s expands to, and false when the
// spec is over the fuzz caps. Each axis is checked before it is multiplied,
// so the product cannot overflow.
func fuzzExpansion(s Spec) (int, bool) {
	n, appRefs := len(s.Scenarios), 0
	for _, sc := range s.Scenarios {
		appRefs += len(sc.Apps)
	}
	if g := s.Grid; g != nil {
		perMix := 1
		for _, axis := range []int{len(g.Schemes), len(g.Windows), max(len(g.QoS), 1),
			max(len(g.Faults), 1), max(len(g.Meters), 1), max(len(g.Power), 1)} {
			if axis > fuzzMaxScenarios {
				return 0, false
			}
			perMix *= axis
		}
		if len(g.Apps) > fuzzMaxScenarios {
			return 0, false
		}
		n += perMix * len(g.Apps)
		for _, mix := range g.Apps {
			appRefs += perMix * len(mix)
		}
	}
	return n, n <= fuzzMaxScenarios && appRefs <= fuzzMaxApps
}

// FuzzParseSpec feeds arbitrary JSON to ParseSpec and Expand, the entry of
// every sweep and of the spec fleetd ships to its workers. Nothing panics and
// every error is a "fleet:" error; an accepted spec expands to the product of
// its grid axes (an empty optional axis counts once) plus its explicit
// scenarios, each with a nonzero seed; every expanded scenario's Config
// either succeeds or fails with hub.ErrConfig; and the spec re-marshals to
// JSON that parses and expands to the same SpecFingerprint.
func FuzzParseSpec(f *testing.F) {
	insitu := obs.Insitu(100)
	for _, s := range []Spec{
		testSpec(),
		{Seed: 3, Grid: &Grid{
			Apps:    [][]apps.ID{{apps.StepCounter, apps.Earthquake}},
			Schemes: []string{"beam", "bcom"},
			Windows: []int{2},
			Faults:  []string{"", "seed=7; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms"},
			Meters:  []obs.MeterModel{{}, insitu},
			Power:   []power.Supply{{Battery: power.Battery{CapacityMAh: 0.5, Volts: 3}, Harvest: "const:w=0.12"}},
		}},
		{Seed: 1, Workers: 2, Scenarios: []hub.Scenario{
			{Apps: []apps.ID{apps.SpeechToTxt, apps.StepCounter}, Scheme: hub.Hybrid, Windows: 1, Seed: 9,
				Assign: map[apps.ID]hub.Mode{apps.SpeechToTxt: hub.Uploaded, apps.StepCounter: hub.Offloaded}, Tag: "plan"},
			{Apps: []apps.ID{apps.M2X}, Scheme: hub.COM, Windows: 2, QoSMult: 0.5, Meter: &insitu},
		}},
	} {
		blob, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"seed":7,"grid":{"apps":[["A2"]],"schemes":["baseline"],"windows":[0]}}`))
	f.Add([]byte(`{"seed":7,"grid":{"apps":[["A99"]],"schemes":["turbo"],"windows":[1]}}`))
	f.Add([]byte(`{"scenarios":[{"apps":["A2"],"windows":1}]}`))
	f.Add([]byte(`{"seed":1,"grid":{}}`))
	f.Add([]byte(`{"seed":1,"extra":true}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		spec, err := ParseSpec(bytes.NewReader(blob))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fleet:") {
				t.Fatalf("ParseSpec(%s) err = %v, want a fleet: error", blob, err)
			}
			return
		}
		want, ok := fuzzExpansion(spec)
		if !ok {
			return
		}
		scens, err := spec.Expand()
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fleet:") {
				t.Fatalf("Expand(%s) err = %v, want a fleet: error", blob, err)
			}
			return
		}
		if len(scens) != want {
			t.Fatalf("spec %s expands to %d scenarios, want %d", blob, len(scens), want)
		}
		for i, s := range scens {
			if s.Seed == 0 {
				t.Fatalf("scenario %d (%s) of %s has seed 0", i, s.Label(), blob)
			}
		}
		// Config builds every named app, hence the app cap.
		for i, s := range scens {
			if _, err := s.Config(); err != nil && !errors.Is(err, hub.ErrConfig) {
				t.Fatalf("scenario %d (%s, seed %d) of %s: Config err = %v, want ErrConfig", i, s.Label(), s.Seed, blob, err)
			}
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %s does not marshal: %v", blob, err)
		}
		back, err := ParseSpec(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("accepted spec %s re-marshals to %s, which does not parse: %v", blob, again, err)
		}
		rescens, err := back.Expand()
		if err != nil {
			t.Fatalf("accepted spec %s re-marshals to %s, which does not expand: %v", blob, again, err)
		}
		if got, want := SpecFingerprint(back, rescens), SpecFingerprint(spec, scens); got != want {
			t.Fatalf("spec %s fingerprints %s, but %s after a JSON round trip (%s)", blob, want, got, again)
		}
	})
}
