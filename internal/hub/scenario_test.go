package hub

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/faults"
)

func TestScenarioLabel(t *testing.T) {
	cases := []struct {
		s    Scenario
		want string
	}{
		{Scenario{Apps: []apps.ID{apps.StepCounter}, Scheme: Baseline, Windows: 3}, "A2/Baseline/w3"},
		{Scenario{Apps: []apps.ID{apps.SpeechToTxt, apps.DropboxMgr}, Scheme: BCOM, Windows: 3, QoSMult: 0.5}, "A11+A6/BCOM/w3/q0.5"},
		{Scenario{Apps: []apps.ID{apps.StepCounter}, Scheme: Batching, Windows: 1, QoSMult: 1, Faults: "link-loss:prob=0.1"}, "A2/Batching/w1/chaos"},
	}
	for _, c := range cases {
		if got := c.s.Label(); got != c.want {
			t.Errorf("Label() = %q, want %q", got, c.want)
		}
	}
}

func TestScenarioConfigErrors(t *testing.T) {
	for name, s := range map[string]Scenario{
		"no apps":     {Scheme: Baseline, Windows: 1},
		"no scheme":   {Apps: []apps.ID{apps.StepCounter}, Windows: 1, Seed: 1},
		"unknown app": {Apps: []apps.ID{"A99"}, Scheme: Baseline, Windows: 1, Seed: 1},
		"bad qos":     {Apps: []apps.ID{apps.StepCounter}, Scheme: Baseline, Windows: 1, Seed: 1, QoSMult: -1},
		"bad faults":  {Apps: []apps.ID{apps.StepCounter}, Scheme: Baseline, Windows: 1, Seed: 1, Faults: "warp-core:breach"},
	} {
		if _, err := s.Config(); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: Config() err = %v, want ErrConfig", name, err)
		}
	}
}

// A partitioned scenario carrying its own explicit Assign runs standalone —
// the property optimizer plan replay rests on — and the partition survives a
// JSON round trip with mode-name encoding.
func TestScenarioAssignRoundTrip(t *testing.T) {
	s := Scenario{
		Apps: []apps.ID{apps.SpeechToTxt, apps.StepCounter}, Scheme: Hybrid,
		Windows: 1, Seed: 1, SkipAppCompute: true,
		Assign: map[apps.ID]Mode{apps.SpeechToTxt: Uploaded, apps.StepCounter: Offloaded},
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"A11":"Uploaded"`) {
		t.Errorf("assign not serialized by mode name: %s", blob)
	}
	var back Scenario
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Assign[apps.SpeechToTxt] != Uploaded || back.Assign[apps.StepCounter] != Offloaded {
		t.Fatalf("assign did not round-trip: %v", back.Assign)
	}
	cfg, err := back.Config()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.EdgeUploads == 0 || got.Modes[apps.SpeechToTxt] != Uploaded {
		t.Errorf("replayed hybrid scenario did not reach the edge: uploads=%d modes=%v",
			got.EdgeUploads, got.Modes)
	}
}

// A scenario run must be bit-for-bit the run of its hand-built config — the
// property the fleet engine's standalone-replay guarantee rests on.
func TestRunScenarioMatchesExplicitConfig(t *testing.T) {
	const text = "seed=5; link-corrupt:every=60"
	cfg, err := Scenario{Apps: []apps.ID{apps.StepCounter}, Scheme: Batching, Windows: 2, Seed: 42,
		Faults: text}.Config()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := catalog.New(apps.StepCounter, 42)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := faults.ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(Config{Apps: []apps.App{a}, Scheme: Batching, Windows: 2, FaultSchedule: schedule})
	if err != nil {
		t.Fatal(err)
	}
	if got.Energy.Attributed() != want.Energy.Attributed() {
		t.Errorf("energy %v != %v", got.Energy.Attributed(), want.Energy.Attributed())
	}
	if got.Duration != want.Duration || got.LinkRetransmits != want.LinkRetransmits {
		t.Errorf("run stats diverge: %v/%d vs %v/%d",
			got.Duration, got.LinkRetransmits, want.Duration, want.LinkRetransmits)
	}
}

// FuzzScenarioConfig feeds arbitrary scenario JSON to Config, the entry point
// of every fleet spec, journal and optimizer plan. Config never panics, every
// error it returns wraps ErrConfig, and an accepted scenario re-marshals to
// JSON that decodes to the same Label and is accepted again.
func FuzzScenarioConfig(f *testing.F) {
	for _, s := range []Scenario{
		{Apps: []apps.ID{apps.StepCounter}, Scheme: Baseline, Windows: 3, Seed: 1},
		{Apps: []apps.ID{apps.SpeechToTxt, apps.DropboxMgr}, Scheme: BCOM, Windows: 3, Seed: 2, QoSMult: 0.5},
		{Apps: []apps.ID{apps.StepCounter, apps.Earthquake}, Scheme: Batching, Windows: 2, Seed: 7,
			Faults: "seed=7; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms", SkipAppCompute: true},
		{Apps: []apps.ID{apps.SpeechToTxt, apps.StepCounter}, Scheme: Hybrid, Windows: 1, Seed: 1,
			Assign: map[apps.ID]Mode{apps.SpeechToTxt: Uploaded, apps.StepCounter: Offloaded}, Tag: "plan"},
	} {
		blob, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"apps":["A6"],"scheme":"com","windows":2,"meter":{"rateHz":100},"power":{"battery":{"capacityMah":0.5,"volts":3}}}`))
	f.Add([]byte(`{"apps":["A99"],"scheme":"beam"}`))
	f.Add([]byte(`{"apps":["A2"],"qos":-1}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var s Scenario
		if json.Unmarshal(blob, &s) != nil {
			return
		}
		if _, err := s.Config(); err != nil {
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("Config(%s) err = %v, want ErrConfig", blob, err)
			}
			return
		}
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario %s does not marshal: %v", s.Label(), err)
		}
		var back Scenario
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("accepted scenario %s re-marshals to %s, which does not decode: %v", s.Label(), again, err)
		}
		if back.Label() != s.Label() {
			t.Fatalf("label %q re-decodes as %q (from %s)", s.Label(), back.Label(), again)
		}
		if _, err := back.Config(); err != nil {
			t.Fatalf("accepted scenario %s is refused after a JSON round trip: %v", s.Label(), err)
		}
	})
}
