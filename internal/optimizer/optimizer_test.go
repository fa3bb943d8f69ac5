package optimizer

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/fleet"
	"iothub/internal/hub"
	"iothub/internal/scheme"
)

// testSpec is the search the package tests drive: the heavy speech app next
// to the offloadable step counter, fault-free, zero tolerated QoS violations.
func testSpec() Spec {
	return Spec{
		Apps:    []apps.ID{apps.SpeechToTxt, apps.StepCounter},
		Windows: 2, Seed: 7, MaxQoSViolations: 0, SkipAppCompute: true,
	}
}

func TestEnumerate(t *testing.T) {
	mix := []apps.ID{"A11", "A2"}
	heavy := map[apps.ID]bool{"A11": true}
	// A11 skips Offloaded (3 choices), A2 keeps all 4: 12 compositions.
	kept, skipped := enumerate(mix, heavy, 0)
	if len(kept) != 12 || skipped != 0 {
		t.Fatalf("enumerate = %d kept, %d skipped, want 12, 0", len(kept), skipped)
	}
	seen := map[string]bool{}
	for _, c := range kept {
		if seen[c.tag] {
			t.Errorf("duplicate tag %q", c.tag)
		}
		seen[c.tag] = true
		if c.assign["A11"] == scheme.Offloaded {
			t.Errorf("heavy app enumerated Offloaded: %q", c.tag)
		}
	}
	// Stride sampling keeps the first tuple and bounds the count.
	capped, dropped := enumerate(mix, heavy, 5)
	if len(capped) > 5 || len(capped)+dropped != 12 {
		t.Fatalf("capped enumerate = %d kept, %d skipped", len(capped), dropped)
	}
	if capped[0].tag != kept[0].tag {
		t.Errorf("sampling dropped the first tuple")
	}
}

// TestSearchDeterministicAndBeatsBuiltins runs the full search twice: the
// emitted plans must be byte-identical, the winner must hold the paper mix's
// expected composition (heavy app to the edge, light app to the MCU), and it
// must beat every feasible paper scheme on energy.
func TestSearchDeterministicAndBeatsBuiltins(t *testing.T) {
	p1, err := Run(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Run(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.MarshalIndent(p1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.MarshalIndent(p2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same spec emitted different plans (%d vs %d bytes)", len(b1), len(b2))
	}

	if !p1.BeatsBuiltins {
		t.Errorf("winner %q (%.4f J/win) does not beat the paper schemes: %+v",
			p1.Winner.Tag, p1.Winner.EnergyPerWindow, p1.Builtins)
	}
	if p1.Winner.Assign[apps.SpeechToTxt] != scheme.Uploaded {
		t.Errorf("winner sends %s to %v, want Uploaded", apps.SpeechToTxt, p1.Winner.Assign[apps.SpeechToTxt])
	}
	if len(p1.Pareto) == 0 {
		t.Error("empty Pareto front")
	}
	// The front is sorted by energy and contains the winner.
	foundWinner := false
	for i, e := range p1.Pareto {
		if i > 0 && e.EnergyPerWindow < p1.Pareto[i-1].EnergyPerWindow {
			t.Errorf("Pareto front not sorted by energy at %d", i)
		}
		if e.Tag == p1.Winner.Tag {
			foundWinner = true
		}
	}
	if !foundWinner {
		t.Error("winner missing from its own Pareto front")
	}

	// The plan replays byte-for-byte.
	if _, err := CheckReplay(p1, 2); err != nil {
		t.Errorf("CheckReplay: %v", err)
	}
	corrupt := *p1
	corrupt.ReplayAggregates = strings.Replace(p1.ReplayAggregates, "mean", "maen", 1)
	if _, err := CheckReplay(&corrupt, 2); err == nil {
		t.Error("CheckReplay accepted corrupted aggregates")
	}
}

// TestECOMMatchesSearchedHybrid pins that a scheme derived from a uniform or
// searched composition adds nothing and loses nothing: executing the
// composition through the Hybrid vehicle yields fleet aggregates
// byte-identical to the registered scheme's. The searched one is ECOM; the
// uniform ones map every app to PerSample, Batched or Offloaded, and must
// reproduce Baseline, Batching and COM on a one-app and a two-app mix, clean
// and under the golden fault schedule.
func TestECOMMatchesSearchedHybrid(t *testing.T) {
	const chaos = "seed=7; link-corrupt:prob=0.05; mcu-crash:at=700ms,for=80ms"
	run := func(t *testing.T, s hub.Scenario) []byte {
		t.Helper()
		res, err := fleet.Run(fleet.Spec{Seed: 3, Scenarios: []hub.Scenario{s}},
			fleet.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failed) != 0 {
			t.Fatalf("scenario failed: %+v", res.Failed)
		}
		return res.Agg.JSON()
	}
	type relation struct {
		name   string
		mix    []apps.ID
		scheme hub.Scheme
		assign map[apps.ID]scheme.Mode
		faults string
	}
	cases := []relation{{
		name:   "ecom",
		mix:    []apps.ID{apps.SpeechToTxt, apps.StepCounter},
		scheme: hub.ECOM,
		assign: map[apps.ID]scheme.Mode{apps.SpeechToTxt: scheme.Uploaded, apps.StepCounter: scheme.Offloaded},
	}}
	for _, uniform := range []struct {
		scheme hub.Scheme
		mode   scheme.Mode
	}{{hub.Baseline, scheme.PerSample}, {hub.Batching, scheme.Batched}, {hub.COM, scheme.Offloaded}} {
		for _, mix := range [][]apps.ID{{apps.StepCounter}, {apps.StepCounter, apps.DropboxMgr}} {
			for _, faults := range []string{"", chaos} {
				assign := make(map[apps.ID]scheme.Mode, len(mix))
				for _, id := range mix {
					assign[id] = uniform.mode
				}
				name := fmt.Sprintf("%v/%d-app", uniform.scheme, len(mix))
				if faults != "" {
					name += "/chaos"
				}
				cases = append(cases, relation{name, mix, uniform.scheme, assign, faults})
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Same Tag on both so the aggregate keys coincide; same derived
			// seed because both sit at index 0 of a seed-3 fleet.
			derived := run(t, hub.Scenario{Apps: tc.mix, Scheme: tc.scheme, Windows: 2,
				Faults: tc.faults, SkipAppCompute: true, Tag: "pin"})
			hybrid := run(t, hub.Scenario{Apps: tc.mix, Scheme: hub.Hybrid, Windows: 2,
				Faults: tc.faults, SkipAppCompute: true, Tag: "pin", Assign: tc.assign})
			if !bytes.Equal(derived, hybrid) {
				t.Errorf("%v and Hybrid %v diverge:\n%v:\t%s\nhybrid:\t%s", tc.scheme, tc.assign, tc.scheme, derived, hybrid)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite the committed example plan")

// TestExamplePlanGolden pins the committed example search end to end: the
// spec in testdata/example.json must emit exactly the committed plan (the
// artifact `iotfleet optimize` wrote and `make opt-smoke` re-verifies), and
// that plan must beat every paper scheme.
func TestExamplePlanGolden(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "example.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec Spec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	plan, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	goldenPath := filepath.Join("testdata", "example.plan.json")
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing committed plan (run with -update or `iotfleet optimize`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("search diverged from the committed plan (%d vs %d bytes); "+
			"regenerate with -update ONLY for a deliberate semantic change", len(got), len(want))
	}
	if !plan.BeatsBuiltins {
		t.Error("committed example plan does not beat the paper schemes")
	}
	if _, err := CheckReplay(plan, 0); err != nil {
		t.Errorf("committed plan replay: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Apps: []apps.ID{"A2"}},
		{Apps: []apps.ID{"A2"}, Windows: 1, MaxQoSViolations: -1},
		{Apps: []apps.ID{"A2"}, Windows: 1, Omega: 2},
	}
	for i, s := range bad {
		if err := s.validate(); err == nil {
			t.Errorf("spec %d passed validation", i)
		}
	}
	if _, err := Run(Spec{Apps: []apps.ID{"A99"}, Windows: 1}); err == nil {
		t.Error("unknown app accepted")
	}
}
