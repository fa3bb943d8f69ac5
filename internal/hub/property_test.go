package hub

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/energy"
)

// TestPropertySchemeInvariants runs randomized subsets of the light
// workloads under every automatic scheme and checks cross-scheme invariants
// the paper's whole argument rests on:
//
//  1. Baseline interrupts equal the Table II per-window counts.
//  2. Batching never raises more interrupts than Baseline, COM never more
//     than Batching (+ result notifications).
//  3. Energy: COM <= Batching <= Baseline (within a sliver of tolerance for
//     apps batching cannot help).
//  4. Every app produces one output per window under every scheme.
func TestPropertySchemeInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized simulation sweep")
	}
	f := func(mask uint16) bool {
		ids := subset(mask)
		if len(ids) == 0 || len(ids) > 3 {
			return true // keep runtimes bounded; quick tries many masks
		}
		const windows = 2
		results := make(map[Scheme]*RunResult, 3)
		for _, scheme := range []Scheme{Baseline, Batching, COM} {
			list := make([]apps.App, 0, len(ids))
			for _, id := range ids {
				a, err := catalog.New(id, 3)
				if err != nil {
					return false
				}
				list = append(list, a)
			}
			res, err := Run(Config{Apps: list, Scheme: scheme, Windows: windows, SkipAppCompute: true})
			if err != nil {
				t.Logf("%v %v: %v", ids, scheme, err)
				return false
			}
			results[scheme] = res
		}

		wantIrq := 0
		for _, id := range ids {
			a, err := catalog.New(id, 3)
			if err != nil {
				return false
			}
			n, err := a.Spec().InterruptsPerWindow()
			if err != nil {
				return false
			}
			wantIrq += n
		}
		if results[Baseline].Interrupts != windows*wantIrq {
			t.Logf("%v: baseline irq %d != %d", ids, results[Baseline].Interrupts, windows*wantIrq)
			return false
		}
		if results[Batching].Interrupts > results[Baseline].Interrupts {
			return false
		}
		if results[COM].Interrupts != windows*len(ids) {
			t.Logf("%v: COM irq %d != %d", ids, results[COM].Interrupts, windows*len(ids))
			return false
		}

		base := results[Baseline].TotalJoules()
		bat := results[Batching].TotalJoules()
		com := results[COM].TotalJoules()
		if bat > base*1.01 || com > bat*1.01 {
			t.Logf("%v: energy ordering base=%.3f bat=%.3f com=%.3f", ids, base, bat, com)
			return false
		}

		for scheme, res := range results {
			for _, id := range ids {
				if len(res.Outputs[id]) != windows {
					t.Logf("%v %v: %s outputs %d", ids, scheme, id, len(res.Outputs[id]))
					return false
				}
			}
			if res.QoSViolations != 0 {
				t.Logf("%v %v: qos violations %d", ids, scheme, res.QoSViolations)
				return false
			}
			var nonIdle float64
			for _, r := range []energy.Routine{
				energy.DataCollection, energy.Interrupt, energy.DataTransfer, energy.AppCompute,
			} {
				nonIdle += res.Energy[r]
			}
			if nonIdle <= 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// subset decodes a bitmask over the light workload catalog.
func subset(mask uint16) []apps.ID {
	var out []apps.ID
	for i, id := range catalog.LightIDs {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, id)
		}
	}
	return out
}

// runLabeled materializes s and runs it, naming the run by label, seed and
// compute setting when it fails.
func runLabeled(t *testing.T, s Scenario) *RunResult {
	t.Helper()
	cfg, err := s.Config()
	if err == nil {
		var res *RunResult
		if res, err = Run(cfg); err == nil {
			return res
		}
	}
	t.Fatalf("%s (seed %d, skipCompute %v): %v", s.Label(), s.Seed, s.SkipAppCompute, err)
	return nil
}

// TestPropertyWindowsAffine checks that a run's energy is affine in its
// window count: a fixed start and finish cost, then the same marginal cost
// per window, so E(6) − E(3) = 3·(E(3) − E(2)) to rounding. It does not hold
// proportionally (E(6)/E(3) is not 2), and it holds only with app compute
// skipped: each window's outputs then change the upstream payload (A9's
// UpstreamBytes reads 2124, 3196 and 6294 at 2, 3 and 6 windows), which
// moves the relation by up to 2.8e-4 relative (COM, A9). The runs skip
// compute, which iotsim cannot, so a failure names each run's label and
// seed for a Scenario replay rather than an iotsim command.
func TestPropertyWindowsAffine(t *testing.T) {
	for _, id := range catalog.LightIDs {
		for _, scheme := range []Scheme{Baseline, Batching, COM} {
			var e [7]float64
			var labels []string
			for _, n := range []int{2, 3, 6} {
				s := Scenario{Apps: []apps.ID{id}, Scheme: scheme, Windows: n, Seed: 1, SkipAppCompute: true}
				e[n] = runLabeled(t, s).TotalJoules()
				labels = append(labels, s.Label())
			}
			marginal := e[6] - e[3]
			if d := math.Abs(marginal - 3*(e[3]-e[2])); d > 1e-12*marginal {
				t.Errorf("%v (seed 1, skipCompute): E6−E3 = %.15g J but 3·(E3−E2) = %.15g J, off by %.2g relative",
					labels, marginal, 3*(e[3]-e[2]), d/marginal)
			}
		}
	}
}

// TestPropertyAppOrderDisjointSensors checks that listing two apps the other
// way round changes nothing when they read disjoint sensors: the whole
// RunResult, per-component energies and app outputs included, is
// byte-identical as JSON. Apps sharing a sensor on streams of their own are
// left out until the order in which such streams are served is a named rule:
// {A2, A4} differs under Baseline, Batching and COM and is equal under BEAM.
func TestPropertyAppOrderDisjointSensors(t *testing.T) {
	pairs := [][2]apps.ID{
		{apps.CoAPServer, apps.Earthquake}, {apps.StepCounter, apps.ArduinoJSON},
		{apps.StepCounter, apps.JPEGDecoder}, {apps.ArduinoJSON, apps.Heartbeat},
		{apps.CoAPServer, apps.ArduinoJSON},
	}
	for _, p := range pairs {
		for _, scheme := range []Scheme{Baseline, Batching, COM, BEAM} {
			for _, skip := range []bool{false, true} {
				var blobs [2][]byte
				var labels [2]string
				for i, ids := range [][]apps.ID{{p[0], p[1]}, {p[1], p[0]}} {
					s := Scenario{Apps: ids, Scheme: scheme, Windows: 3, Seed: 1, SkipAppCompute: skip}
					blob, err := json.Marshal(runLabeled(t, s))
					if err != nil {
						t.Fatal(err)
					}
					blobs[i], labels[i] = blob, s.Label()
				}
				if !bytes.Equal(blobs[0], blobs[1]) {
					replay := ""
					if !skip {
						replay = fmt.Sprintf("; replay each with go run ./cmd/iotsim -apps %s,%s -scheme %s -windows 3 -seed 1 -json",
							p[0], p[1], strings.ToLower(scheme.String()))
					}
					t.Errorf("%s and %s (seed 1, skipCompute %v) differ:\n%.300s\nvs\n%.300s%s",
						labels[0], labels[1], skip, blobs[0], blobs[1], replay)
				}
			}
		}
	}
}
