package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// manifestMetric is one metric entry of BENCHMARK.json.
type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCatalogueMatchesManifest pins the Go metric catalogue and workload list
// to BENCHMARK.json: same names, order, units, and directions.
func TestCatalogueMatchesManifest(t *testing.T) {
	m := loadManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads: BENCHMARK.json %v, catalogue %v", names, workloadNames)
	}
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalogue %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

// TestTinyRuns runs every workload at the tiny size, untraced and traced: each
// must print every catalogue metric once, with its unit and direction, and
// end with a correct result that has no failures.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "0.2",
					"--trace", trace, "--size", "tiny", "--out", ""}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, failed %d of %d:\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if mv, ok := res.Metrics[d.name]; !ok || mv.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, mv, ok, d.unit)
					}
					// "metric <name> <value> <unit> <better> is better"
					want := []string{"metric", d.name, "", d.unit, d.better, "is", "better"}
					found := false
					for _, l := range lines {
						f := strings.Fields(l)
						if len(f) == len(want) {
							f[2] = ""
							found = found || fmt.Sprint(f) == fmt.Sprint(want)
						}
					}
					if !found {
						t.Errorf("no printed line for %s with its unit and direction", d.name)
					}
				}
			})
		}
	}
}

// TestHeldOutSeedSameCount checks that the held-out seed expands every sweep
// to the same scenario count as the reference seed.
func TestHeldOutSeedSameCount(t *testing.T) {
	for _, w := range sweeps {
		counts := map[int64]int{}
		for _, seed := range []int64{refSeed, heldOutSeed} {
			spec, err := w.spec(seed, false)
			if err != nil {
				t.Fatal(err)
			}
			scens, err := spec.Expand()
			if err != nil {
				t.Fatal(err)
			}
			counts[seed] = len(scens)
		}
		if counts[refSeed] != counts[heldOutSeed] {
			t.Errorf("%s: seed %d expands to %d scenarios, seed %d to %d",
				w.name, refSeed, counts[refSeed], heldOutSeed, counts[heldOutSeed])
		}
	}
}
