package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"iothub/internal/fleet"
)

// Reference outputs, stored with the benchmark: the canonical aggregate of
// each sweep workload at the pinned seeds, and a digest of every artifact.
// A run fails any output that differs. Regenerate them, after a change that
// is meant to alter simulated results, with
//
//	bash perfbench/run.sh -record perfbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

// refSeed is checked by every untraced run; heldOutSeed, never used to tune
// the benchmark, by every traced run.
const (
	refSeed     = 1
	heldOutSeed = 2
)

type sweepRef struct {
	Scenarios int    `json:"scenarios"`
	Agg       string `json:"agg"`
}

type references struct {
	Sweeps    map[string]sweepRef `json:"sweeps"`
	Artifacts map[string]string   `json:"artifacts"`
}

var loadedRefs references

func loadReferences() error {
	if err := json.Unmarshal(referenceJSON, &loadedRefs); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	return nil
}

func refKey(workload string, tiny bool, seed int64) string {
	size := "full"
	if tiny {
		size = "tiny"
	}
	return fmt.Sprintf("%s/%s/seed%d", workload, size, seed)
}

// recordReferences computes every reference output and writes them to path.
func recordReferences(path string) error {
	refs := references{Sweeps: map[string]sweepRef{}, Artifacts: map[string]string{}}
	for _, w := range sweeps {
		for _, tiny := range []bool{false, true} {
			for _, seed := range []int64{refSeed, heldOutSeed} {
				spec, err := w.spec(seed, tiny)
				if err != nil {
					return err
				}
				res, err := fleet.Run(spec, fleet.Options{Workers: workers()})
				if err != nil {
					return err
				}
				if len(res.Failed) > 0 {
					return fmt.Errorf("%s: %d scenarios failed, first: %s: %s",
						refKey(w.name, tiny, seed), len(res.Failed), res.Failed[0].Label, res.Failed[0].Err)
				}
				refs.Sweeps[refKey(w.name, tiny, seed)] = sweepRef{Scenarios: res.Scenarios, Agg: string(res.Agg.JSON())}
			}
		}
	}
	for _, r := range poolPass(artifacts(false), workers(), nil, -1) {
		if r.err != nil {
			return fmt.Errorf("artifact %s: %w", r.id, r.err)
		}
		refs.Artifacts[r.id] = r.digest
	}
	blob, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
