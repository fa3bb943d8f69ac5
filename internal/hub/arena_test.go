// Arena reuse gates: the scenario arena is only legitimate while a reused
// arena reproduces the golden corpus byte-for-byte and its steady-state runs
// stay within the pinned allocation budget.
package hub_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/faults"
	"iothub/internal/hub"
	"iothub/internal/obs"
)

// TestArenaReuseMatchesGolden drives every golden corpus entry — all schemes,
// clean and chaotic — through ONE shared arena, twice each. The first run of
// a case exercises renewal after a *different* scheme's state (cross-config
// reset); the second exercises renewal after an identical run. Both must
// match the committed corpus bytes exactly, which proves reuse is
// indistinguishable from fresh construction.
func TestArenaReuseMatchesGolden(t *testing.T) {
	arena := hub.NewArena()
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".result.json"))
			if err != nil {
				t.Fatalf("missing golden corpus: %v", err)
			}
			for pass, label := range []string{"after-other-scheme", "after-identical-run"} {
				// Fresh cfg per pass: app instances are stateful (their
				// synthetic sources advance as Compute runs), so reusing one
				// would diverge under any engine, arena or not.
				cfg := obsConfig(t, tc.ids, tc.scheme, 2, nil)
				if tc.chaos != "" {
					schedule, err := faults.ParseSchedule(tc.chaos)
					if err != nil {
						t.Fatal(err)
					}
					cfg.FaultSchedule = schedule
				}
				res, err := arena.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				if !bytes.Equal(got, want) {
					t.Fatalf("pass %d (%s) diverged from golden (%d vs %d bytes)\ngot:  %.300s\nwant: %.300s",
						pass, label, len(got), len(want), got, want)
				}
			}
		})
	}
}

// arenaAllocBudget is the pinned steady-state allocation ceiling for one
// Arena.RunScenario of each benchmark-shaped scenario below (1 window,
// SkipAppCompute). The residual allocations are per-run by design — scenario
// materialization (catalog app construction, rate scaling; for A11 only its
// audio generator and recognizer, the trained model is shared), policy/mode
// maps, the stream plan, collect()'s result maps, and on a chaos run the
// fault arming (schedule parsing, the compiled engine and its per-target
// trigger state, the timed fault list, the per-window fault records), and on
// an edge run each upload's radio completion — NOT per-event or per-sample
// state: the event kernel, device stack, meter tracks, bookkeeping maps, and
// the batch and redo lists a crash wipes and re-reads are all revived in
// place. Measured on go1.24: 32 plain, 33
// metered, 35 heavy, 53 chaos, 69 edge; the budget leaves headroom for
// toolchain drift. Raising it means a hot path regressed; see
// TestFleetSweepAllocBudget for the gate on the full sweep.
const arenaAllocBudget = 100

// TestArenaSteadyStateAllocs pins the per-scenario allocation count of a
// warmed arena.
func TestArenaSteadyStateAllocs(t *testing.T) {
	meter := obs.Insitu(500)
	step := []apps.ID{apps.StepCounter}
	for _, tc := range []struct {
		name   string
		apps   []apps.ID
		scheme hub.Scheme
		meter  *obs.MeterModel
		faults string
	}{
		{"plain", step, hub.Batching, nil, ""},
		// The armed meter's sampling ticks, flush completions, and track all
		// come from pooled storage: observing a run must not buy allocations.
		{"metered", step, hub.Batching, &meter, ""},
		// The crash at 700 ms wipes 700 batched samples: their re-reads are
		// typed events and the batch and redo lists keep their storage.
		{"chaos", step, hub.Batching, nil, goldenChaos},
		// A11 shares one reference model: building the app must not render
		// and encode its keyword templates again.
		{"heavy", []apps.ID{apps.SpeechToTxt}, hub.Batching, nil, ""},
		// Radio bursts, edge jobs, the crash and its alive notification are
		// typed events: only the upload's radio completion is a func.
		{"edge", []apps.ID{apps.SpeechToTxt, apps.Earthquake}, hub.ECOM, nil, goldenChaos},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := hub.Scenario{
				Apps:           tc.apps,
				Scheme:         tc.scheme,
				Windows:        1,
				Seed:           7,
				Faults:         tc.faults,
				SkipAppCompute: true,
				Meter:          tc.meter,
			}
			arena := hub.NewArena()
			for i := 0; i < 3; i++ {
				if _, err := arena.RunScenario(s); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := arena.RunScenario(s); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > arenaAllocBudget {
				t.Errorf("steady-state RunScenario = %.0f allocs, budget %d", allocs, arenaAllocBudget)
			}
			t.Logf("steady-state RunScenario = %.0f allocs (budget %d)", allocs, arenaAllocBudget)
		})
	}
}
