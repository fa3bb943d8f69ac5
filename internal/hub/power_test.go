// Supply-ledger gates: the battery refactor is only legitimate while (a) a
// disarmed supply is byte-identical to the committed golden corpus, (b) an
// armed battery runs deterministically — through a reused arena, under
// seeded replay, and composed with injected chaos — and (c) the armed path
// stays within the arena's steady-state allocation budget.
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
	"iothub/internal/power"
)

// testSupply is a small armed supply with harvest income: enough charge that
// frugal runs finish, little enough that hungry ones brown out.
func testSupply() power.Supply {
	return power.Supply{
		Battery: power.Battery{CapacityMAh: 0.5, Volts: 3, DerateFraction: 1},
		Harvest: "const:w=0.12; solar:peak=0.9,period=4s,phase=1s",
	}
}

// TestBatteryAsymptoteGolden pins the nil-battery asymptote: a zero-value
// Supply (disarmed battery, no harvest) attached to every golden corpus entry
// must reproduce the committed result bytes exactly. This is the contract
// that makes the ledger a safe refactor of the hottest layer — mains-powered
// runs cannot tell the power runtime exists.
func TestBatteryAsymptoteGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".result.json"))
			if err != nil {
				t.Fatalf("missing golden corpus: %v", err)
			}
			cfg := obsConfig(t, tc.ids, tc.scheme, 2, nil)
			cfg.Power = &power.Supply{}
			if tc.chaos != "" {
				schedule, err := faults.ParseSchedule(tc.chaos)
				if err != nil {
					t.Fatal(err)
				}
				cfg.FaultSchedule = schedule
			}
			res, err := hub.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if !bytes.Equal(got, want) {
				t.Fatalf("disarmed supply diverged from golden (%d vs %d bytes)\ngot:  %.300s\nwant: %.300s",
					len(got), len(want), got, want)
			}
		})
	}
}

// TestArenaReuseBatteryArmed is the armed-battery variant of
// TestArenaReuseMatchesGolden: every corpus pairing runs with the test supply
// once fresh (hub.Run) and twice through one shared arena. All three must be
// byte-identical — renew() provably rewinds the whole ledger (SoC, brownout
// state, harvest level, redo queue) and the cached harvest trace compiles to
// the same steps every time.
func TestArenaReuseBatteryArmed(t *testing.T) {
	arena := hub.NewArena()
	sup := testSupply()
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			run := func(in func(hub.Config) (*hub.RunResult, error)) []byte {
				cfg := obsConfig(t, tc.ids, tc.scheme, 2, nil)
				cfg.Power = &sup
				if tc.chaos != "" {
					schedule, err := faults.ParseSchedule(tc.chaos)
					if err != nil {
						t.Fatal(err)
					}
					cfg.FaultSchedule = schedule
				}
				res, err := in(cfg)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}
			fresh := run(hub.Run)
			for pass, label := range []string{"after-other-scheme", "after-identical-run"} {
				reused := run(arena.Run)
				if !bytes.Equal(fresh, reused) {
					t.Fatalf("pass %d (%s): arena reuse diverged from fresh run\nfresh:  %.300s\nreused: %.300s",
						pass, label, fresh, reused)
				}
			}
		})
	}
}

// TestArenaSteadyStateAllocsBattery pins the armed-battery path to the same
// steady-state allocation budget as the plain arena: the ledger's settle
// ticks, harvest steps, and battery track must all come from pooled storage.
func TestArenaSteadyStateAllocsBattery(t *testing.T) {
	sup := testSupply()
	s := hub.Scenario{
		Apps:           []apps.ID{apps.StepCounter},
		Scheme:         hub.Batching,
		Windows:        1,
		Seed:           7,
		SkipAppCompute: true,
		Power:          &sup,
	}
	arena := hub.NewArena()
	for i := 0; i < 3; i++ {
		if _, err := runScenario(arena, s); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := runScenario(arena, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > arenaAllocBudget {
		t.Errorf("steady-state battery scenario run = %.0f allocs, budget %d", allocs, arenaAllocBudget)
	}
	t.Logf("steady-state battery scenario run = %.0f allocs (budget %d)", allocs, arenaAllocBudget)
}

// TestBrownoutUnderChaos composes the two ways an MCU can go down in one run:
// an injected mcu-crash fault and a physics brownout from SoC exhaustion. The
// gates: the run completes with both on the books, a crash landing during the
// brownout is absorbed rather than double-counted (one power gate, one reboot
// chain — never two), the sample ledger stays balanced through recollection,
// and a seeded replay is byte-identical.
func TestBrownoutUnderChaos(t *testing.T) {
	run := func() *hub.RunResult {
		cfg := obsConfig(t, []apps.ID{apps.StepCounter}, hub.Baseline, 2, nil)
		sup := testSupply()
		// ~2.2 J usable: the baseline step counter draws ~5.7 J over two
		// windows, so SoC hits zero mid-run; the 700 ms crash lands first.
		sup.Battery.CapacityMAh = 0.2
		cfg.Power = &sup
		schedule, err := faults.ParseSchedule(goldenChaos)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultSchedule = schedule
		res, err := hub.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Brownouts < 1 {
		t.Fatalf("expected a physics brownout, got %d (SoC %.3f J of %.3f J)",
			res.Brownouts, res.BatterySoCJ, res.BatteryCapacityJ)
	}
	if res.MCUCrashes < 1 {
		t.Fatalf("expected the injected MCU crash on the books, got %d", res.MCUCrashes)
	}
	// No double-reboot: each brownout opens exactly one gate interval, so
	// total downtime is bounded by the run past the first brownout, and a
	// brownout that never recharges must not report more gates than openings.
	if res.BrownoutTime <= 0 {
		t.Fatalf("%d brownouts with zero downtime", res.Brownouts)
	}
	if res.BrownoutTime > res.Duration {
		t.Fatalf("downtime %v exceeds run duration %v", res.BrownoutTime, res.Duration)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatalf("invariants after brownout+chaos: %v", err)
	}
	// Seeded replay: brownout physics composed with injected chaos is still a
	// pure function of the config.
	again := run()
	a, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("seeded replay diverged:\nfirst:  %.300s\nsecond: %.300s", a, b)
	}
}
