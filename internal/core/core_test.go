package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/hub"
	"iothub/internal/power"
)

func defaultApps(t *testing.T, ids ...apps.ID) []apps.App {
	t.Helper()
	out := make([]apps.App, 0, len(ids))
	for _, id := range ids {
		a, err := catalog.New(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

func TestClassifyLightAppsOffloadable(t *testing.T) {
	params := hub.DefaultParams()
	light, err := catalog.Light(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range light {
		cls, err := Classify(a.Spec(), params)
		if err != nil {
			t.Fatalf("%s: %v", a.Spec().ID, err)
		}
		if !cls.Offloadable {
			t.Errorf("%s not offloadable: %v", a.Spec().ID, cls.Reasons)
		}
	}
}

func TestClassifyHeavyAppGates(t *testing.T) {
	params := hub.DefaultParams()
	heavy := defaultApps(t, apps.SpeechToTxt)[0]
	cls, err := Classify(heavy.Spec(), params)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Offloadable {
		t.Fatal("A11 classified offloadable")
	}
	joined := strings.Join(cls.Reasons, "; ")
	for _, want := range []string{"heavy-weight", "exceeds MCU RAM", "QoS violation"} {
		if !strings.Contains(joined, want) {
			t.Errorf("reasons %q missing %q", joined, want)
		}
	}
}

func TestClassifyMemoryGate(t *testing.T) {
	params := hub.DefaultParams()
	spec := defaultApps(t, apps.JPEGDecoder)[0].Spec()
	params.MCU.ReservedBytes = params.MCU.RAMBytes - 32*1024 // 32 KB usable
	cls, err := Classify(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Offloadable {
		t.Error("A9 offloadable with 32 KB usable RAM")
	}
}

func TestClassifyQoSGate(t *testing.T) {
	params := hub.DefaultParams()
	params.MCU.BaseSlowdown = 4000 // absurdly slow MCU
	spec := defaultApps(t, apps.Heartbeat)[0].Spec()
	cls, err := Classify(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Offloadable {
		t.Error("A8 offloadable on a 4000x-slower MCU")
	}
	if !strings.Contains(strings.Join(cls.Reasons, ";"), "QoS") {
		t.Errorf("reasons = %v, want QoS gate", cls.Reasons)
	}
}

func TestPlanBCOMMixedWorkload(t *testing.T) {
	params := hub.DefaultParams()
	mix := defaultApps(t, apps.SpeechToTxt, apps.DropboxMgr, apps.CoAPServer)
	plan, err := PlanBCOM(mix, params)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme != hub.BCOM {
		t.Errorf("scheme = %v, want BCOM", plan.Scheme)
	}
	if plan.Assign[apps.SpeechToTxt] != hub.Batched {
		t.Errorf("A11 = %v, want Batched", plan.Assign[apps.SpeechToTxt])
	}
	if plan.Assign[apps.DropboxMgr] != hub.Offloaded || plan.Assign[apps.CoAPServer] != hub.Offloaded {
		t.Errorf("light apps = %v/%v, want Offloaded",
			plan.Assign[apps.DropboxMgr], plan.Assign[apps.CoAPServer])
	}
	// The plan must be directly runnable.
	res, err := hub.Run(hub.Config{Apps: mix, Scheme: plan.Scheme, Assign: plan.Assign, Windows: 2})
	if err != nil {
		t.Fatalf("plan not runnable: %v", err)
	}
	if res.QoSViolations != 0 {
		t.Errorf("planned run violated QoS %d times", res.QoSViolations)
	}
}

func TestPlanBCOMAllLightBecomesCOM(t *testing.T) {
	plan, err := PlanBCOM(defaultApps(t, apps.StepCounter, apps.Earthquake), hub.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme != hub.COM {
		t.Errorf("scheme = %v, want COM", plan.Scheme)
	}
}

func TestPlanBCOMAllHeavyBecomesBatching(t *testing.T) {
	plan, err := PlanBCOM(defaultApps(t, apps.SpeechToTxt), hub.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme != hub.Batching {
		t.Errorf("scheme = %v, want Batching", plan.Scheme)
	}
}

func TestPlanBCOMRespectsMCUBudget(t *testing.T) {
	params := hub.DefaultParams()
	params.MCU.BaseSlowdown = 190 // 10x slower MCU: not everything fits
	mix := defaultApps(t, apps.CoAPServer, apps.M2X, apps.Heartbeat, apps.Earthquake)
	plan, err := PlanBCOM(mix, params)
	if err != nil {
		t.Fatal(err)
	}
	offloaded := 0
	var budget float64
	for id, m := range plan.Assign {
		if m == hub.Offloaded {
			offloaded++
			budget += plan.Classifications[id].MCUBusyPerWindow.Seconds()
		}
	}
	if offloaded == len(mix) {
		t.Error("all apps offloaded despite a 190x-slower MCU")
	}
	if budget > 1.0 {
		t.Errorf("offloaded MCU busy %.2fs exceeds the 1s window", budget)
	}
}

func TestPlanBCOMEmpty(t *testing.T) {
	if _, err := PlanBCOM(nil, hub.DefaultParams()); err == nil {
		t.Error("empty plan accepted")
	}
}

// TestEstimateTracksSimulator validates the analytic model against the full
// simulator for the single-app scenarios of Fig. 10: all ten light apps
// under Baseline, Batching and COM, within 20%. The widest gaps today are
// A3 Baseline (-18.7%), A3 COM (-16.7%) and A2 COM (-13.0%).
func TestEstimateTracksSimulator(t *testing.T) {
	params := hub.DefaultParams()
	for _, id := range catalog.LightIDs {
		a := defaultApps(t, id)[0]
		est, err := Estimate(a.Spec(), params)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		measure := func(scheme hub.Scheme) float64 {
			res, err := hub.Run(hub.Config{
				Apps: defaultApps(t, id), Scheme: scheme, Windows: 3, SkipAppCompute: true,
			})
			if err != nil {
				t.Fatalf("%s %v: %v", id, scheme, err)
			}
			return res.TotalJoules() / 3
		}
		cases := []struct {
			name string
			est  float64
			sim  float64
		}{
			{"baseline", est.BaselineJoules, measure(hub.Baseline)},
			{"batching", est.BatchingJoules, measure(hub.Batching)},
			{"com", est.COMJoules, measure(hub.COM)},
		}
		for _, c := range cases {
			if rel := (c.est - c.sim) / c.sim; math.Abs(rel) > 0.20 {
				t.Errorf("%s %s: estimate %.3f J vs sim %.3f J (%+.1f%%)",
					id, c.name, c.est, c.sim, rel*100)
			}
		}
	}
}

func TestEstimateSavingsOrdering(t *testing.T) {
	params := hub.DefaultParams()
	est, err := Estimate(defaultApps(t, apps.StepCounter)[0].Spec(), params)
	if err != nil {
		t.Fatal(err)
	}
	if !(est.COMSaving() > est.BatchingSaving() && est.BatchingSaving() > 0) {
		t.Errorf("savings ordering: batching=%.2f com=%.2f", est.BatchingSaving(), est.COMSaving())
	}
}

func TestLifetimeOrdering(t *testing.T) {
	spec := defaultApps(t, apps.StepCounter)[0].Spec()
	life, err := Lifetime(spec, hub.DefaultParams(), TypicalPowerBank())
	if err != nil {
		t.Fatal(err)
	}
	if !(life.COM > life.Batching && life.Batching > life.Baseline) {
		t.Errorf("lifetime ordering: base=%v bat=%v com=%v", life.Baseline, life.Batching, life.COM)
	}
	// Sanity magnitudes: a 153 kJ pack at ~2.8 W baseline lasts ~15 h; COM
	// stretches that several-fold.
	if life.Baseline < 8*time.Hour || life.Baseline > 30*time.Hour {
		t.Errorf("baseline lifetime = %v, want ~15h", life.Baseline)
	}
	if life.COM < 2*life.Baseline {
		t.Errorf("COM lifetime %v not at least 2x baseline %v", life.COM, life.Baseline)
	}
}

func TestLifetimeBadBattery(t *testing.T) {
	spec := defaultApps(t, apps.StepCounter)[0].Spec()
	if _, err := Lifetime(spec, hub.DefaultParams(), power.Battery{}); err == nil {
		t.Error("zero battery accepted")
	}
}

// TestPlanBCOMRecoversOversubscribedMix: the ten-app concurrent mix
// oversubscribes both the CPU's interrupt path and the link under Baseline
// and even under Batching (its raw data volume exceeds the link bandwidth).
// The planner moves the heaviest interrupters onto the MCU until its budget
// fills; the data they would have shipped never crosses the link, restoring
// feasibility.
func TestPlanBCOMRecoversOversubscribedMix(t *testing.T) {
	mix, err := catalog.Light(1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanBCOM(mix, hub.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	offloaded, batched := 0, 0
	for _, m := range plan.Assign {
		switch m {
		case hub.Offloaded:
			offloaded++
		case hub.Batched:
			batched++
		}
	}
	if offloaded == 0 {
		t.Fatal("planner offloaded nothing")
	}
	if batched == 0 {
		t.Fatal("planner fit all ten apps on the MCU; its time budget should not allow that")
	}
	cfg := hub.Config{
		Apps: mix, Scheme: plan.Scheme, Assign: plan.Assign, Windows: 3, SkipAppCompute: true,
	}
	if plan.Scheme != hub.BCOM {
		t.Fatalf("scheme = %v, want BCOM for a mixed partition", plan.Scheme)
	}
	res, err := hub.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := hub.Run(hub.Config{Apps: mix, Scheme: hub.Baseline, Windows: 3, SkipAppCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.QoSViolations >= base.QoSViolations {
		t.Errorf("planned run violations %d not below baseline %d",
			res.QoSViolations, base.QoSViolations)
	}
	if res.TotalJoules() >= base.TotalJoules() {
		t.Error("planned run did not save energy")
	}
}
