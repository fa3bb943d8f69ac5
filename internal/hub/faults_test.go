package hub

import (
	"math"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/energy"
	"iothub/internal/faults"
	"iothub/internal/sensor"
)

// sensorFail is the schedule failing every nth read of sensor id; an empty id
// fails every nth read of each sensor.
func sensorFail(id sensor.ID, n int) *faults.Schedule {
	return &faults.Schedule{Rules: []faults.Rule{{
		Kind: faults.SensorFail, Target: string(id), Trigger: faults.Trigger{EveryNth: n},
	}}}
}

func TestFaultsTransientRetriesSucceed(t *testing.T) {
	// Every 10th read attempt fails; one retry recovers it (the retry is
	// the 11th, 21st, ... attempt, which passes). No samples are lost.
	res := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 2,
		FaultSchedule: sensorFail(sensor.Accelerometer, 10),
	})
	if res.ReadRetries == 0 {
		t.Fatal("no retries recorded")
	}
	// Most failures are transient (the retry succeeds); retries that
	// interleave onto another failing attempt number drop, rarely.
	if res.DroppedSamples > 10 {
		t.Errorf("dropped = %d, want nearly all recovered", res.DroppedSamples)
	}
	// Every sample is either delivered (one interrupt) or dropped.
	if res.Interrupts+res.DroppedSamples != 2000 {
		t.Errorf("interrupts %d + dropped %d != 2000", res.Interrupts, res.DroppedSamples)
	}
	if got := len(res.Outputs[apps.StepCounter]); got != 2 {
		t.Errorf("outputs = %d, want 2", got)
	}
}

func TestFaultsRetriesCostEnergy(t *testing.T) {
	clean := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 2, SkipAppCompute: true,
	})
	faulty := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 2, SkipAppCompute: true,
		FaultSchedule: sensorFail(sensor.Accelerometer, 5),
	})
	cleanColl := clean.Energy[energy.DataCollection]
	faultyColl := faulty.Energy[energy.DataCollection]
	if faultyColl <= cleanColl {
		t.Errorf("collection energy with retries %.4f J not above clean %.4f J",
			faultyColl, cleanColl)
	}
}

func TestFaultsPersistentFailureDropsSamples(t *testing.T) {
	// Every attempt fails: each sample burns two attempts (the read and its
	// one re-read) and is dropped; windows still complete with zero
	// delivered samples.
	res := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 1, SkipAppCompute: true,
		FaultSchedule: sensorFail(sensor.Accelerometer, 1),
	})
	if res.DroppedSamples != 1000 {
		t.Errorf("dropped = %d, want 1000", res.DroppedSamples)
	}
	if res.ReadRetries != 1000 {
		t.Errorf("retries = %d, want 1000 (one per sample)", res.ReadRetries)
	}
	if res.Interrupts != 0 {
		t.Errorf("interrupts = %d, want 0 (nothing delivered)", res.Interrupts)
	}
	// The window still completes (compute runs on the empty buffer).
	if got := len(res.Outputs[apps.StepCounter]); got != 1 {
		t.Errorf("outputs = %d, want 1", got)
	}
}

func TestFaultsBatchingCompletesWithDrops(t *testing.T) {
	res := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Batching, Windows: 2, SkipAppCompute: true,
		FaultSchedule: sensorFail(sensor.Accelerometer, 7),
	})
	// Retries interleave with other in-flight reads, so a retry can itself
	// land on a failing attempt number — occasional drops are expected.
	if res.DroppedSamples > 10 {
		t.Errorf("dropped = %d, want nearly all samples recovered", res.DroppedSamples)
	}
	if res.BatchFlushes != 2 {
		t.Errorf("flushes = %d, want 2", res.BatchFlushes)
	}
}

func TestFaultsOffloadedCompletesWithPersistentDrops(t *testing.T) {
	res := mustRun(t, Config{
		Apps: newApps(t, apps.Heartbeat), Scheme: COM, Windows: 2, SkipAppCompute: true,
		FaultSchedule: sensorFail(sensor.Pulse, 2),
	})
	// Attempts 2,4,6... fail; a failed sample retries on the next attempt
	// number. Some retries land on even numbers again and drop.
	if res.DroppedSamples == 0 {
		t.Fatal("expected drops with every-2nd-attempt failures")
	}
	if got := len(res.Outputs[apps.Heartbeat]); got != 2 {
		t.Errorf("outputs = %d, want 2 (windows complete despite drops)", got)
	}
}

func TestFaultsOnlyNamedSensor(t *testing.T) {
	// Faulting the barometer must not disturb the temperature stream.
	res := mustRun(t, Config{
		Apps: newApps(t, apps.ArduinoJSON), Scheme: Baseline, Windows: 2,
		FaultSchedule: sensorFail(sensor.Barometer, 1),
	})
	// Barometer: 10 samples/window dropped after 1 retry each.
	if res.DroppedSamples != 20 {
		t.Errorf("dropped = %d, want 20", res.DroppedSamples)
	}
	// Temperature deliveries still interrupt: 10 per window.
	if res.Interrupts != 20 {
		t.Errorf("interrupts = %d, want 20", res.Interrupts)
	}
}

// TestFaultsCountPerSensor: a sensor-fail trigger counts the reads of its
// sensor, not of one stream. A2 and A7 each read the accelerometer 1,000
// times a window on streams of their own, so every=1500 fires once over the
// pair's 2,000 reads, where a per-stream count would never reach 1,500.
func TestFaultsCountPerSensor(t *testing.T) {
	run := func(ids ...apps.ID) *RunResult {
		return mustRun(t, Config{
			Apps: newApps(t, ids...), Scheme: Baseline, Windows: 1, SkipAppCompute: true,
			FaultSchedule: sensorFail("", 1500),
		})
	}
	if solo := run(apps.StepCounter); solo.ReadRetries != 0 {
		t.Errorf("A2 alone: retries = %d, want 0 (1,000 reads never reach 1,500)", solo.ReadRetries)
	}
	pair := run(apps.StepCounter, apps.Earthquake)
	if pair.ReadRetries != 1 || pair.DroppedSamples != 0 {
		t.Errorf("A2+A7: retries = %d, dropped = %d, want 1 and 0 (the 1,500th accelerometer read fails once)",
			pair.ReadRetries, pair.DroppedSamples)
	}
}

// TestDeterminism: identical configs produce bit-identical energy and
// statistics — the property that makes every experiment reproducible.
func TestDeterminism(t *testing.T) {
	make := func() *RunResult {
		return mustRun(t, Config{
			Apps: newApps(t, apps.StepCounter, apps.M2X), Scheme: BEAM, Windows: 2,
		})
	}
	a, b := make(), make()
	if a.TotalJoules() != b.TotalJoules() {
		t.Errorf("energy differs: %v vs %v", a.TotalJoules(), b.TotalJoules())
	}
	if a.Interrupts != b.Interrupts || a.BytesTransferred != b.BytesTransferred {
		t.Error("statistics differ between identical runs")
	}
	for _, r := range energy.Routines {
		if a.Energy[r] != b.Energy[r] {
			t.Errorf("routine %v differs", r)
		}
	}
}

// TestEnergyConservation: the meter total equals the sum over components.
func TestEnergyConservation(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, Batching, COM, BEAM} {
		ids := []apps.ID{apps.StepCounter, apps.Earthquake}
		res := mustRun(t, Config{Apps: newApps(t, ids...), Scheme: scheme, Windows: 2})
		var byComponent float64
		for _, b := range res.PerComponent {
			byComponent += b.Total()
		}
		if diff := math.Abs(byComponent - res.TotalJoules()); diff > 1e-9 {
			t.Errorf("%v: component sum %.6f != total %.6f", scheme, byComponent, res.TotalJoules())
		}
	}
}

// TestWorkConservation: every scheduled sample is accounted for exactly once
// (delivered, batched, consumed by the offloaded app, or dropped).
func TestWorkConservation(t *testing.T) {
	res := mustRun(t, Config{
		Apps: newApps(t, apps.M2X), Scheme: Baseline, Windows: 3, SkipAppCompute: true,
		FaultSchedule: sensorFail(sensor.Light, 4),
	})
	scheduled := 3 * 2220
	// Light stream: attempts 4, 8, ... fail. Retries happen; some drop.
	accounted := res.Interrupts + res.DroppedSamples
	if accounted != scheduled {
		t.Errorf("accounted = %d (interrupts %d + dropped %d), want %d",
			accounted, res.Interrupts, res.DroppedSamples, scheduled)
	}
}
