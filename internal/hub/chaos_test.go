package hub

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"iothub/internal/apps"
	"iothub/internal/energy"
	"iothub/internal/faults"
	"iothub/internal/link"
	"iothub/internal/sensor"
)

// TestChaosZeroScheduleByteIdentical: attaching an empty fault schedule must
// not perturb a single bit of the result — the fault-free fast paths are the
// exact fault-free code.
func TestChaosZeroScheduleByteIdentical(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, Batching, COM} {
		clean := mustRun(t, Config{Apps: newApps(t, apps.Heartbeat), Scheme: scheme, Windows: 2})
		armed := mustRun(t, Config{
			Apps: newApps(t, apps.Heartbeat), Scheme: scheme, Windows: 2,
			FaultSchedule: &faults.Schedule{Seed: 99},
		})
		if !reflect.DeepEqual(clean, armed) {
			t.Errorf("%v: empty schedule changed the run result", scheme)
		}
		if armed.WindowFaults != nil {
			t.Errorf("%v: fault-free run allocated WindowFaults", scheme)
		}
	}
}

// TestChaosDeterministicPerSeed: a full chaos mix replays bit-identically
// from the same seed.
func TestChaosDeterministicPerSeed(t *testing.T) {
	cfg := func() Config {
		return Config{
			Apps: newApps(t, apps.StepCounter), Scheme: Batching, Windows: 2,
			FaultSchedule: &faults.Schedule{Seed: 7, Rules: []faults.Rule{
				{Kind: faults.LinkCorrupt, Target: "link", Trigger: faults.Trigger{Prob: 0.05}},
				{Kind: faults.LinkLoss, Target: "link", Trigger: faults.Trigger{EveryNth: 50}},
				{Kind: faults.MCUCrash, Target: "mcu",
					Trigger:  faults.Trigger{At: []time.Duration{700 * time.Millisecond}},
					Duration: 80 * time.Millisecond},
				{Kind: faults.SensorSlow, Trigger: faults.Trigger{EveryNth: 100}, Factor: 3},
				{Kind: faults.SensorStuck, Trigger: faults.Trigger{EveryNth: 97}},
				{Kind: faults.RadioOutage, Target: "radio:main",
					Trigger:  faults.Trigger{At: []time.Duration{900 * time.Millisecond}},
					Duration: 300 * time.Millisecond},
			}},
		}
	}
	a, b := mustRun(t, cfg()), mustRun(t, cfg())
	if !reflect.DeepEqual(a, b) {
		t.Error("identical seeds produced different chaos runs")
	}
	if a.MCUCrashes != 1 {
		t.Errorf("crashes = %d, want 1", a.MCUCrashes)
	}
	if a.LinkRetransmits == 0 || a.SlowReads == 0 || a.StuckSamples == 0 {
		t.Errorf("fault mix underfired: retx=%d slow=%d stuck=%d",
			a.LinkRetransmits, a.SlowReads, a.StuckSamples)
	}
	if a.RecollectedSamples == 0 {
		t.Error("mid-window crash recollected nothing")
	}
}

// TestChaosLinkRetriesCostEnergy: every retransmission occupies the wire and
// shows up as extra transfer energy — corrupted frames do not travel free.
func TestChaosLinkRetriesCostEnergy(t *testing.T) {
	clean := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 1, SkipAppCompute: true,
	})
	faulty := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 1, SkipAppCompute: true,
		FaultSchedule: &faults.Schedule{Seed: 1, Rules: []faults.Rule{
			{Kind: faults.LinkCorrupt, Target: "link", Trigger: faults.Trigger{EveryNth: 4}},
		}},
	})
	if faulty.LinkRetransmits == 0 || faulty.LinkCorruptFrames != faulty.LinkRetransmits {
		t.Errorf("retx = %d, corrupt = %d; want equal and positive",
			faulty.LinkRetransmits, faulty.LinkCorruptFrames)
	}
	if faulty.LinkAbortedTransfers != 0 {
		t.Errorf("aborted = %d; a single retry always recovers an every-4th fault",
			faulty.LinkAbortedTransfers)
	}
	if faulty.Energy[energy.DataTransfer] <= clean.Energy[energy.DataTransfer] {
		t.Errorf("transfer energy %.4f J with retransmissions not above clean %.4f J",
			faulty.Energy[energy.DataTransfer], clean.Energy[energy.DataTransfer])
	}
	if got := len(faulty.Outputs[apps.StepCounter]); got != 1 {
		t.Errorf("outputs = %d, want 1", got)
	}
}

// TestChaosLinkLossAbortsPastRetryBudget: a wire that swallows every frame
// exhausts the retry budget; windows complete on the samples that never
// arrived (expectation shrinks, exactly like collection-stage drops).
func TestChaosLinkLossAbortsPastRetryBudget(t *testing.T) {
	res := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 1, SkipAppCompute: true,
		FaultSchedule: &faults.Schedule{Seed: 1, Rules: []faults.Rule{
			{Kind: faults.LinkLoss, Target: "link", Trigger: faults.Trigger{EveryNth: 1}},
		}},
		Resilience: &ResiliencePolicy{
			LinkRetry: link.RetryPolicy{MaxRetries: 1, Backoff: 100 * time.Microsecond, Factor: 2},
		},
	})
	if res.LinkAbortedTransfers != 1000 {
		t.Errorf("aborted transfers = %d, want 1000 (every sample)", res.LinkAbortedTransfers)
	}
	if res.LinkLostFrames != 2000 {
		t.Errorf("lost frames = %d, want 2000 (first try + one retry each)", res.LinkLostFrames)
	}
	if got := len(res.Outputs[apps.StepCounter]); got != 1 {
		t.Errorf("outputs = %d, want 1 (window completes despite total loss)", got)
	}
}

// TestChaosMCUCrashRecollectsBatch: a reboot wipes the in-RAM batch; the hub
// rewinds the owning window's progress and re-collects, and the per-window
// accounting records where the damage landed.
func TestChaosMCUCrashRecollectsBatch(t *testing.T) {
	clean := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Batching, Windows: 2, SkipAppCompute: true,
	})
	res := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Batching, Windows: 2, SkipAppCompute: true,
		FaultSchedule: &faults.Schedule{Seed: 1, Rules: []faults.Rule{
			{Kind: faults.MCUCrash, Target: "mcu",
				Trigger:  faults.Trigger{At: []time.Duration{500 * time.Millisecond}},
				Duration: 50 * time.Millisecond},
		}},
	})
	if res.MCUCrashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.MCUCrashes)
	}
	if res.RecollectedSamples < 100 || res.RecollectedSamples > 1000 {
		t.Errorf("recollected = %d, want a mid-window batch worth", res.RecollectedSamples)
	}
	wf := res.WindowFaults[0]
	if wf == nil || wf.Crashes != 1 || wf.Recollected != res.RecollectedSamples {
		t.Errorf("window 0 fault record = %+v, want the crash and its re-collection", wf)
	}
	if got := len(res.Outputs[apps.StepCounter]); got != 2 {
		t.Errorf("outputs = %d, want 2", got)
	}
	// Re-collection re-runs sensor reads: collection energy must rise.
	if res.Energy[energy.DataCollection] <= clean.Energy[energy.DataCollection] {
		t.Error("re-collection after the crash cost no collection energy")
	}
}

// TestChaosWatchdogDegradesScheme: a crash long enough for the watchdog to
// observe walks every app one rung down the ladder (COM -> Batching) starting
// at the next window; in-flight windows keep their mode.
func TestChaosWatchdogDegradesScheme(t *testing.T) {
	res := mustRun(t, Config{
		Apps: newApps(t, apps.Heartbeat), Scheme: COM, Windows: 4,
		FaultSchedule: &faults.Schedule{Seed: 1, Rules: []faults.Rule{
			{Kind: faults.MCUCrash, Target: "mcu",
				Trigger:  faults.Trigger{At: []time.Duration{1100 * time.Millisecond}},
				Duration: 150 * time.Millisecond},
		}},
	})
	if len(res.Degradations) != 1 {
		t.Fatalf("degradations = %+v, want exactly one", res.Degradations)
	}
	d := res.Degradations[0]
	if d.App != apps.Heartbeat || d.From != Offloaded || d.To != Batched {
		t.Errorf("degradation = %+v, want Offloaded -> Batched", d)
	}
	if d.Window != 2 {
		t.Errorf("degradation from window %d, want 2 (crash lands in window 1)", d.Window)
	}
	if !strings.Contains(d.Reason, "watchdog") {
		t.Errorf("reason = %q, want the watchdog", d.Reason)
	}
	if res.WindowFaults[2].Degradations != 1 {
		t.Errorf("window 2 degradation count = %d", res.WindowFaults[2].Degradations)
	}
	if got := len(res.Outputs[apps.Heartbeat]); got != 4 {
		t.Errorf("outputs = %d, want 4 (all windows complete across the ladder step)", got)
	}
}

// TestChaosEdgeDegradesToLocal: the ladder's Uploaded rung falls back to
// local batching — after the watchdog observes a crash, later windows
// compute on the hub CPU, not on a tier the run just abandoned, and every
// window still produces an output.
func TestChaosEdgeDegradesToLocal(t *testing.T) {
	res := mustRun(t, Config{
		Apps: newApps(t, apps.SpeechToTxt), Scheme: ECOM, Windows: 4, SkipAppCompute: true,
		FaultSchedule: &faults.Schedule{Seed: 1, Rules: []faults.Rule{
			{Kind: faults.MCUCrash, Target: "mcu",
				Trigger:  faults.Trigger{At: []time.Duration{1100 * time.Millisecond}},
				Duration: 150 * time.Millisecond},
		}},
	})
	if len(res.Degradations) != 1 {
		t.Fatalf("degradations = %+v, want exactly one", res.Degradations)
	}
	d := res.Degradations[0]
	if d.App != apps.SpeechToTxt || d.From != Uploaded || d.To != Batched {
		t.Errorf("degradation = %+v, want Uploaded -> Batched", d)
	}
	if got := len(res.Outputs[apps.SpeechToTxt]); got != 4 {
		t.Errorf("outputs = %d, want 4 (degraded windows compute locally)", got)
	}
	// Only the pre-degradation windows reached the edge.
	if res.EdgeUploads >= 4 || res.EdgeUploads < 1 {
		t.Errorf("edge uploads = %d, want some but not all 4 windows", res.EdgeUploads)
	}
	if res.EdgeColdStarts != 1 {
		t.Errorf("cold starts = %d, want 1", res.EdgeColdStarts)
	}
}

// TestChaosOffloadRebootReentersBudgetCheck: an offloaded window whose
// computation an MCU reboot restarts must pass the planner's time-budget
// check again — and a long enough outage turns the re-check into a miss and
// a QoS violation.
func TestChaosOffloadRebootReentersBudgetCheck(t *testing.T) {
	noDegrade := func() *ResiliencePolicy {
		return &ResiliencePolicy{
			LinkRetry:      link.RetryPolicy{MaxRetries: 3, Backoff: 500 * time.Microsecond, Factor: 2},
			DegradeOnCrash: false,
		}
	}
	crashFor := func(d time.Duration) *faults.Schedule {
		return &faults.Schedule{Seed: 1, Rules: []faults.Rule{
			{Kind: faults.MCUCrash, Target: "mcu",
				Trigger:  faults.Trigger{At: []time.Duration{1100 * time.Millisecond}},
				Duration: d},
		}}
	}

	// Short reboot: window 0's computation (in flight at 1.1s) restarts and
	// re-enters the check; the deadline still holds.
	res := mustRun(t, Config{
		Apps: newApps(t, apps.Heartbeat), Scheme: COM, Windows: 2,
		FaultSchedule: crashFor(50 * time.Millisecond), Resilience: noDegrade(),
	})
	if res.OffloadBudgetChecks != 3 {
		t.Errorf("budget checks = %d, want 3 (two dispatches + one post-reboot re-check)",
			res.OffloadBudgetChecks)
	}
	if res.OffloadBudgetMisses != 0 || res.QoSViolations != 0 {
		t.Errorf("misses = %d, QoS violations = %d; a 50 ms reboot fits the deadline",
			res.OffloadBudgetMisses, res.QoSViolations)
	}
	if got := len(res.Outputs[apps.Heartbeat]); got != 2 {
		t.Errorf("outputs = %d, want 2 (computation survives the reboot)", got)
	}

	// A reboot outlasting the deadline: the re-check flags the miss and the
	// late window lands as a QoS violation.
	late := mustRun(t, Config{
		Apps: newApps(t, apps.Heartbeat), Scheme: COM, Windows: 2,
		FaultSchedule: crashFor(2500 * time.Millisecond), Resilience: noDegrade(),
	})
	if late.OffloadBudgetMisses == 0 {
		t.Error("2.5 s reboot: budget re-check flagged no miss")
	}
	if late.QoSViolations == 0 {
		t.Error("2.5 s reboot: no QoS violation recorded")
	}
	if got := len(late.Outputs[apps.Heartbeat]); got != 2 {
		t.Errorf("outputs = %d, want 2 (late, but delivered)", got)
	}
}

// TestChaosOffloadRebootBudgetCheckBCOM: the budget re-check also covers the
// mixed BCOM partition — only the offloaded app's in-flight window re-enters
// it (the crash at 1.02 s lands inside dropboxmgr's window-0 computation).
func TestChaosOffloadRebootBudgetCheckBCOM(t *testing.T) {
	res := mustRun(t, Config{
		Apps:   newApps(t, apps.SpeechToTxt, apps.DropboxMgr),
		Scheme: BCOM,
		Assign: map[apps.ID]Mode{
			apps.SpeechToTxt: Batched,
			apps.DropboxMgr:  Offloaded,
		},
		Windows: 2,
		FaultSchedule: &faults.Schedule{Seed: 1, Rules: []faults.Rule{
			{Kind: faults.MCUCrash, Target: "mcu",
				Trigger:  faults.Trigger{At: []time.Duration{1020 * time.Millisecond}},
				Duration: 50 * time.Millisecond},
		}},
		Resilience: &ResiliencePolicy{DegradeOnCrash: false},
	})
	if res.MCUCrashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.MCUCrashes)
	}
	if res.OffloadBudgetChecks != 3 {
		t.Errorf("budget checks = %d, want 3 (dropboxmgr: two dispatches + re-check)",
			res.OffloadBudgetChecks)
	}
	for _, id := range []apps.ID{apps.SpeechToTxt, apps.DropboxMgr} {
		if got := len(res.Outputs[id]); got != 2 {
			t.Errorf("%s outputs = %d, want 2", id, got)
		}
	}
}

// TestChaosRadioOutageDefersAndDrops: bursts submitted during an uplink
// outage wait in the driver queue; a bounded queue drops the overflow and
// accounts every byte.
func TestChaosRadioOutageDefersAndDrops(t *testing.T) {
	outage := &faults.Schedule{Seed: 1, Rules: []faults.Rule{
		{Kind: faults.RadioOutage, Target: "radio:main",
			Trigger:  faults.Trigger{At: []time.Duration{900 * time.Millisecond}},
			Duration: 1500 * time.Millisecond},
	}}
	deferred := mustRun(t, Config{
		Apps: newApps(t, apps.ArduinoJSON), Scheme: Baseline, Windows: 2,
		FaultSchedule: outage,
	})
	if deferred.UpstreamBytes == 0 {
		t.Fatal("no upstream traffic to disturb")
	}
	if deferred.RadioDeferred != 2 {
		t.Errorf("deferred bursts = %d, want 2 (both window uplinks inside the outage)",
			deferred.RadioDeferred)
	}
	if deferred.RadioDroppedBursts != 0 {
		t.Errorf("dropped = %d with the default 4 KB buffer", deferred.RadioDroppedBursts)
	}

	dropped := mustRun(t, Config{
		Apps: newApps(t, apps.ArduinoJSON), Scheme: Baseline, Windows: 2,
		FaultSchedule: outage,
		Resilience:    &ResiliencePolicy{RadioBufferBytes: 100},
	})
	if dropped.RadioDroppedBursts != 2 {
		t.Errorf("dropped bursts = %d, want 2 (100 B queue holds neither document)",
			dropped.RadioDroppedBursts)
	}
	if dropped.RadioDroppedBytes != dropped.UpstreamBytes {
		t.Errorf("dropped %d of %d upstream bytes, want all of them",
			dropped.RadioDroppedBytes, dropped.UpstreamBytes)
	}
}

// TestChaosRetryBudgetDownshiftsRate: blowing the per-window retry budget
// halves the stream's remaining rate for that window, trading samples for
// the deadline; the sample ledger still balances (checked by Run itself).
func TestChaosRetryBudgetDownshiftsRate(t *testing.T) {
	res := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 2, SkipAppCompute: true,
		FaultSchedule: sensorFail(sensor.Accelerometer, 5),
		Resilience: &ResiliencePolicy{
			LinkRetry:            link.RetryPolicy{MaxRetries: 3, Backoff: 500 * time.Microsecond, Factor: 2},
			RetryBudgetPerWindow: 10,
		},
	})
	if res.RateDownshifts != 2 {
		t.Errorf("downshifts = %d, want 2 (one per window)", res.RateDownshifts)
	}
	if res.DownshiftSkipped < 100 {
		t.Errorf("skipped = %d, want a few hundred (every other remaining sample)",
			res.DownshiftSkipped)
	}
	if got := len(res.Outputs[apps.StepCounter]); got != 2 {
		t.Errorf("outputs = %d, want 2", got)
	}
}

// TestChaosBEAMSharedRetryCostOnce: under BEAM two apps share one physical
// accelerometer stream; a failed read's retry must charge the re-read work
// once, not once per subscriber. The MCU's per-read formatting time is the
// exact per-attempt cost (sensor-track wattage overlaps between back-to-back
// reads, so busy time is the unambiguous ledger).
func TestChaosBEAMSharedRetryCostOnce(t *testing.T) {
	collectBusy := func(res *RunResult) time.Duration {
		return res.MCUBusy[energy.DataCollection]
	}
	pair := func() []apps.App { return newApps(t, apps.StepCounter, apps.Earthquake) }

	soloClean := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 2, SkipAppCompute: true,
	})
	soloFaulty := mustRun(t, Config{
		Apps: newApps(t, apps.StepCounter), Scheme: Baseline, Windows: 2, SkipAppCompute: true,
		FaultSchedule: sensorFail(sensor.Accelerometer, 10),
	})
	beamClean := mustRun(t, Config{
		Apps: pair(), Scheme: BEAM, Windows: 2, SkipAppCompute: true,
	})
	beamFaulty := mustRun(t, Config{
		Apps: pair(), Scheme: BEAM, Windows: 2, SkipAppCompute: true,
		FaultSchedule: sensorFail(sensor.Accelerometer, 10),
	})

	// The shared stream sees the same attempt sequence as the solo one, so
	// the retry count matches — it is per physical read, not per subscriber.
	if beamFaulty.ReadRetries == 0 || beamFaulty.ReadRetries != soloFaulty.ReadRetries {
		t.Errorf("BEAM retries = %d, solo retries = %d; want equal and positive",
			beamFaulty.ReadRetries, soloFaulty.ReadRetries)
	}
	soloCost := collectBusy(soloFaulty) - collectBusy(soloClean)
	beamCost := collectBusy(beamFaulty) - collectBusy(beamClean)
	if soloCost <= 0 {
		t.Fatalf("solo retry cost = %v, want positive", soloCost)
	}
	if beamCost != soloCost {
		t.Errorf("shared-stream retry cost %v != solo cost %v (charged per subscriber?)",
			beamCost, soloCost)
	}
}
