package experiments

import "testing"

func TestAblationsListAndByID(t *testing.T) {
	abls := Ablations()
	if len(abls) != 11 {
		t.Fatalf("ablations = %d, want 11", len(abls))
	}
	for _, e := range abls {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s): %v", e.ID, err)
		}
	}
}

func TestAblBatchRAMResilience(t *testing.T) {
	res := mustRun(t, AblBatchRAM)
	// One window of M2X data is 20.5 KB: with 32 KB usable there is exactly
	// one flush per window; with 1 KB many.
	if res.Values["flushes:32KB"] != 1 {
		t.Errorf("flushes at 32KB = %v, want 1", res.Values["flushes:32KB"])
	}
	if res.Values["flushes:1KB"] < 10 {
		t.Errorf("flushes at 1KB = %v, want many", res.Values["flushes:1KB"])
	}
	// The headline finding: savings degrade only mildly under RAM pressure
	// because the CPU still sleeps between flushes.
	drop := res.Values["saving:32KB"] - res.Values["saving:1KB"]
	if drop < 0 || drop > 0.15 {
		t.Errorf("saving drop from 32KB to 1KB = %.3f, want small and nonnegative", drop)
	}
}

func TestAblLinkBandwidthTrends(t *testing.T) {
	res := mustRun(t, AblLinkBandwidth)
	// Batching's edge grows with bandwidth (the bulk transfer shrinks while
	// the baseline's per-sample framing overhead remains).
	if res.Values["batching:29KBps"] >= res.Values["batching:936KBps"] {
		t.Errorf("batching saving not increasing with bandwidth: %.2f vs %.2f",
			res.Values["batching:29KBps"], res.Values["batching:936KBps"])
	}
	// COM stays high everywhere — it eliminates the transfer entirely.
	for _, key := range []string{"com:29KBps", "com:117KBps", "com:936KBps"} {
		if res.Values[key] < 0.7 {
			t.Errorf("%s = %.2f, want >= 0.7", key, res.Values[key])
		}
	}
}

func TestAblGovernorSleepDominates(t *testing.T) {
	res := mustRun(t, AblGovernor)
	with := res.Values["withSleep"]
	without := res.Values["withoutSleep"]
	if without >= with {
		t.Fatalf("disabling sleep did not reduce savings: %.2f vs %.2f", without, with)
	}
	// The paper's §III-A split for the step counter: ~50 points from
	// sleeping vs ~13 from interrupt elimination. Sleep must contribute
	// more than half of the total saving.
	if with-without < with/2 {
		t.Errorf("sleep contributes %.2f of %.2f, want > half", with-without, with)
	}
	if without < 0.05 {
		t.Errorf("interrupt amortization alone = %.2f, want > 0.05", without)
	}
}

func TestAblMCUSlowdownMonotone(t *testing.T) {
	res := mustRun(t, AblMCUSlowdown)
	if res.Values["avg:5x"] <= res.Values["avg:160x"] {
		t.Error("speedup not decreasing with MCU slowdown")
	}
	if res.Values["slower:5x"] != 0 {
		t.Errorf("apps slower at 5x = %v, want 0", res.Values["slower:5x"])
	}
	if res.Values["slower:160x"] < 3 {
		t.Errorf("apps slower at 160x = %v, want >= 3", res.Values["slower:160x"])
	}
	// At the paper's 19x, exactly A3 and A8 are slower (Fig. 13).
	if res.Values["slower:19x"] != 2 {
		t.Errorf("apps slower at 19x = %v, want 2", res.Values["slower:19x"])
	}
}

func TestAblFaultsOverheadGrows(t *testing.T) {
	res := mustRun(t, AblFaults)
	// No faults: no retries, no drops.
	if res.Values["retries:0"] != 0 || res.Values["dropped:0"] != 0 {
		t.Errorf("clean run has retries=%v dropped=%v",
			res.Values["retries:0"], res.Values["dropped:0"])
	}
	// Collection energy grows monotonically with the failure rate.
	if !(res.Values["collection:0"] < res.Values["collection:10"] &&
		res.Values["collection:10"] < res.Values["collection:1"]) {
		t.Errorf("collection energy not increasing: %.4f, %.4f, %.4f",
			res.Values["collection:0"], res.Values["collection:10"], res.Values["collection:1"])
	}
	// Persistent failure (every attempt) drops the whole window.
	if res.Values["dropped:1"] != 1000 {
		t.Errorf("dropped at every=1 = %v, want 1000", res.Values["dropped:1"])
	}
}

func TestAblChaosScenarios(t *testing.T) {
	res := mustRun(t, AblChaos)
	// The clean scenario is its own reference: zero energy delta, everything
	// delivered, nothing injected.
	if res.Values["delta:clean"] != 0 || res.Values["delivered:clean"] != 1 {
		t.Errorf("clean row: delta=%v delivered=%v, want 0 and 1",
			res.Values["delta:clean"], res.Values["delivered:clean"])
	}
	// Link corruption retransmits and costs energy; adding loss costs more.
	if res.Values["retx:corrupt"] == 0 || res.Values["delta:corrupt"] <= 0 {
		t.Errorf("corrupt row: retx=%v delta=%v, want both positive",
			res.Values["retx:corrupt"], res.Values["delta:corrupt"])
	}
	if res.Values["delta:corruptloss"] <= res.Values["delta:corrupt"] {
		t.Errorf("loss on top of corruption cheaper: %v vs %v",
			res.Values["delta:corruptloss"], res.Values["delta:corrupt"])
	}
	// Slow reads keep the sensor powered longer.
	if res.Values["delta:sensor"] <= 0 {
		t.Errorf("sensor row delta = %v, want positive", res.Values["delta:sensor"])
	}
	// The crash reboots once and the watchdog walks the ladder.
	if res.Values["crashes:crash"] != 1 || res.Values["degraded:crash"] < 1 {
		t.Errorf("crash row: crashes=%v degraded=%v, want 1 and >= 1",
			res.Values["crashes:crash"], res.Values["degraded:crash"])
	}
	// The bounded radio queue drops bursts during the outage.
	if res.Values["radiodrops:outage"] == 0 {
		t.Error("outage row dropped no bursts at a 100 B buffer")
	}
}

func TestAblDMASavings(t *testing.T) {
	res := mustRun(t, AblDMA)
	// DMA must help every scenario, and help the transfer-bound baseline
	// most.
	for key, v := range res.Values {
		if v <= 0 {
			t.Errorf("%s DMA saving = %.3f, want > 0", key, v)
		}
	}
	if res.Values["A2 baseline"] <= res.Values["A11+A6 batching"] {
		t.Error("DMA helps a batched heavy mix more than a transfer-bound baseline")
	}
}

func TestAblProfileMeasuresRealCode(t *testing.T) {
	res := mustRun(t, AblProfile)
	// Every app's real computation allocates something and takes time;
	// the JPEG codec is by far the hungriest of the ten.
	for _, id := range []string{"A2", "A9"} {
		if res.Values["alloc:"+id] <= 0 {
			t.Errorf("%s measured alloc = %v", id, res.Values["alloc:"+id])
		}
		if res.Values["wallMs:"+id] <= 0 {
			t.Errorf("%s measured wall = %v", id, res.Values["wallMs:"+id])
		}
	}
	if res.Values["alloc:A9"] < res.Values["alloc:A2"] {
		t.Errorf("JPEG (%v B) allocates less than step counter (%v B)",
			res.Values["alloc:A9"], res.Values["alloc:A2"])
	}
}

func TestAblHarvestSurvivalRanking(t *testing.T) {
	// AblHarvest enforces its own hard gates (contrast, consistency, replay,
	// worker independence) — mustRun failing IS the test. On top of that,
	// pin the headline physics of the current calibration.
	res := mustRun(t, AblHarvest)
	if res.Values["brownoutSchemes"] < 1 || res.Values["survivorSchemes"] < 1 {
		t.Fatalf("calibration lost contrast: %v brownouts, %v survivors",
			res.Values["brownoutSchemes"], res.Values["survivorSchemes"])
	}
	// The frugal schemes outlive the hungry ones: COM survives with the most
	// charge left, while BCOM — the energy tables' heavy-weight winner —
	// browns out first. The survival ranking is not the energy ranking.
	if res.Values["survival:com"] <= res.Values["survival:bcom"] {
		t.Errorf("com survives %vs <= bcom %vs",
			res.Values["survival:com"], res.Values["survival:bcom"])
	}
	if res.Values["brownouts:bcom"] < 1 {
		t.Errorf("bcom browned out %v times, want >= 1", res.Values["brownouts:bcom"])
	}
	if res.Values["soc:com"] <= res.Values["soc:batching"] {
		t.Errorf("com final SoC %v <= batching %v",
			res.Values["soc:com"], res.Values["soc:batching"])
	}
	// Brownout downtime costs delivered samples; survivors deliver in full.
	if res.Values["delivered:batching"] != 1 {
		t.Errorf("batching delivered %v, want 1 (it never browned out)",
			res.Values["delivered:batching"])
	}
	if res.Values["delivered:bcom"] >= 1 {
		t.Errorf("bcom delivered %v, want < 1 (it spent time dark)",
			res.Values["delivered:bcom"])
	}
}
