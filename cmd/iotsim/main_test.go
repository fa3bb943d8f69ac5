package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"iothub/internal/hub"
	"iothub/internal/scheme"
)

func TestRunBaseline(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-apps", "A2", "-scheme", "baseline", "-windows", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"Baseline: energy per window", "DataTransfer", "interrupts=2000", "steps"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunBCOMUsesPlanner(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-apps", "A11,A6", "-scheme", "bcom", "-windows", "1", "-outputs=false"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "planner:") {
		t.Errorf("planner line missing:\n%s", s)
	}
	if !strings.Contains(s, "A11:Batched") || !strings.Contains(s, "A6:Offloaded") {
		t.Errorf("unexpected partition:\n%s", s)
	}
}

func TestRunTimeline(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-apps", "A2", "-scheme", "batching", "-windows", "1", "-timeline", "-outputs=false"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "CPU power timeline") {
		t.Error("timeline missing")
	}
	if !strings.Contains(out.String(), "#") {
		t.Error("timeline has no bars")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scheme", "warp"}, &out); err == nil {
		t.Error("unknown scheme accepted")
	}
	// The rejection must list every registered scheme so the user can
	// correct the flag without consulting the source.
	if err := run([]string{"-scheme", "warp"}, &out); err != nil {
		for _, name := range scheme.Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("unknown-scheme error %q does not list %q", err, name)
			}
		}
	}
	// An unknown app or a bad fault schedule is refused as the scenario's
	// config error, the same error a fleet scenario reports.
	for _, args := range [][]string{{"-apps", "A99"}, {"-apps", "A2", "-chaos", "bogus"}} {
		if err := run(args, &out); !errors.Is(err, hub.ErrConfig) {
			t.Errorf("%q: err = %v, want ErrConfig", args, err)
		}
	}
	if err := run([]string{"-apps", "A11", "-scheme", "com"}, &out); err == nil {
		t.Error("offloading the heavy app accepted")
	}
	// The planner fills in BCOM's partition only. Hybrid has no flag to take
	// an Assign from, so it is refused instead of running BCOM's split under
	// the Hybrid label.
	if err := run([]string{"-apps", "A2,A11", "-scheme", "hybrid", "-windows", "1"}, &out); !errors.Is(err, hub.ErrConfig) {
		t.Errorf("hybrid without Assign: err = %v, want ErrConfig", err)
	}
	if err := run([]string{"-bogusflag"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
}

// TestRunFaultInjectionFlag: a sensor-fail schedule with no on= fails every
// 10th read of each sensor, and the run reports the retries it cost.
func TestRunFaultInjectionFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-apps", "A2", "-windows", "1", "-outputs=false", "-chaos", "sensor-fail:every=10"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "faults: 111 retries, 0 dropped samples") {
		t.Errorf("faults line missing:\n%s", out.String())
	}
}

func TestRunChaosFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-apps", "A2", "-windows", "2", "-outputs=false", "-check",
		"-chaos", "seed=7; link-corrupt:every=20; mcu-crash:at=700ms,for=80ms"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"invariants: ok", "mcu crashes=1", "retx="} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if err := run([]string{"-apps", "A2", "-chaos", "warp-core:breach"}, &out); err == nil {
		t.Error("bogus chaos schedule accepted")
	}
}

func TestRunCheckFlagCleanRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-apps", "A2", "-windows", "1", "-outputs=false", "-check"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "invariants: ok") {
		t.Errorf("invariant confirmation missing:\n%s", out.String())
	}
}

func TestRunBatteryProjection(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-apps", "A2", "-windows", "1", "-outputs=false", "-battery-mah", "10000"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "battery 10000 mAh") {
		t.Errorf("battery line missing:\n%s", out.String())
	}
	// Multi-app projection is rejected.
	if err := run([]string{"-apps", "A2,A7", "-battery-mah", "100"}, &out); err == nil {
		t.Error("multi-app battery projection accepted")
	}
}

func TestRunJSONFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-apps", "A2", "-scheme", "batching", "-windows", "1", "-json"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var decoded struct {
		Scheme       string
		Energy       map[string]float64
		BatchFlushes int
	}
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if decoded.Scheme != "Batching" || decoded.Energy["DataTransfer"] <= 0 || decoded.BatchFlushes < 1 {
		t.Errorf("decoded = %+v", decoded)
	}
	if strings.Contains(out.String(), "energy per window") {
		t.Error("-json still printed the human table")
	}
}
