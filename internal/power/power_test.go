package power

import (
	"strings"
	"testing"
	"time"
)

func TestUsableJoules(t *testing.T) {
	b := Battery{CapacityMAh: 10_000, Volts: 5}
	j, err := b.UsableJoules()
	if err != nil {
		t.Fatal(err)
	}
	// 10 Ah × 5 V × 3600 s × 0.85 derate = 153 kJ.
	if j < 150_000 || j > 156_000 {
		t.Errorf("usable = %.0f J, want ~153 kJ", j)
	}
	if _, err := (Battery{Volts: 5}).UsableJoules(); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := (Battery{CapacityMAh: 100, Volts: 5, DerateFraction: 2}).UsableJoules(); err == nil {
		t.Error("derate > 1 accepted")
	}
}

func TestBatteryValidate(t *testing.T) {
	if err := (Battery{}).Validate(); err != nil {
		t.Errorf("zero battery: %v", err)
	}
	if err := (Battery{CapacityMAh: 100, Volts: 5, LeakageW: -1}).Validate(); err == nil {
		t.Error("negative leakage accepted")
	}
	if err := (Battery{CapacityMAh: 100, Volts: 5, InitialSoC: 1.5}).Validate(); err == nil {
		t.Error("initial SoC > 1 accepted")
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct {
		spec string
		want []string // substrings the error must carry
	}{
		{"tidal:w=1", []string{"rule 1", `"tidal:w=1"`, "unknown kind"}},
		{"const:w=1; solar:peak=1", []string{"rule 2", `"solar:peak=1"`, "needs period="}},
		{"const:w", []string{"rule 1", "not key=value"}},
		{"const:w=-2", []string{"rule 1", "want watts >= 0"}},
		{"rf:w=1,period=100ms,burst=200ms", []string{"rule 1", "burst 200ms exceeds period"}},
		{"solar:peak=1,period=1s,slots=1", []string{"slots"}},
		{"const:w=1,volume=11", []string{`unknown parameter "volume"`}},
	}
	for _, c := range cases {
		_, err := ParseTrace(c.spec)
		if err == nil {
			t.Errorf("%q: accepted", c.spec)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%q: error %q missing %q", c.spec, err, w)
			}
		}
	}
}

func TestTraceSteps(t *testing.T) {
	tr, err := ParseTrace("const:w=0.5,at=1s; rf:w=1,period=2s,burst=500ms")
	if err != nil {
		t.Fatal(err)
	}
	steps := tr.AppendSteps(nil, 4*time.Second)
	// t=0: rf burst (1 W); 500ms: 0; 1s: const joins (0.5); 2s: burst again
	// (1.5); 2.5s: 0.5; 4s: burst (1.5).
	want := []Step{
		{0, 1}, {500 * time.Millisecond, 0}, {time.Second, 0.5},
		{2 * time.Second, 1.5}, {2500 * time.Millisecond, 0.5}, {4 * time.Second, 1.5},
	}
	if len(steps) != len(want) {
		t.Fatalf("steps = %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Errorf("step %d = %v, want %v", i, steps[i], want[i])
		}
	}
}

func TestTraceDeterministicAndCoalesced(t *testing.T) {
	tr, err := ParseTrace("solar:peak=1.2,period=2s,phase=300ms; const:w=0.1")
	if err != nil {
		t.Fatal(err)
	}
	a := tr.AppendSteps(nil, 6*time.Second)
	b := tr.AppendSteps(nil, 6*time.Second)
	if len(a) != len(b) {
		t.Fatalf("recompile changed step count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recompile changed step %d: %v vs %v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].At <= a[i-1].At {
			t.Fatalf("steps not strictly ordered at %d: %v", i, a)
		}
		if a[i].Watts == a[i-1].Watts {
			t.Fatalf("equal consecutive levels not coalesced at %d: %v", i, a)
		}
	}
}

func TestSupplyValidate(t *testing.T) {
	var nilSupply *Supply
	if err := nilSupply.Validate(); err != nil {
		t.Errorf("nil supply: %v", err)
	}
	if nilSupply.Armed() {
		t.Error("nil supply armed")
	}
	s := &Supply{Battery: Battery{CapacityMAh: 200, Volts: 3.7}, Harvest: "solar:peak=1,period=2s"}
	if err := s.Validate(); err != nil {
		t.Errorf("good supply: %v", err)
	}
	if !s.Armed() {
		t.Error("good supply not armed")
	}
	if err := (&Supply{Harvest: "const:w=1"}).Validate(); err == nil {
		t.Error("harvest without battery accepted")
	}
	bad := &Supply{Battery: Battery{CapacityMAh: 200, Volts: 3.7}, Harvest: "nope:w=1"}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("bad harvest: %v", err)
	}
}

func TestPreset(t *testing.T) {
	for _, name := range PresetNames() {
		spec, err := Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := ParseTrace(spec); err != nil {
			t.Errorf("%s preset does not parse: %v", name, err)
		}
	}
	_, err := Preset("tidal")
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	for _, name := range PresetNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("preset error %q does not list %q", err, name)
		}
	}
}
