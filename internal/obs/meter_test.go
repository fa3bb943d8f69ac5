package obs

import (
	"strings"
	"testing"
	"time"
)

func TestMeterPresets(t *testing.T) {
	ext, err := Preset("external", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Armed() {
		t.Errorf("External at 1 kHz arms: a bench instrument must stay free at any rate")
	}
	ins, err := Preset("InSitu", 250)
	if err != nil {
		t.Fatal(err)
	}
	if !ins.Armed() || ins.RateHz != 250 || ins != Insitu(250) {
		t.Errorf("insitu preset mismatch: %+v", ins)
	}
	eco, err := Preset("eco", 250)
	if err != nil {
		t.Fatal(err)
	}
	if eco.DutyOn != 1 || eco.DutyOff != 3 {
		t.Errorf("eco duty cycle = %d/%d, want 1/3", eco.DutyOn, eco.DutyOff)
	}
	if _, err := Preset("monsoon", 1); err == nil || !strings.Contains(err.Error(), "monsoon") {
		t.Errorf("unknown preset error = %v", err)
	}
}

func TestMeterArmed(t *testing.T) {
	cases := []struct {
		name string
		m    MeterModel
		want bool
	}{
		{"zero", MeterModel{}, false},
		{"rate only", MeterModel{RateHz: 100}, false},
		{"cost only", MeterModel{PerSampleCycles: 100}, false},
		{"rate+cycles", MeterModel{RateHz: 100, PerSampleCycles: 100}, true},
		{"rate+ram", MeterModel{RateHz: 100, PerSampleRAM: 8}, true},
		{"rate+sense", MeterModel{RateHz: 100, SenseJ: 1e-6}, true},
		{"rate+hook", MeterModel{RateHz: 100, HookCycles: 100}, true},
		{"rate+flush", MeterModel{RateHz: 100, FlushEvery: 64, FlushBytes: 8}, true},
		{"flush never fires", MeterModel{RateHz: 100, FlushEvery: 64}, false},
		{"insitu", Insitu(10), true},
		{"eco", Eco(10), true},
	}
	for _, tc := range cases {
		if got := tc.m.Armed(); got != tc.want {
			t.Errorf("%s: Armed() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMeterValidate(t *testing.T) {
	good := []MeterModel{{}, External(), Insitu(1000), Eco(1), {RateHz: 1e8}}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", m, err)
		}
	}
	bad := []MeterModel{
		{RateHz: -1},
		{RateHz: 2e8},
		{PerSampleCycles: -1},
		{FlushCycles: -1},
		{HookCycles: -1},
		{PerSampleRAM: -1},
		{FlushBytes: -1},
		{SenseJ: -1},
		{FlushEvery: -1},
		{DutyOn: -1},
		{DutyOff: 3}, // off without on never samples
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid model", m)
		}
	}
}

func TestMeterTimes(t *testing.T) {
	m := MeterModel{RateHz: 1000, PerSampleCycles: 1600, FlushCycles: 40_000, HookCycles: 8000}
	if got := m.Period(); got != time.Millisecond {
		t.Errorf("Period = %v, want 1ms", got)
	}
	if got := m.PerSampleTime(); got != 20*time.Microsecond {
		t.Errorf("PerSampleTime = %v, want 20µs (1600 cycles at 80 MHz)", got)
	}
	if got := m.FlushTime(); got != 500*time.Microsecond {
		t.Errorf("FlushTime = %v, want 500µs", got)
	}
	if got := m.HookTime(); got != 100*time.Microsecond {
		t.Errorf("HookTime = %v, want 100µs", got)
	}
	if got := (MeterModel{}).Period(); got != 0 {
		t.Errorf("disarmed Period = %v, want 0", got)
	}
}
