package earthquake

import (
	"testing"

	"iothub/internal/apps"
	"iothub/internal/sensor"
)

func TestDetectsBurstWindow(t *testing.T) {
	a, err := New(3, 1500) // burst in window 1
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := apps.CollectWindow(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Compute(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["confirmed"] != 0 {
		t.Errorf("window 0 confirmed an event: %s", res.Summary)
	}
	shaking, err := apps.CollectWindow(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err = a.Compute(shaking)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["confirmed"] != 1 {
		t.Errorf("window 1 missed the event: %s (ratio %.2f)", res.Summary, res.Metrics["peakRatio"])
	}
}

func TestQuietSignalNeverTriggers(t *testing.T) {
	a, err := New(9, -1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		in, err := apps.CollectWindow(a, w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Compute(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics["triggered"] != 0 {
			t.Errorf("window %d false trigger (ratio %.2f)", w, res.Metrics["peakRatio"])
		}
	}
	if a.HasEventIn(100000) {
		t.Error("ground truth reports event for quiet generator")
	}
}

func TestComputeRejectsShortWindow(t *testing.T) {
	a, err := New(1, -1)
	if err != nil {
		t.Fatal(err)
	}
	short := apps.WindowInput{Samples: map[sensor.ID][][]byte{
		sensor.Accelerometer: make([][]byte, 10),
	}}
	if _, err := a.Compute(short); err == nil {
		t.Error("10-sample window accepted")
	}
}

func TestSpecShape(t *testing.T) {
	a, err := New(1, -1)
	if err != nil {
		t.Fatal(err)
	}
	sp := a.Spec()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 6: earthquake has the smallest memory footprint.
	if sp.MemoryBytes() != 16800 {
		t.Errorf("memory = %d, want 16800", sp.MemoryBytes())
	}
	if _, err := a.Source(sensor.Light); err == nil {
		t.Error("undeclared sensor accepted")
	}
}

func TestSingleSampleGlitchDoesNotTrigger(t *testing.T) {
	a, err := New(7, -1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := apps.CollectWindow(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one sample with a massive ADC glitch.
	in.Samples[sensor.Accelerometer][500] = sensor.AppendVec3(nil, sensor.Vec3{X: 0, Y: 0, Z: 30000})
	res, err := a.Compute(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["confirmed"] == 1 {
		t.Errorf("glitch confirmed as earthquake: %s", res.Summary)
	}
}
