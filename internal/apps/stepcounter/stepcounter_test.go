package stepcounter

import (
	"testing"

	"iothub/internal/apps"
	"iothub/internal/sensor"
)

func TestSpecMatchesTableII(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	sp := a.Spec()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	irq, err := sp.InterruptsPerWindow()
	if err != nil || irq != 1000 {
		t.Errorf("interrupts = %d, want 1000", irq)
	}
	data, err := sp.DataBytesPerWindow()
	if err != nil || data != 12000 {
		t.Errorf("data = %d B, want 12000", data)
	}
	if sp.Heavy {
		t.Error("step counter marked heavy")
	}
}

func TestCountsStepsAccurately(t *testing.T) {
	a, err := New(42)
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
			t.Fatalf("window %d: %v", w, err)
		}
		got := int(res.Metrics["steps"])
		want := StepRateHz // 2 steps per 1 s window
		if got < want-1 || got > want+1 {
			t.Errorf("window %d steps = %d, want %d±1", w, got, want)
		}
	}
}

func TestGroundTruthHelper(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.TrueSteps(3000); got != 6 {
		t.Errorf("TrueSteps(3000) = %d, want 6", got)
	}
}

func TestComputeErrors(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Compute(apps.WindowInput{Samples: map[sensor.ID][][]byte{}}); err == nil {
		t.Error("empty window accepted")
	}
	bad := apps.WindowInput{Samples: map[sensor.ID][][]byte{
		sensor.Accelerometer: {make([]byte, 3)},
	}}
	if _, err := a.Compute(bad); err == nil {
		t.Error("malformed sample accepted")
	}
}

func TestSourceContract(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Source(sensor.Sound); err == nil {
		t.Error("undeclared sensor accepted")
	}
	src, err := a.Source(sensor.Accelerometer)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(src.AppendSample(nil, 0)); got != 12 {
		t.Errorf("sample size = %d, want 12", got)
	}
}
