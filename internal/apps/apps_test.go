package apps_test

import (
	"bytes"
	"testing"
	"time"

	"iothub/internal/apps"
	"iothub/internal/apps/custom"
	"iothub/internal/apps/stepcounter"
	"iothub/internal/sensor"
)

func TestSensorUseSampleBytes(t *testing.T) {
	u := apps.SensorUse{Sensor: sensor.Sound}
	got, err := u.SampleBytes()
	if err != nil || got != 4 {
		t.Errorf("default = %d, %v", got, err)
	}
	u.BytesPerSmp = 6
	got, err = u.SampleBytes()
	if err != nil || got != 6 {
		t.Errorf("override = %d, %v", got, err)
	}
	bad := apps.SensorUse{Sensor: "S99"}
	if _, err := bad.SampleBytes(); err == nil {
		t.Error("unknown sensor accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	good := apps.Spec{
		ID: "AX", Name: "x",
		Sensors: []apps.SensorUse{{Sensor: sensor.Sound}},
		Window:  time.Second,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	cases := map[string]func(*apps.Spec){
		"missing id":       func(s *apps.Spec) { s.ID = "" },
		"no sensors":       func(s *apps.Spec) { s.Sensors = nil },
		"zero window":      func(s *apps.Spec) { s.Window = 0 },
		"negative mips":    func(s *apps.Spec) { s.MIPS = -1 },
		"unknown sensor":   func(s *apps.Spec) { s.Sensors = []apps.SensorUse{{Sensor: "S99"}} },
		"duplicate sensor": func(s *apps.Spec) { s.Sensors = append(s.Sensors, s.Sensors[0]) },
	}
	for name, mutate := range cases {
		s := good
		s.Sensors = append([]apps.SensorUse(nil), good.Sensors...)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSpecDerivedQuantities(t *testing.T) {
	s := apps.Spec{
		ID: "AX", Name: "x",
		Sensors: []apps.SensorUse{
			{Sensor: sensor.Accelerometer},
			{Sensor: sensor.Barometer},
		},
		Window: time.Second,
		MIPS:   24,
	}
	n, err := s.SamplesPerWindow(sensor.Accelerometer)
	if err != nil || n != 1000 {
		t.Errorf("accel samples = %d, %v", n, err)
	}
	if _, err := s.SamplesPerWindow(sensor.Sound); err == nil {
		t.Error("unused sensor accepted")
	}
	irq, err := s.InterruptsPerWindow()
	if err != nil || irq != 1010 {
		t.Errorf("interrupts = %d, %v", irq, err)
	}
	bytes, err := s.DataBytesPerWindow()
	if err != nil || bytes != 1000*12+10*8 {
		t.Errorf("bytes = %d, %v", bytes, err)
	}
	ct, err := s.CPUComputeTime(24000)
	if err != nil || ct != time.Millisecond {
		t.Errorf("compute time = %v, %v", ct, err)
	}
	if _, err := s.CPUComputeTime(0); err == nil {
		t.Error("zero MIPS accepted")
	}
}

func TestSpecEffectiveMIPSCap(t *testing.T) {
	s := apps.Spec{
		ID: "AY", Name: "y",
		Sensors:       []apps.SensorUse{{Sensor: sensor.Sound}},
		Window:        time.Second,
		MIPS:          6000,
		EffectiveMIPS: 6000,
	}
	ct, err := s.CPUComputeTime(24000)
	if err != nil {
		t.Fatal(err)
	}
	if ct != time.Second {
		t.Errorf("memory-bound compute time = %v, want 1s", ct)
	}
}

func TestCollectWindowPullsCorrectIndices(t *testing.T) {
	app, err := stepcounter.New(5)
	if err != nil {
		t.Fatal(err)
	}
	w0, err := apps.CollectWindow(app, 0)
	if err != nil {
		t.Fatalf("CollectWindow: %v", err)
	}
	if got := len(w0.Samples[sensor.Accelerometer]); got != 1000 {
		t.Fatalf("window 0 samples = %d", got)
	}
	w1, err := apps.CollectWindow(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := app.Source(sensor.Accelerometer)
	if err != nil {
		t.Fatal(err)
	}
	want := src.AppendSample(nil, 1000)
	got := w1.Samples[sensor.Accelerometer][0]
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("window 1 does not start at sample 1000")
		}
	}
}

// CollectWindow allocates per sensor, not per sample: each sensor's window
// is one buffer plus one slice of sample headers, at any sampling rate, and
// the window adds its map.
func TestCollectWindowAllocs(t *testing.T) {
	const perSensor, perWindow = 2, 4
	app, err := stepcounter.New(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, mult := range []float64{0.1, 1, 4} {
		a, err := apps.ScaleRates(app, mult)
		if err != nil {
			t.Fatal(err)
		}
		n, err := a.Spec().SamplesPerWindow(sensor.Accelerometer)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the source's memoized noise so only CollectWindow is counted.
		if _, err := apps.CollectWindow(a, 1); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := apps.CollectWindow(a, 1); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(perWindow + perSensor*len(a.Spec().Sensors)); allocs > limit {
			t.Errorf("%d samples per window: %v allocs per CollectWindow, want <= %v", n, allocs, limit)
		}
	}
}

// The declared sample size only sizes CollectWindow's buffer: a source that
// writes more (a 12-byte accelerometer declared as 4 bytes through
// custom.WithSensor) still yields its exact bytes, and appending to one
// sample never reaches the next.
func TestCollectWindowSampleSizeIsAHint(t *testing.T) {
	src := sensor.NewAccelWalk(7, 100, 2)
	app, err := custom.NewBuilder("C1", "undeclared size").
		WithSensor(sensor.Accelerometer, src, 100, 4).
		WithCompute(func(apps.WindowInput) (apps.Result, error) { return apps.Result{}, nil }).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := apps.CollectWindow(app, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := in.Samples[sensor.Accelerometer]
	if len(got) != 100 {
		t.Fatalf("samples = %d, want 100", len(got))
	}
	for i, s := range got {
		if want := src.AppendSample(nil, 200+i); !bytes.Equal(s, want) {
			t.Fatalf("sample %d = %x, want %x", i, s, want)
		}
	}
	next := bytes.Clone(got[1])
	_ = append(got[0], 0xFF, 0xFF, 0xFF, 0xFF)
	if !bytes.Equal(got[1], next) {
		t.Error("appending to sample 0 overwrote sample 1")
	}
}
