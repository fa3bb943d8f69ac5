package heartbeat

import (
	"testing"

	"iothub/internal/apps"
	"iothub/internal/sensor"
)

func TestNewValidatesBPM(t *testing.T) {
	if _, err := New(1, 10); err == nil {
		t.Error("bpm 10 accepted")
	}
	if _, err := New(1, 400); err == nil {
		t.Error("bpm 400 accepted")
	}
}

func TestCountsBeatsInRegularRhythm(t *testing.T) {
	a, err := New(5, 120) // 2 beats per second
	if err != nil {
		t.Fatal(err)
	}
	// Use windows past warm-up so each contains ~2 full beats.
	for w := 1; w < 4; w++ {
		in, err := apps.CollectWindow(a, w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Compute(in)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		got := int(res.Metrics["beats"])
		if got < 1 || got > 3 {
			t.Errorf("window %d beats = %d, want ~2", w, got)
		}
		if res.Metrics["irregular"] != 0 {
			t.Errorf("window %d flagged irregularity in regular rhythm", w)
		}
	}
}

func TestFlagsIrregularInterval(t *testing.T) {
	// 150 BPM with beat 2's interval stretched by 50%. A single QoS window
	// holds too few beats to expose it, so run the extractor over a 3 s
	// buffer, as the app does when its history spans windows.
	a, err := New(5, 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	src, err := a.Source(sensor.Pulse)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([][]byte, 3000)
	for i := range samples {
		samples[i] = src.AppendSample(nil, i)
	}
	res, err := a.Compute(apps.WindowInput{Samples: map[sensor.ID][][]byte{sensor.Pulse: samples}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["irregular"] < 1 {
		t.Errorf("stretched RR interval not flagged: %s", res.Summary)
	}
	if got := int(res.Metrics["beats"]); got < 5 || got > 8 {
		t.Errorf("beats over 3 s = %d, want 5..8", got)
	}
}

func TestGroundTruthHelper(t *testing.T) {
	a, err := New(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.TrueBeats(5000); got < 4 || got > 5 {
		t.Errorf("TrueBeats(5000) = %d, want 4..5 at 60 BPM", got)
	}
}

func TestComputeRejectsBadInput(t *testing.T) {
	a, err := New(1, 72)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Compute(apps.WindowInput{Samples: map[sensor.ID][][]byte{}}); err == nil {
		t.Error("empty window accepted")
	}
	bad := make([][]byte, 200)
	for i := range bad {
		bad[i] = []byte{1}
	}
	in := apps.WindowInput{Samples: map[sensor.ID][][]byte{sensor.Pulse: bad}}
	if _, err := a.Compute(in); err == nil {
		t.Error("malformed samples accepted")
	}
}

func TestSpecIsComputeHeaviest(t *testing.T) {
	a, err := New(1, 72)
	if err != nil {
		t.Fatal(err)
	}
	sp := a.Spec()
	if sp.MIPS != 108.80 {
		t.Errorf("MIPS = %v, want 108.80 (Fig. 6 maximum)", sp.MIPS)
	}
	if sp.FPPenalty < 2 {
		t.Errorf("FPPenalty = %v, want >= 2 (drives the Fig. 13 slowdown)", sp.FPPenalty)
	}
}

func TestBPMEstimateTracksConfiguredRate(t *testing.T) {
	a, err := New(5, 120)
	if err != nil {
		t.Fatal(err)
	}
	in, err := apps.CollectWindow(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Compute(in)
	if err != nil {
		t.Fatal(err)
	}
	bpm := res.Metrics["bpm"]
	if bpm < 100 || bpm > 140 {
		t.Errorf("bpm estimate = %.1f, want ~120", bpm)
	}
}
