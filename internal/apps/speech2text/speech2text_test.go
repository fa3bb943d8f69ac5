package speech2text

import (
	"sync"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/sensor"
)

func TestTranscribesOneWordPerWindow(t *testing.T) {
	utterance := []sensor.AudioWord{sensor.WordYes, sensor.WordNo, sensor.WordGo}
	a, err := New(81, utterance...)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for w := 0; w < len(utterance); w++ {
		in, err := apps.CollectWindow(a, w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Compute(in)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if string(res.Upstream) == utterance[w].String() {
			correct++
		} else {
			t.Logf("window %d: got %q, want %q", w, res.Upstream, utterance[w])
		}
	}
	if correct < len(utterance)-1 {
		t.Errorf("transcribed %d/%d words correctly", correct, len(utterance))
	}
}

func TestSilentWindowYieldsEmptyTranscript(t *testing.T) {
	a, err := New(81, sensor.WordYes)
	if err != nil {
		t.Fatal(err)
	}
	// Window 3 is past the single-word utterance: silence.
	in, err := apps.CollectWindow(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Compute(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Upstream) != 0 {
		t.Errorf("silence transcribed as %q", res.Upstream)
	}
}

func TestGroundTruthHelper(t *testing.T) {
	a, err := New(1, sensor.WordStop, sensor.WordGo)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrueWord(0) != sensor.WordStop || a.TrueWord(1) != sensor.WordGo {
		t.Error("TrueWord wrong for utterance windows")
	}
	if a.TrueWord(5) != sensor.WordSilence || a.TrueWord(-1) != sensor.WordSilence {
		t.Error("TrueWord wrong outside utterance")
	}
}

func TestHeavySpecGatesOffload(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	sp := a.Spec()
	if !sp.Heavy {
		t.Error("A11 not marked heavy")
	}
	if sp.HeapBytes < 1_000_000_000 {
		t.Errorf("heap = %d, want 1.43 GB class", sp.HeapBytes)
	}
	if sp.MIPS != 4683 {
		t.Errorf("MIPS = %v, want 4683 (§IV-E3)", sp.MIPS)
	}
	// Memory-bound: compute occupies most of the window on the CPU.
	ct, err := sp.CPUComputeTime(24000)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Seconds() < 0.85 || ct.Seconds() > 0.99 {
		t.Errorf("compute time = %v, want ~0.9 s (compute-dominated window, Fig. 12a)", ct)
	}
	data, err := sp.DataBytesPerWindow()
	if err != nil || data != 6000 {
		t.Errorf("data = %d B, want 6000 (5.86 KB)", data)
	}
}

func TestComputeRejectsBadAudio(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Compute(apps.WindowInput{Samples: map[sensor.ID][][]byte{}}); err == nil {
		t.Error("empty window accepted")
	}
	bad := apps.WindowInput{Samples: map[sensor.ID][][]byte{
		sensor.Sound: {make([]byte, 1)},
	}}
	if _, err := a.Compute(bad); err == nil {
		t.Error("malformed sample accepted")
	}
}

// TestSharedModelConcurrentUse builds and runs apps from several goroutines
// at once. Every App matches against the one shared reference model; under
// -race this checks that the sharing stays read-only.
func TestSharedModelConcurrentUse(t *testing.T) {
	const goroutines, windows = 6, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			a, err := New(seed)
			if err != nil {
				t.Error(err)
				return
			}
			for w := 0; w < windows; w++ {
				in, err := apps.CollectWindow(a, w)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := a.Compute(in)
				if err != nil {
					t.Errorf("seed %d window %d: %v", seed, w, err)
					return
				}
				if got, want := string(res.Upstream), a.TrueWord(w).String(); got != want {
					t.Errorf("seed %d window %d: transcript %q, want %q", seed, w, got, want)
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
}
