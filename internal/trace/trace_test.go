package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iothub/internal/apps/stepcounter"
	"iothub/internal/energy"
	"iothub/internal/sim"
)

func ms(n int64) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }

func sampleTrace() []energy.Sample {
	return []energy.Sample{
		{At: 0, Watts: 5, R: energy.DataTransfer},
		{At: ms(100), Watts: 0.35, R: energy.DataTransfer},
		{At: ms(900), Watts: 5, R: energy.AppCompute},
	}
}

func TestOccupancy(t *testing.T) {
	occ := Occupancy(sampleTrace(), ms(1000))
	if got := occ[5.0]; got != 200*time.Millisecond {
		t.Errorf("active dwell = %v, want 200ms", got)
	}
	if got := occ[0.35]; got != 800*time.Millisecond {
		t.Errorf("sleep dwell = %v, want 800ms", got)
	}
	if len(Occupancy(nil, ms(10))) != 0 {
		t.Error("empty trace produced occupancy")
	}
	if len(Occupancy(sampleTrace(), 0)) != 0 {
		t.Error("zero end produced occupancy")
	}
}

func TestOccupancyIgnoresSamplesPastEnd(t *testing.T) {
	occ := Occupancy(sampleTrace(), ms(500))
	if got := occ[5.0]; got != 100*time.Millisecond {
		t.Errorf("active dwell = %v, want 100ms", got)
	}
	if got := occ[0.35]; got != 400*time.Millisecond {
		t.Errorf("sleep dwell = %v, want 400ms", got)
	}
}

func TestResample(t *testing.T) {
	wave, err := Resample(sampleTrace(), 100*time.Millisecond, ms(1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(wave) != 10 {
		t.Fatalf("bins = %d, want 10", len(wave))
	}
	if math.Abs(wave[0]-5) > 1e-9 {
		t.Errorf("bin 0 = %v, want 5", wave[0])
	}
	if math.Abs(wave[5]-0.35) > 1e-9 {
		t.Errorf("bin 5 = %v, want 0.35", wave[5])
	}
	if math.Abs(wave[9]-5) > 1e-9 {
		t.Errorf("bin 9 = %v, want 5", wave[9])
	}
}

func TestResampleAveragesWithinBin(t *testing.T) {
	samples := []energy.Sample{
		{At: 0, Watts: 4},
		{At: ms(50), Watts: 0},
	}
	wave, err := Resample(samples, 100*time.Millisecond, ms(100))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wave[0]-2) > 1e-9 {
		t.Errorf("bin = %v, want 2 (half at 4 W)", wave[0])
	}
}

func TestResampleValidation(t *testing.T) {
	if _, err := Resample(nil, 0, ms(1)); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := Resample(nil, time.Millisecond, 0); err == nil {
		t.Error("zero end accepted")
	}
	wave, err := Resample(nil, time.Millisecond, ms(5))
	if err != nil || len(wave) != 5 {
		t.Errorf("empty trace: %v, %d bins", err, len(wave))
	}
}

func TestSleepFraction(t *testing.T) {
	// 800 ms at 0.35 W out of 1 s, threshold 0.5 W.
	got := SleepFraction(sampleTrace(), 0.5, ms(1000))
	if math.Abs(got-0.8) > 1e-9 {
		t.Errorf("sleep fraction = %v, want 0.8", got)
	}
	if SleepFraction(nil, 1, 0) != 0 {
		t.Error("degenerate input not zero")
	}
}

func TestRenderASCII(t *testing.T) {
	out := RenderASCII([]float64{5, 0.3, 5}, 4)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5 (4 rows + axis)", len(lines))
	}
	if lines[0] != "# #" {
		t.Errorf("top row = %q, want %q", lines[0], "# #")
	}
	if lines[3] != "###" {
		t.Errorf("bottom row = %q, want %q", lines[3], "###")
	}
	if RenderASCII(nil, 3) != "" {
		t.Error("empty waveform rendered")
	}
	if RenderASCII([]float64{0, 0}, 2) == "" {
		t.Error("all-zero waveform not rendered")
	}
}

func TestProfileCompute(t *testing.T) {
	a, err := stepcounter.New(3)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileCompute(a, 2)
	if err != nil {
		t.Fatalf("ProfileCompute: %v", err)
	}
	if prof.ID != "A2" || prof.Windows != 2 {
		t.Errorf("profile = %+v", prof)
	}
	if prof.AllocBytesPerWindow <= 0 {
		t.Error("no allocations measured for a real computation")
	}
	if prof.WallPerWindow <= 0 {
		t.Error("no wall time measured")
	}
	if _, err := ProfileCompute(a, 0); err == nil {
		t.Error("zero windows accepted")
	}
}

// Property: resampling conserves energy — the sum of bin-average power times
// the step equals the exact integral of the piecewise-constant trace over
// the covered span.
func TestPropertyResampleConservesEnergy(t *testing.T) {
	f := func(levels []uint8, dwellMs []uint8, stepMs uint8) bool {
		n := len(levels)
		if len(dwellMs) < n {
			n = len(dwellMs)
		}
		if n == 0 {
			return true
		}
		step := time.Duration(int(stepMs)%20+1) * time.Millisecond
		var samples []energy.Sample
		at := sim.Time(0)
		for i := 0; i < n; i++ {
			samples = append(samples, energy.Sample{At: at, Watts: float64(levels[i]) / 10})
			at = at.Add(time.Duration(int(dwellMs[i])%50+1) * time.Millisecond)
		}
		end := at
		bins := int(int64(end) / int64(step))
		if bins == 0 {
			return true
		}
		covered := sim.Time(int64(bins) * int64(step))
		wave, err := Resample(samples, step, end)
		if err != nil {
			return false
		}
		var binned float64
		for _, w := range wave {
			binned += w * step.Seconds()
		}
		// Exact integral over [0, covered).
		var exact float64
		for i, s := range samples {
			segEnd := covered
			if i+1 < len(samples) && samples[i+1].At < covered {
				segEnd = samples[i+1].At
			}
			if segEnd > s.At && s.At < covered {
				hi := segEnd
				if hi > covered {
					hi = covered
				}
				exact += s.Watts * (hi - s.At).Duration().Seconds()
			}
		}
		return math.Abs(binned-exact) < 1e-9*(1+exact)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
