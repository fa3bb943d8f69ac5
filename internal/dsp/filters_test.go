package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

// tone renders a sinusoid at freq Hz for n samples at rate Hz.
func tone(n int, rate, freq, amplitude float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = amplitude * math.Sin(2*math.Pi*freq*float64(i)/rate)
	}
	return out
}

func TestAutocorrelationPeriodic(t *testing.T) {
	const rate = 1000.0
	sig := tone(1000, rate, 50, 1) // period 20 samples
	ac, err := Autocorrelation(sig, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ac[0]-1) > 1e-9 {
		t.Errorf("lag 0 = %v, want 1", ac[0])
	}
	if ac[20] < 0.8 {
		t.Errorf("lag 20 = %v, want near 1 for a 20-sample period", ac[20])
	}
	if ac[10] > 0 {
		t.Errorf("lag 10 (half period) = %v, want negative", ac[10])
	}
	if _, err := Autocorrelation(sig, len(sig)); err == nil {
		t.Error("maxLag >= len accepted")
	}
}

func TestAutocorrelationFlatSignal(t *testing.T) {
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 7
	}
	ac, err := Autocorrelation(flat, 10)
	if err != nil {
		t.Fatal(err)
	}
	for lag, v := range ac {
		if v != 0 {
			t.Errorf("flat signal lag %d = %v, want 0", lag, v)
		}
	}
}

func TestDominantPeriod(t *testing.T) {
	sig := tone(1000, 1000, 40, 1) // period 25
	p, err := DominantPeriod(sig, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p < 24 || p > 26 {
		t.Errorf("period = %d, want ~25", p)
	}
	if _, err := DominantPeriod(sig, 0, 10); err == nil {
		t.Error("minLag 0 accepted")
	}
	if _, err := DominantPeriod(sig, 10, 5); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestMedianFilterRejectsImpulses(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 10
	}
	xs[25] = 1000 // impulse
	out := MedianFilter(xs, 5)
	if out[25] != 10 {
		t.Errorf("impulse survived: %v", out[25])
	}
	// Even width is promoted to odd; width<1 clamps to identity-ish.
	if got := MedianFilter(xs, 4)[25]; got != 10 {
		t.Errorf("even width: %v", got)
	}
	id := MedianFilter(xs, 0)
	if id[25] != 1000 {
		t.Errorf("width 1 should be identity, got %v", id[25])
	}
}

// Property: the median filter's output values always come from the input's
// value set, and the filter is idempotent on constant signals.
func TestPropertyMedianFromInput(t *testing.T) {
	f := func(raw []int8, w uint8) bool {
		xs := make([]float64, len(raw))
		set := map[float64]bool{}
		for i, v := range raw {
			xs[i] = float64(v)
			set[float64(v)] = true
		}
		out := MedianFilter(xs, int(w%9))
		for _, v := range out {
			if !set[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
