package dsp

import (
	"fmt"
	"sort"
)

// Autocorrelation returns the biased autocorrelation of xs for lags
// [0, maxLag], normalized so lag 0 equals 1 (or all zeros for a flat
// signal). Used for pitch/period estimation.
func Autocorrelation(xs []float64, maxLag int) ([]float64, error) {
	if maxLag < 0 || maxLag >= len(xs) {
		return nil, fmt.Errorf("dsp: maxLag %d for %d samples", maxLag, len(xs))
	}
	centered := Detrend(xs)
	out := make([]float64, maxLag+1)
	var r0 float64
	for _, x := range centered {
		r0 += x * x
	}
	if r0 == 0 {
		return out, nil
	}
	for lag := 0; lag <= maxLag; lag++ {
		var sum float64
		for i := 0; i+lag < len(centered); i++ {
			sum += centered[i] * centered[i+lag]
		}
		out[lag] = sum / r0
	}
	return out, nil
}

// DominantPeriod estimates a signal's period in samples from the highest
// autocorrelation peak in [minLag, maxLag]. Returns 0 when no positive peak
// exists in the range.
func DominantPeriod(xs []float64, minLag, maxLag int) (int, error) {
	if minLag < 1 || maxLag < minLag {
		return 0, fmt.Errorf("dsp: lag range [%d, %d]", minLag, maxLag)
	}
	ac, err := Autocorrelation(xs, maxLag)
	if err != nil {
		return 0, err
	}
	best, bestLag := 0.0, 0
	for lag := minLag; lag <= maxLag; lag++ {
		if ac[lag] > best {
			best, bestLag = ac[lag], lag
		}
	}
	return bestLag, nil
}

// MedianFilter applies a sliding median of the given width (clamped to odd,
// minimum 1); edges use the available neighborhood. Medians reject impulse
// noise that moving averages smear.
func MedianFilter(xs []float64, width int) []float64 {
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	out := make([]float64, len(xs))
	buf := make([]float64, 0, width)
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(xs) {
			hi = len(xs)
		}
		buf = append(buf[:0], xs[lo:hi]...)
		sort.Float64s(buf)
		out[i] = buf[len(buf)/2]
	}
	return out
}
