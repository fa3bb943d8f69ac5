// Package trace post-processes recorded power timelines — the analysis layer
// over the Monsoon-style traces that package energy captures. It produces
// the power-state occupancy and resampled waveforms behind Figure 5 and an
// ASCII rendering for the CLI tools.
package trace

import (
	"fmt"
	"math"
	"strings"
	"time"

	"iothub/internal/energy"
	"iothub/internal/sim"
)

// Occupancy reports how long a component dwelt at each power level over
// [0, end). Samples beyond end are ignored; the last level extends to end.
func Occupancy(samples []energy.Sample, end sim.Time) map[float64]time.Duration {
	out := make(map[float64]time.Duration)
	if len(samples) == 0 || end <= 0 {
		return out
	}
	for i, s := range samples {
		if s.At >= end {
			break
		}
		until := end
		if i+1 < len(samples) && samples[i+1].At < end {
			until = samples[i+1].At
		}
		if until > s.At {
			out[s.Watts] += (until - s.At).Duration()
		}
	}
	return out
}

// Resample converts a piecewise-constant trace into a fixed-step waveform of
// average watts per step over [0, end). The final partial step is dropped.
func Resample(samples []energy.Sample, step time.Duration, end sim.Time) ([]float64, error) {
	if step <= 0 {
		return nil, fmt.Errorf("trace: step %v", step)
	}
	if end <= 0 {
		return nil, fmt.Errorf("trace: end %v", end)
	}
	n := int(int64(end) / int64(step))
	out := make([]float64, n)
	if len(samples) == 0 {
		return out, nil
	}
	si := 0
	for bin := 0; bin < n; bin++ {
		binStart := sim.Time(int64(bin) * int64(step))
		binEnd := binStart.Add(step)
		var joules float64
		t := binStart
		for t < binEnd {
			// Advance to the sample governing instant t.
			for si+1 < len(samples) && samples[si+1].At <= t {
				si++
			}
			segEnd := binEnd
			if si+1 < len(samples) && samples[si+1].At < segEnd {
				segEnd = samples[si+1].At
			}
			w := 0.0
			if samples[si].At <= t {
				w = samples[si].Watts
			}
			joules += w * (segEnd - t).Duration().Seconds()
			t = segEnd
		}
		out[bin] = joules / step.Seconds()
	}
	return out, nil
}

// SleepFraction reports the fraction of [0, end) a component spent at or
// below the given power threshold — e.g. "the CPU can sleep for 93% of the
// time" in Fig. 7's caption.
func SleepFraction(samples []energy.Sample, threshold float64, end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	var asleep time.Duration
	for w, d := range Occupancy(samples, end) {
		if w <= threshold {
			asleep += d
		}
	}
	return asleep.Seconds() / end.Duration().Seconds()
}

// RenderASCII draws a waveform as a fixed-height bar chart, one column per
// sample, for terminal display of Figure 5 timelines.
func RenderASCII(waveform []float64, height int) string {
	if len(waveform) == 0 || height < 1 {
		return ""
	}
	maxW := 0.0
	for _, w := range waveform {
		maxW = math.Max(maxW, w)
	}
	if maxW == 0 {
		maxW = 1
	}
	var b strings.Builder
	for row := height; row >= 1; row-- {
		cut := maxW * (float64(row) - 0.5) / float64(height)
		for _, w := range waveform {
			// Any nonzero draw is visible on the bottom row so low power
			// states don't vanish next to active peaks.
			if w >= cut || (row == 1 && w > 0) {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("-", len(waveform)))
	b.WriteByte('\n')
	return b.String()
}
