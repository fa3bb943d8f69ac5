// Package speech implements the keyword-spotting pipeline that stands in for
// PocketSphinx in the A11 (speech-to-text) workload: an MFCC front-end over
// framed PCM audio and a dynamic-time-warping (DTW) matcher against word
// templates, with energy-based utterance segmentation.
//
// The real PocketSphinx model is a closed acoustic model with a ~1.4 GB
// working set; this substrate preserves the *system* behaviour that matters
// to the paper — a compute- and memory-heavy decode over sound-sensor frames
// that cannot fit an MCU — while producing verifiable transcripts on the
// synthetic audio of package sensor.
package speech

import (
	"errors"
	"fmt"
	"math"

	"iothub/internal/dsp"
)

// Frontend converts PCM samples into MFCC feature frames.
type Frontend struct {
	SampleRate float64
	FrameLen   int // samples per analysis frame (power of two)
	Hop        int // samples between frame starts
	NumFilters int // mel filterbank size
	NumCoeffs  int // cepstral coefficients kept
}

// NewFrontend returns a front-end with standard parameters for the given
// sample rate: 32 ms power-of-two frames, 50% hop, 20 filters, 12 coeffs.
func NewFrontend(sampleRate float64) (*Frontend, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("speech: sample rate %v", sampleRate)
	}
	frame := 1
	for float64(frame) < sampleRate*0.032 {
		frame <<= 1
	}
	return &Frontend{
		SampleRate: sampleRate,
		FrameLen:   frame,
		Hop:        frame / 2,
		NumFilters: 20,
		NumCoeffs:  12,
	}, nil
}

// Features computes the MFCC sequence of pcm. Frames beyond the last full
// window are dropped. An input shorter than one frame yields no features.
func (f *Frontend) Features(pcm []float64) ([][]float64, error) {
	if f.FrameLen <= 0 || f.FrameLen&(f.FrameLen-1) != 0 {
		return nil, fmt.Errorf("speech: frame length %d not a power of two", f.FrameLen)
	}
	if f.Hop <= 0 {
		return nil, fmt.Errorf("speech: hop %d", f.Hop)
	}
	window := dsp.Hamming(f.FrameLen)
	bank := f.melBank()
	var out [][]float64
	// Pre-emphasis.
	emph := make([]float64, len(pcm))
	for i := range pcm {
		if i == 0 {
			emph[i] = pcm[i]
		} else {
			emph[i] = pcm[i] - 0.97*pcm[i-1]
		}
	}
	buf := make([]float64, f.FrameLen)
	for start := 0; start+f.FrameLen <= len(emph); start += f.Hop {
		for i := range buf {
			buf[i] = emph[start+i] * window[i]
		}
		spec, err := dsp.PowerSpectrum(buf)
		if err != nil {
			return nil, err
		}
		mel := make([]float64, f.NumFilters)
		for m, filter := range bank {
			var sum float64
			for _, tap := range filter {
				sum += spec[tap.bin] * tap.weight
			}
			mel[m] = math.Log(sum + 1e-10)
		}
		out = append(out, dctII(mel, f.NumCoeffs))
	}
	return out, nil
}

type bankTap struct {
	bin    int
	weight float64
}

// melBank builds triangular mel-spaced filters over the spectrum bins.
func (f *Frontend) melBank() [][]bankTap {
	hz2mel := func(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }
	mel2hz := func(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }
	lo, hi := hz2mel(0), hz2mel(f.SampleRate/2)
	points := make([]int, f.NumFilters+2)
	nBins := f.FrameLen/2 + 1
	for i := range points {
		mel := lo + (hi-lo)*float64(i)/float64(f.NumFilters+1)
		bin := int(mel2hz(mel) / (f.SampleRate / 2) * float64(nBins-1))
		if bin >= nBins {
			bin = nBins - 1
		}
		points[i] = bin
	}
	bank := make([][]bankTap, f.NumFilters)
	for m := 0; m < f.NumFilters; m++ {
		left, center, right := points[m], points[m+1], points[m+2]
		if center == left {
			center = left + 1
		}
		if right <= center {
			right = center + 1
		}
		var taps []bankTap
		for b := left; b <= right && b < nBins; b++ {
			var w float64
			switch {
			case b < center:
				w = float64(b-left) / float64(center-left)
			default:
				w = float64(right-b) / float64(right-center)
			}
			if w > 0 {
				taps = append(taps, bankTap{bin: b, weight: w})
			}
		}
		bank[m] = taps
	}
	return bank
}

// dctII takes the first k coefficients of the DCT-II of xs.
func dctII(xs []float64, k int) []float64 {
	n := len(xs)
	if k > n {
		k = n
	}
	out := make([]float64, k)
	for c := 0; c < k; c++ {
		var sum float64
		for i, x := range xs {
			sum += x * math.Cos(math.Pi*float64(c)*(float64(i)+0.5)/float64(n))
		}
		out[c] = sum
	}
	return out
}

// DTW returns the dynamic-time-warping distance between two feature
// sequences under the Euclidean frame metric, normalized by path length.
func DTW(a, b [][]float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, errors.New("speech: DTW over empty sequence")
	}
	prev := make([]float64, len(b)+1)
	cur := make([]float64, len(b)+1)
	for j := range prev {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= len(a); i++ {
		cur[0] = math.Inf(1)
		for j := 1; j <= len(b); j++ {
			d := frameDist(a[i-1], b[j-1])
			cur[j] = d + math.Min(prev[j], math.Min(cur[j-1], prev[j-1]))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)] / float64(len(a)+len(b)), nil
}

func frameDist(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	var sum float64
	for i := 0; i < n; i++ {
		d := x[i] - y[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Template is a reference MFCC sequence for one vocabulary word.
type Template struct {
	Word     string
	Features [][]float64
}

// Recognizer spots keywords in a PCM stream by segmenting on energy and
// matching each segment against the templates with DTW.
type Recognizer struct {
	frontend   *Frontend
	templates  []Template
	energyFrac float64 // segment threshold as a fraction of peak RMS
	minSegment int     // minimum segment length in samples

	// MinRMS is an absolute noise floor: windows whose peak RMS stays below
	// it are treated as silence. Zero disables the floor (relative
	// thresholding only).
	MinRMS float64
}

// NewRecognizer builds a recognizer over the given templates. It never
// writes them, so recognizers may share one list.
func NewRecognizer(frontend *Frontend, templates []Template) (*Recognizer, error) {
	if frontend == nil {
		return nil, errors.New("speech: nil frontend")
	}
	if len(templates) == 0 {
		return nil, errors.New("speech: no templates")
	}
	for _, t := range templates {
		if len(t.Features) == 0 {
			return nil, fmt.Errorf("speech: template %q has no features", t.Word)
		}
	}
	return &Recognizer{
		frontend:   frontend,
		templates:  templates,
		energyFrac: 0.25,
		minSegment: frontend.FrameLen,
	}, nil
}

// segment splits pcm into [start, end) ranges of sustained energy.
func (r *Recognizer) segment(pcm []float64) [][2]int {
	win := r.frontend.Hop
	if win < 1 {
		win = 1
	}
	var rms []float64
	for start := 0; start+win <= len(pcm); start += win {
		rms = append(rms, dsp.RMS(pcm[start:start+win]))
	}
	peak := 0.0
	for _, v := range rms {
		peak = math.Max(peak, v)
	}
	if peak == 0 || peak < r.MinRMS {
		return nil
	}
	threshold := math.Max(peak*r.energyFrac, r.MinRMS)
	var segs [][2]int
	inSeg := false
	segStart := 0
	for i, v := range rms {
		switch {
		case v >= threshold && !inSeg:
			inSeg = true
			segStart = i * win
		case v < threshold && inSeg:
			inSeg = false
			end := i * win
			if end-segStart >= r.minSegment {
				segs = append(segs, [2]int{segStart, end})
			}
		}
	}
	if inSeg {
		end := len(pcm)
		if end-segStart >= r.minSegment {
			segs = append(segs, [2]int{segStart, end})
		}
	}
	return segs
}

// Decode transcribes pcm: one best-matching word per detected utterance.
func (r *Recognizer) Decode(pcm []float64) ([]string, error) {
	var words []string
	for _, seg := range r.segment(pcm) {
		feats, err := r.frontend.Features(pcm[seg[0]:seg[1]])
		if err != nil {
			return nil, err
		}
		if len(feats) == 0 {
			continue
		}
		bestWord, bestDist := "", math.Inf(1)
		for _, t := range r.templates {
			d, err := DTW(feats, t.Features)
			if err != nil {
				return nil, err
			}
			if d < bestDist {
				bestDist, bestWord = d, t.Word
			}
		}
		words = append(words, bestWord)
	}
	return words, nil
}
