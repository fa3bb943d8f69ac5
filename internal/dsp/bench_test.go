package dsp

import (
	"math"
	"testing"
)

func benchSignal(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2*math.Pi*7*float64(i)/float64(n)) + 0.3*math.Sin(2*math.Pi*41*float64(i)/float64(n))
	}
	return out
}

func BenchmarkFFT1024(b *testing.B) {
	sig := benchSignal(1024)
	cs := make([]complex128, len(sig))
	for i, x := range sig {
		cs[i] = complex(x, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT(cs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTALTA(b *testing.B) {
	sig := benchSignal(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := STALTA(sig, 20, 150); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindPeaks(b *testing.B) {
	sig := benchSignal(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindPeaks(sig, 0.5, 20)
	}
}

func BenchmarkMedianFilter(b *testing.B) {
	sig := benchSignal(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MedianFilter(sig, 5)
	}
}
