package speech

import (
	"math"
	"testing"

	"iothub/internal/sensor"
)

const rate = 8000

// wordPCM renders one spoken word as PCM via the sensor generator.
func wordPCM(t *testing.T, w sensor.AudioWord, n int) []float64 {
	t.Helper()
	gen := sensor.NewAudioSpeech(1, rate, n, 0, w)
	pcm := make([]float64, n)
	for i := range pcm {
		pcm[i] = gen.PCMAt(i)
	}
	return pcm
}

func templates(t *testing.T, f *Frontend) []Template {
	t.Helper()
	words := []sensor.AudioWord{sensor.WordYes, sensor.WordNo, sensor.WordStop, sensor.WordGo}
	out := make([]Template, 0, len(words))
	for _, w := range words {
		feats, err := f.Features(wordPCM(t, w, rate/4))
		if err != nil {
			t.Fatalf("template features: %v", err)
		}
		out = append(out, Template{Word: w.String(), Features: feats})
	}
	return out
}

func TestNewFrontendValidation(t *testing.T) {
	if _, err := NewFrontend(0); err == nil {
		t.Error("zero rate accepted")
	}
	f, err := NewFrontend(rate)
	if err != nil {
		t.Fatal(err)
	}
	if f.FrameLen&(f.FrameLen-1) != 0 {
		t.Errorf("FrameLen %d not power of two", f.FrameLen)
	}
	if f.FrameLen < 128 || f.FrameLen > 1024 {
		t.Errorf("FrameLen %d unreasonable for 8 kHz", f.FrameLen)
	}
}

func TestFeaturesShape(t *testing.T) {
	f, err := NewFrontend(rate)
	if err != nil {
		t.Fatal(err)
	}
	pcm := wordPCM(t, sensor.WordYes, rate/2)
	feats, err := f.Features(pcm)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := (len(pcm)-f.FrameLen)/f.Hop + 1
	if len(feats) != wantFrames {
		t.Errorf("frames = %d, want %d", len(feats), wantFrames)
	}
	for _, fr := range feats {
		if len(fr) != f.NumCoeffs {
			t.Fatalf("coeffs = %d, want %d", len(fr), f.NumCoeffs)
		}
		for _, c := range fr {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatal("non-finite MFCC coefficient")
			}
		}
	}
	// Shorter than one frame: no features, no error.
	short, err := f.Features(pcm[:10])
	if err != nil || len(short) != 0 {
		t.Errorf("short input: %v, %d frames", err, len(short))
	}
}

func TestFeaturesDistinguishWords(t *testing.T) {
	f, err := NewFrontend(rate)
	if err != nil {
		t.Fatal(err)
	}
	yes, err := f.Features(wordPCM(t, sensor.WordYes, rate/4))
	if err != nil {
		t.Fatal(err)
	}
	yes2, err := f.Features(wordPCM(t, sensor.WordYes, rate/4))
	if err != nil {
		t.Fatal(err)
	}
	no, err := f.Features(wordPCM(t, sensor.WordNo, rate/4))
	if err != nil {
		t.Fatal(err)
	}
	same, err := DTW(yes, yes2)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := DTW(yes, no)
	if err != nil {
		t.Fatal(err)
	}
	if same >= diff {
		t.Errorf("DTW(yes,yes)=%.3f not below DTW(yes,no)=%.3f", same, diff)
	}
}

func TestDTWProperties(t *testing.T) {
	f, err := NewFrontend(rate)
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Features(wordPCM(t, sensor.WordStop, rate/4))
	if err != nil {
		t.Fatal(err)
	}
	self, err := DTW(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if self > 1e-9 {
		t.Errorf("DTW(a,a) = %v, want 0", self)
	}
	if _, err := DTW(nil, a); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestNewRecognizerValidation(t *testing.T) {
	f, err := NewFrontend(rate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecognizer(nil, templates(t, f)); err == nil {
		t.Error("nil frontend accepted")
	}
	if _, err := NewRecognizer(f, nil); err == nil {
		t.Error("no templates accepted")
	}
	if _, err := NewRecognizer(f, []Template{{Word: "x"}}); err == nil {
		t.Error("empty template accepted")
	}
}

func TestDecodeTranscribesSequence(t *testing.T) {
	f, err := NewFrontend(rate)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecognizer(f, templates(t, f))
	if err != nil {
		t.Fatal(err)
	}
	utterance := []sensor.AudioWord{sensor.WordYes, sensor.WordStop, sensor.WordGo}
	gen := sensor.NewAudioSpeech(3, rate, rate/4, rate/4, utterance...)
	total := len(utterance) * (rate / 4 * 2)
	pcm := make([]float64, total)
	for i := range pcm {
		pcm[i] = gen.PCMAt(i)
	}
	words, err := rec.Decode(pcm)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(words) != len(utterance) {
		t.Fatalf("decoded %d words (%v), want %d", len(words), words, len(utterance))
	}
	for i, w := range utterance {
		if words[i] != w.String() {
			t.Errorf("word %d = %q, want %q", i, words[i], w)
		}
	}
}

func TestDecodeSilenceYieldsNothing(t *testing.T) {
	f, err := NewFrontend(rate)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecognizer(f, templates(t, f))
	if err != nil {
		t.Fatal(err)
	}
	words, err := rec.Decode(make([]float64, rate))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(words) != 0 {
		t.Errorf("decoded %v from silence", words)
	}
}
