package sensor

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeF64(t *testing.T) {
	f := func(v float64) bool {
		got, err := DecodeF64(AppendF64(nil, v))
		if err != nil {
			return false
		}
		return got == v || (math.IsNaN(got) && math.IsNaN(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeI32(t *testing.T) {
	f := func(v int32) bool {
		got, err := DecodeI32(AppendI32(nil, v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeVec3(t *testing.T) {
	f := func(x, y, z int32) bool {
		got, err := DecodeVec3(AppendVec3(nil, Vec3{x, y, z}))
		return err == nil && got == (Vec3{x, y, z})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeShortBuffers(t *testing.T) {
	if _, err := DecodeF64(make([]byte, 7)); err == nil {
		t.Error("DecodeF64 short buffer: want error")
	}
	if _, err := DecodeI32(make([]byte, 3)); err == nil {
		t.Error("DecodeI32 short buffer: want error")
	}
	if _, err := DecodeVec3(make([]byte, 11)); err == nil {
		t.Error("DecodeVec3 short buffer: want error")
	}
	if _, err := DecodePCM(make([]byte, 1)); err == nil {
		t.Error("DecodePCM short buffer: want error")
	}
}

func TestAccelWalkDeterministic(t *testing.T) {
	a := NewAccelWalk(42, 1000, 2)
	b := NewAccelWalk(42, 1000, 2)
	for i := 0; i < 100; i++ {
		if !bytes.Equal(a.AppendSample(nil, i), b.AppendSample(nil, i)) {
			t.Fatalf("sample %d differs between same-seed generators", i)
		}
	}
	// Pure function of index: revisiting an index yields the same bytes.
	s50 := a.AppendSample(nil, 50)
	a.AppendSample(nil, 99)
	if !bytes.Equal(a.AppendSample(nil, 50), s50) {
		t.Error("Sample(50) changed after reading later indices")
	}
}

func TestAccelWalkTrueSteps(t *testing.T) {
	a := NewAccelWalk(1, 1000, 2)
	if got := a.TrueSteps(1000); got != 2 {
		t.Errorf("TrueSteps(1000) = %d, want 2", got)
	}
	if got := a.TrueSteps(5000); got != 10 {
		t.Errorf("TrueSteps(5000) = %d, want 10", got)
	}
}

func TestAccelWalkSampleShape(t *testing.T) {
	a := NewAccelWalk(7, 1000, 2)
	v, err := DecodeVec3(a.AppendSample(nil, 0))
	if err != nil {
		t.Fatalf("DecodeVec3: %v", err)
	}
	if v.Z < 500 || v.Z > 1500 {
		t.Errorf("Z = %d, want near 1000 milli-g", v.Z)
	}
}

func TestAccelQuakeBurstRaisesAmplitude(t *testing.T) {
	q := NewAccelQuake(3, 1000, 500, 200)
	quiet, loud := 0.0, 0.0
	for i := 0; i < 200; i++ {
		v, err := DecodeVec3(q.AppendSample(nil, i))
		if err != nil {
			t.Fatal(err)
		}
		quiet += math.Abs(float64(v.Z - 1000))
	}
	for i := 500; i < 700; i++ {
		v, err := DecodeVec3(q.AppendSample(nil, i))
		if err != nil {
			t.Fatal(err)
		}
		loud += math.Abs(float64(v.Z - 1000))
	}
	if loud < 4*quiet {
		t.Errorf("burst amplitude %.0f not ≫ quiet %.0f", loud, quiet)
	}
	if !q.HasEvent(1000) {
		t.Error("HasEvent(1000) = false, want true")
	}
	if q.HasEvent(400) {
		t.Error("HasEvent(400) = true, want false (burst at 500)")
	}
	noEvent := NewAccelQuake(3, 1000, -1, 0)
	if noEvent.HasEvent(10000) {
		t.Error("no-event generator reports event")
	}
}

func TestECGWaveBeatCount(t *testing.T) {
	e := NewECGWave(9, 1000, 60)
	// 60 BPM at 1 kHz: peaks at 1000, 2000, ... so 4 full beats in 5000
	// samples (peak 0 at sample 1000).
	got := e.TrueBeats(5000)
	if got < 4 || got > 5 {
		t.Errorf("TrueBeats(5000) = %d, want 4..5", got)
	}
}

func TestECGWaveIrregularStretchesInterval(t *testing.T) {
	reg := NewECGWave(9, 1000, 60)
	irr := NewECGWave(9, 1000, 60, 2)
	if reg.peakIndex(2) >= irr.peakIndex(2) {
		t.Errorf("irregular beat 2 at %d not later than regular %d",
			irr.peakIndex(2), reg.peakIndex(2))
	}
}

func TestECGWavePeaksVisible(t *testing.T) {
	e := NewECGWave(11, 1000, 60)
	p := e.peakIndex(0)
	vPeak, err := DecodeI32(e.AppendSample(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	vBase, err := DecodeI32(e.AppendSample(nil, p+200))
	if err != nil {
		t.Fatal(err)
	}
	if vPeak < vBase+200 {
		t.Errorf("peak %d not prominent over baseline %d", vPeak, vBase)
	}
}

func TestAudioSpeechWordAt(t *testing.T) {
	a := NewAudioSpeech(5, 8000, 100, 50, WordYes, WordNo)
	if got := a.WordAt(10); got != WordYes {
		t.Errorf("WordAt(10) = %v, want yes", got)
	}
	if got := a.WordAt(120); got != WordSilence {
		t.Errorf("WordAt(120) = %v, want silence (gap)", got)
	}
	if got := a.WordAt(160); got != WordNo {
		t.Errorf("WordAt(160) = %v, want no", got)
	}
	if got := a.WordAt(10_000); got != WordSilence {
		t.Errorf("WordAt(10000) = %v, want silence", got)
	}
}

func TestAudioSpeechSampleSizeAndEnergy(t *testing.T) {
	a := NewAudioSpeech(5, 8000, 200, 100, WordStop)
	if got := len(a.AppendSample(nil, 0)); got != 6 {
		t.Fatalf("sample size = %d, want 6", got)
	}
	var inWord, inGap float64
	for i := 0; i < 200; i++ {
		v, err := DecodePCM(a.AppendSample(nil, i))
		if err != nil {
			t.Fatal(err)
		}
		inWord += math.Abs(float64(v))
	}
	for i := 200; i < 300; i++ {
		v, err := DecodePCM(a.AppendSample(nil, i))
		if err != nil {
			t.Fatal(err)
		}
		inGap += math.Abs(float64(v))
	}
	if inWord < 10*inGap {
		t.Errorf("word energy %.0f not ≫ gap energy %.0f", inWord, inGap)
	}
}

func TestAudioWordString(t *testing.T) {
	if WordYes.String() != "yes" || WordGo.String() != "go" || WordSilence.String() != "" {
		t.Error("AudioWord labels wrong")
	}
	if AudioWord(99).String() != "word(99)" {
		t.Error("unknown AudioWord label wrong")
	}
}

func TestScalarBaselines(t *testing.T) {
	cases := []struct {
		kind ScalarKind
		lo   float64
		hi   float64
	}{
		{ScalarPressure, 100000, 103000},
		{ScalarTemperature, 15, 30},
		{ScalarAirQuality, 300, 600},
		{ScalarLight, 100, 600},
		{ScalarSoundLevel, 20, 90},
		{ScalarDistance, 1, 3},
	}
	for _, c := range cases {
		s := NewScalar(77, c.kind)
		v := s.ValueAt(10)
		if v < c.lo || v > c.hi {
			t.Errorf("kind %d value %v outside [%v,%v]", c.kind, v, c.lo, c.hi)
		}
	}
}

func TestScalarEncoding(t *testing.T) {
	f := NewScalar(1, ScalarPressure)
	if got := len(f.AppendSample(nil, 0)); got != 8 {
		t.Errorf("pressure sample = %d bytes, want 8", got)
	}
	i := NewScalar(1, ScalarAirQuality)
	if got := len(i.AppendSample(nil, 0)); got != 4 {
		t.Errorf("air-quality sample = %d bytes, want 4", got)
	}
}

func TestScalarPureFunctionOfIndex(t *testing.T) {
	s := NewScalar(13, ScalarTemperature)
	v5 := s.ValueAt(5)
	s.ValueAt(50)
	if s.ValueAt(5) != v5 {
		t.Error("ValueAt(5) changed after reading later indices")
	}
}

func TestFrameDeterministicAndSized(t *testing.T) {
	f := NewFrame(21, 32, 24)
	a, b := f.AppendSample(nil, 3), f.AppendSample(nil, 3)
	if !bytes.Equal(a, b) {
		t.Error("frame not deterministic")
	}
	if len(a) != 32*24*3 {
		t.Errorf("frame size = %d, want %d", len(a), 32*24*3)
	}
	if bytes.Equal(f.AppendSample(nil, 0), f.AppendSample(nil, 1)) {
		t.Error("consecutive frames identical, want seeded variation")
	}
}

func TestFixedSizePadsAndTruncates(t *testing.T) {
	f := NewFrame(1, 8, 8) // 192 bytes
	pad := FixedSize{Src: f, N: 300}
	if got := len(pad.AppendSample(nil, 0)); got != 300 {
		t.Errorf("padded size = %d, want 300", got)
	}
	trunc := FixedSize{Src: f, N: 100}
	if got := len(trunc.AppendSample(nil, 0)); got != 100 {
		t.Errorf("truncated size = %d, want 100", got)
	}
	exact := FixedSize{Src: f, N: 192}
	if got := len(exact.AppendSample(nil, 0)); got != 192 {
		t.Errorf("exact size = %d, want 192", got)
	}
}

func TestSignatureNearTemplateSameFingerFarOtherwise(t *testing.T) {
	src := NewSignature(4, 1)
	tmpl1 := FingerTemplate(1)
	tmpl2 := FingerTemplate(2)
	scan := src.AppendSample(nil, 0)
	d1 := hamming(scan, tmpl1)
	d2 := hamming(scan, tmpl2)
	if d1*10 > d2 {
		t.Errorf("same-finger distance %d not ≪ other-finger %d", d1, d2)
	}
	if got := len(scan); got != 512 {
		t.Errorf("signature size = %d, want 512", got)
	}
}

func TestDefaultSourceCoversAllSensors(t *testing.T) {
	for _, sp := range All() {
		src, err := DefaultSource(sp.ID, 1)
		if err != nil {
			t.Fatalf("DefaultSource(%s): %v", sp.ID, err)
		}
		got := len(src.AppendSample(nil, 0))
		// Non-fixed sources must match the spec size exactly for the data
		// volumes of Table II to come out right; image sources are wrapped.
		if got != sp.SampleBytes && sp.ID != Accelerometer {
			t.Errorf("%s default sample = %d bytes, want %d", sp.ID, got, sp.SampleBytes)
		}
	}
	if _, err := DefaultSource("S99", 1); err == nil {
		t.Error("DefaultSource(S99) succeeded, want error")
	}
}

func hamming(a, b []byte) int {
	d := 0
	for i := range a {
		x := a[i] ^ b[i]
		for x != 0 {
			d += int(x & 1)
			x >>= 1
		}
	}
	return d
}

// Every source appends exactly its standalone sample and never writes into
// the prefix it was handed, whether the append fits the spare capacity or
// must reallocate. The spare capacity is dirtied first, so a source that
// reslices instead of writing every byte (FixedSize's zero padding) shows.
func TestAppendSampleKeepsPrefix(t *testing.T) {
	sources := map[string]Source{
		"AccelWalk":      NewAccelWalk(3, 1000, 2),
		"AccelQuake":     NewAccelQuake(3, 1000, 10, 40),
		"ECGWave":        NewECGWave(3, 500, 72, 1),
		"AudioSpeech":    NewAudioSpeech(3, 8000, 20, 10, WordYes, WordStop),
		"Scalar/double":  NewScalar(3, ScalarLight),
		"Scalar/int":     NewScalar(3, ScalarSoundLevel),
		"Frame":          NewFrame(3, 8, 6),
		"FixedSize/pad":  FixedSize{Src: NewFrame(3, 8, 6), N: 200},
		"FixedSize/trim": FixedSize{Src: NewFrame(3, 8, 6), N: 100},
		"Signature":      NewSignature(3, 2),
	}
	prefix := []byte("head")
	for name, src := range sources {
		for _, i := range []int{0, 1, 37} {
			want := src.AppendSample(nil, i)
			for _, spare := range []int{0, 1024} {
				dirty := bytes.Repeat([]byte{0xA5}, len(prefix)+spare)
				dst := append(dirty[:0], prefix...)
				got := src.AppendSample(dst, i)
				if !bytes.Equal(dst, prefix) || !bytes.Equal(got[:len(prefix)], prefix) {
					t.Errorf("%s sample %d (spare %d): prefix overwritten", name, i, spare)
				}
				if !bytes.Equal(got[len(prefix):], want) {
					t.Errorf("%s sample %d (spare %d): appended %d bytes that differ from AppendSample(nil, %d) (%d bytes)",
						name, i, spare, len(got)-len(prefix), i, len(want))
				}
			}
		}
	}
}

// The bytes every default source delivers are pinned: the SHA-256 of the
// first 64 samples at seed 1, recorded from the allocating Sample(i)
// interface this one replaced.
func TestDefaultSourceBytesPinned(t *testing.T) {
	want := map[ID]string{
		Barometer:     "2616462cefb5a155b8df26f5667b577c950abd6784254361b17024ab538767d8",
		Temperature:   "af9aa8928f0480a6eb07f38788a12d2cf748114f9d48b6d90974b55b5f5642a1",
		Fingerprint:   "c7f21fae593d1823d3d4f8439bd24ad5405173a0152cb6495b1082d34be501bb",
		Accelerometer: "04b1c255b7e2a5847c7909a8881a70e781f3af18a0587ab79e482d77ceaabd6d",
		AirQuality:    "31fa41c1bc11ca99fa250be6f81c9f096c553299aae2befc8ffaa1a876132d9d",
		Pulse:         "4fc075ec23bce8851c6b58db505d57b902d40c4a60ba75c56c38b1d528e65ace",
		Light:         "c0f547820c7f0fbd57637c734dd86e09f9fe560c1140e2c7417de2c03eb15956",
		Sound:         "acddb4aaff1808979ea2c2ecfeccac68539e724d2169c3f85a6de427639b9883",
		Distance:      "782a0e3eddead7e7a2eaceee63c6c0d517bcd94f39f48e54dd2f0bb39b461314",
		LowResImage:   "8f1cb0483019fc20a8da93db13cd4cd1b413c9fd02b36a7bac0f2a6b6b7b524b",
		HighResImage:  "e78966e5bf7537ea16c826f76d239a45cacf1a27222b61278c9a272010dfe31e",
	}
	for _, sp := range All() {
		src, err := DefaultSource(sp.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf []byte
		for i := 0; i < 64; i++ {
			buf = src.AppendSample(buf[:0], i)
			h.Write(buf)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[sp.ID] {
			t.Errorf("%s: first 64 samples hash to %s, want %s", sp.ID, got, want[sp.ID])
		}
	}
}
