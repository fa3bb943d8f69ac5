package sensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Source produces the raw formatted samples one sensor delivers to an app.
// AppendSample(dst, i) appends the i-th sample since the start of the run to
// dst and returns the extended slice, leaving dst[:len(dst)] untouched, the
// way the append built-in does; AppendSample(nil, i) returns a standalone
// sample. Implementations are deterministic, so the same index always yields
// the same bytes.
type Source interface {
	AppendSample(dst []byte, i int) []byte
}

// lazyRand is a seeded normal-noise generator that builds its rand.Rand on
// the first draw, so a source that is never sampled (a run that skips app
// compute builds every app's sources) never seeds one. The draws are those of
// rand.New(rand.NewSource(seed)).
type lazyRand struct {
	seed int64
	rng  *rand.Rand
}

// NormFloat64 returns the generator's next normally distributed value.
func (l *lazyRand) NormFloat64() float64 {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.seed))
	}
	return l.rng.NormFloat64()
}

// Encoding helpers shared by generators and app-side drivers. All sensors use
// little-endian register layouts.

// AppendF64 appends a float64 sample ("Double" sensors).
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// DecodeF64 parses a float64 sample.
func DecodeF64(b []byte) (float64, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("sensor: double sample is %d bytes, want 8", len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// AppendI32 appends an int32 sample ("Int" sensors).
func AppendI32(dst []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

// DecodeI32 parses an int32 sample.
func DecodeI32(b []byte) (int32, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("sensor: int sample is %d bytes, want 4", len(b))
	}
	return int32(binary.LittleEndian.Uint32(b)), nil
}

// Vec3 is a three-axis integer sample (accelerometer, "Int*3").
type Vec3 struct{ X, Y, Z int32 }

// AppendVec3 appends a 12-byte three-axis sample.
func AppendVec3(dst []byte, v Vec3) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v.X))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Y))
	return binary.LittleEndian.AppendUint32(dst, uint32(v.Z))
}

// DecodeVec3 parses a 12-byte three-axis sample.
func DecodeVec3(b []byte) (Vec3, error) {
	if len(b) < 12 {
		return Vec3{}, fmt.Errorf("sensor: vec3 sample is %d bytes, want 12", len(b))
	}
	return Vec3{
		X: int32(binary.LittleEndian.Uint32(b[0:])),
		Y: int32(binary.LittleEndian.Uint32(b[4:])),
		Z: int32(binary.LittleEndian.Uint32(b[8:])),
	}, nil
}

// AccelWalk generates accelerometer samples of a person walking: gravity on
// Z, a vertical oscillation at StepHz whose positive-going zero crossings are
// steps, plus seeded noise. Units are milli-g, matching the ADXL335's scaled
// register output.
type AccelWalk struct {
	RateHz    float64 // sampling rate
	StepHz    float64 // steps per second
	AmplMilli float64 // oscillation amplitude, milli-g
	Noise     float64 // noise stddev, milli-g
	rng       lazyRand
	noiseAt   int
	noiseVals []float64
}

// NewAccelWalk returns a deterministic walking signal.
func NewAccelWalk(seed int64, rateHz, stepHz float64) *AccelWalk {
	return &AccelWalk{
		RateHz:    rateHz,
		StepHz:    stepHz,
		AmplMilli: 250,
		Noise:     20,
		rng:       lazyRand{seed: seed},
	}
}

// noise returns the i-th noise value, memoized so Sample is a pure function
// of its index even though the underlying generator is sequential.
func (a *AccelWalk) noise(i int) float64 {
	for a.noiseAt <= i {
		a.noiseVals = append(a.noiseVals, a.rng.NormFloat64()*a.Noise)
		a.noiseAt++
	}
	return a.noiseVals[i]
}

// AppendSample appends the 12-byte register image of sample i.
func (a *AccelWalk) AppendSample(dst []byte, i int) []byte {
	t := float64(i) / a.RateHz
	z := 1000 + a.AmplMilli*math.Sin(2*math.Pi*a.StepHz*t) + a.noise(i)
	x := 0.3 * a.AmplMilli * math.Sin(2*math.Pi*a.StepHz*t+math.Pi/3)
	y := 0.2 * a.AmplMilli * math.Cos(2*math.Pi*a.StepHz*t)
	return AppendVec3(dst, Vec3{X: int32(x), Y: int32(y), Z: int32(z)})
}

// TrueSteps reports the number of steps contained in the first n samples.
func (a *AccelWalk) TrueSteps(n int) int {
	return int(a.StepHz * float64(n) / a.RateHz)
}

var _ Source = (*AccelWalk)(nil)

// AccelQuake generates accelerometer background noise with an optional
// earthquake burst (high-amplitude shaking) starting at BurstStart for
// BurstLen samples.
type AccelQuake struct {
	RateHz     float64
	BurstStart int
	BurstLen   int
	rng        lazyRand
	noiseAt    int
	noiseVals  []float64
}

// NewAccelQuake returns a deterministic seismic signal. burstStart < 0 means
// no event.
func NewAccelQuake(seed int64, rateHz float64, burstStart, burstLen int) *AccelQuake {
	return &AccelQuake{
		RateHz:     rateHz,
		BurstStart: burstStart,
		BurstLen:   burstLen,
		rng:        lazyRand{seed: seed},
	}
}

func (q *AccelQuake) noise(i int) float64 {
	for q.noiseAt <= i {
		q.noiseVals = append(q.noiseVals, q.rng.NormFloat64())
		q.noiseAt++
	}
	return q.noiseVals[i]
}

// AppendSample appends the 12-byte register image of sample i.
func (q *AccelQuake) AppendSample(dst []byte, i int) []byte {
	base := q.noise(i) * 5 // quiescent ground noise, milli-g
	if q.BurstStart >= 0 && i >= q.BurstStart && i < q.BurstStart+q.BurstLen {
		t := float64(i-q.BurstStart) / q.RateHz
		base += 400 * math.Exp(-t*2) * math.Sin(2*math.Pi*12*t)
	}
	return AppendVec3(dst, Vec3{X: int32(base), Y: int32(base / 2), Z: int32(1000 + base)})
}

// HasEvent reports whether the first n samples contain the burst.
func (q *AccelQuake) HasEvent(n int) bool {
	return q.BurstStart >= 0 && q.BurstStart < n
}

var _ Source = (*AccelQuake)(nil)

// ECGWave generates a pulse-sensor waveform: an R-peak spike train at BPM
// with baseline wander and noise. Indices listed in Irregular have their
// preceding RR interval stretched by 50%, which the heartbeat app must flag.
type ECGWave struct {
	RateHz    float64
	BPM       float64
	Irregular map[int]bool // beat index -> irregular
	rng       lazyRand
	peaks     []int // sample indices of R peaks, grown on demand
	noiseAt   int
	noiseVals []float64
}

// NewECGWave returns a deterministic ECG-like signal. irregularBeats lists
// beat ordinals whose RR interval is stretched.
func NewECGWave(seed int64, rateHz, bpm float64, irregularBeats ...int) *ECGWave {
	irr := make(map[int]bool, len(irregularBeats))
	for _, b := range irregularBeats {
		irr[b] = true
	}
	return &ECGWave{
		RateHz:    rateHz,
		BPM:       bpm,
		Irregular: irr,
		rng:       lazyRand{seed: seed},
	}
}

func (e *ECGWave) noise(i int) float64 {
	for e.noiseAt <= i {
		e.noiseVals = append(e.noiseVals, e.rng.NormFloat64()*8)
		e.noiseAt++
	}
	return e.noiseVals[i]
}

// peakIndex returns the sample index of the k-th R peak.
func (e *ECGWave) peakIndex(k int) int {
	rr := e.RateHz * 60 / e.BPM
	for len(e.peaks) <= k {
		beat := len(e.peaks)
		interval := rr
		if e.Irregular[beat] {
			interval = rr * 1.5
		}
		prev := 0
		if beat > 0 {
			prev = e.peaks[beat-1]
		}
		e.peaks = append(e.peaks, prev+int(interval))
	}
	return e.peaks[k]
}

// AppendSample appends the 4-byte register image of sample i (ADC counts).
func (e *ECGWave) AppendSample(dst []byte, i int) []byte {
	v := 512 + 30*math.Sin(2*math.Pi*0.3*float64(i)/e.RateHz) + e.noise(i)
	// Superimpose the nearest R peak as a narrow triangular spike.
	for k := 0; ; k++ {
		p := e.peakIndex(k)
		if p > i+int(e.RateHz/10) {
			break
		}
		d := math.Abs(float64(i - p))
		width := e.RateHz / 50 // 20 ms half-width
		if d < width {
			v += 400 * (1 - d/width)
		}
	}
	return AppendI32(dst, int32(v))
}

// TrueBeats reports how many R peaks fall in the first n samples.
func (e *ECGWave) TrueBeats(n int) int {
	count := 0
	for k := 0; ; k++ {
		if e.peakIndex(k) >= n {
			return count
		}
		count++
	}
}

var _ Source = (*ECGWave)(nil)

// AudioWord is a known utterance the speech generator can produce.
type AudioWord int

// The keyword vocabulary of the speech-to-text workload.
const (
	WordSilence AudioWord = iota
	WordYes
	WordNo
	WordStop
	WordGo
)

// String returns the transcript token for the word.
func (w AudioWord) String() string {
	switch w {
	case WordSilence:
		return ""
	case WordYes:
		return "yes"
	case WordNo:
		return "no"
	case WordStop:
		return "stop"
	case WordGo:
		return "go"
	default:
		return fmt.Sprintf("word(%d)", int(w))
	}
}

// wordFormants gives each vocabulary word a distinct two-formant signature.
var wordFormants = map[AudioWord][2]float64{
	WordYes:  {320, 1900},
	WordNo:   {450, 900},
	WordStop: {600, 1400},
	WordGo:   {250, 700},
}

// AudioSpeech generates a sound-sensor stream: a sequence of Words, each
// Spoken for WordLen samples with gaps of silence. Samples are 6 bytes
// (three 16-bit channels) to match Table II's A11 data volume.
type AudioSpeech struct {
	RateHz  float64
	Words   []AudioWord
	WordLen int // samples per word
	GapLen  int // silence samples between words
	rng     lazyRand
	nAt     int
	nVals   []float64
}

// NewAudioSpeech returns a deterministic utterance sequence.
func NewAudioSpeech(seed int64, rateHz float64, wordLen, gapLen int, words ...AudioWord) *AudioSpeech {
	return &AudioSpeech{
		RateHz:  rateHz,
		Words:   words,
		WordLen: wordLen,
		GapLen:  gapLen,
		rng:     lazyRand{seed: seed},
	}
}

func (a *AudioSpeech) noise(i int) float64 {
	for a.nAt <= i {
		a.nVals = append(a.nVals, a.rng.NormFloat64()*20)
		a.nAt++
	}
	return a.nVals[i]
}

// WordAt reports which word sample i belongs to (WordSilence in gaps or
// beyond the utterance list).
func (a *AudioSpeech) WordAt(i int) AudioWord {
	span := a.WordLen + a.GapLen
	if span <= 0 {
		return WordSilence
	}
	idx := i / span
	if idx >= len(a.Words) {
		return WordSilence
	}
	if i%span >= a.WordLen {
		return WordSilence
	}
	return a.Words[idx]
}

// PCMAt returns the scalar PCM value of sample i.
func (a *AudioSpeech) PCMAt(i int) float64 {
	w := a.WordAt(i)
	v := a.noise(i)
	if w != WordSilence {
		f := wordFormants[w]
		t := float64(i) / a.RateHz
		v += 2500*math.Sin(2*math.Pi*f[0]*t) + 1500*math.Sin(2*math.Pi*f[1]*t)
	}
	return v
}

// AppendSample appends the 6-byte register image of sample i.
func (a *AudioSpeech) AppendSample(dst []byte, i int) []byte {
	main := int16(clamp(a.PCMAt(i), -32000, 32000))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(main))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(main/2))
	return binary.LittleEndian.AppendUint16(dst, uint16(main/4))
}

var _ Source = (*AudioSpeech)(nil)

// DecodePCM extracts the primary channel from a 6-byte audio sample.
func DecodePCM(b []byte) (int16, error) {
	if len(b) < 2 {
		return 0, fmt.Errorf("sensor: audio sample is %d bytes, want >=2", len(b))
	}
	return int16(binary.LittleEndian.Uint16(b)), nil
}

func clamp(v, lo, hi float64) float64 {
	return math.Min(hi, math.Max(lo, v))
}

// ScalarKind selects the waveform family of a scalar environmental source.
type ScalarKind int

// Scalar waveform families.
const (
	ScalarPressure ScalarKind = iota + 1
	ScalarTemperature
	ScalarAirQuality
	ScalarLight
	ScalarSoundLevel
	ScalarDistance
)

// Scalar generates slowly varying environmental readings (barometer,
// temperature, air quality, light, sound level, ultrasonic distance) as a
// seeded random walk around a baseline.
type Scalar struct {
	Kind     ScalarKind
	Base     float64
	Step     float64
	AsInt    bool // encode as Int (4 B) rather than Double (8 B)
	rng      lazyRand
	walkAt   int
	walkVals []float64
}

// NewScalar returns a deterministic environmental source for the given
// sensor, with baselines in the sensor's natural units.
func NewScalar(seed int64, kind ScalarKind) *Scalar {
	s := &Scalar{Kind: kind, rng: lazyRand{seed: seed}}
	switch kind {
	case ScalarPressure:
		s.Base, s.Step = 101325, 2
	case ScalarTemperature:
		s.Base, s.Step = 22.5, 0.02
	case ScalarAirQuality:
		s.Base, s.Step, s.AsInt = 420, 3, true
	case ScalarLight:
		s.Base, s.Step = 300, 4
	case ScalarSoundLevel:
		s.Base, s.Step, s.AsInt = 48, 1.5, true
	case ScalarDistance:
		s.Base, s.Step = 1.8, 0.01
	}
	return s
}

// ValueAt returns the scalar value of sample i.
func (s *Scalar) ValueAt(i int) float64 {
	for s.walkAt <= i {
		prev := s.Base
		if s.walkAt > 0 {
			prev = s.walkVals[s.walkAt-1]
		}
		s.walkVals = append(s.walkVals, prev+s.rng.NormFloat64()*s.Step)
		s.walkAt++
	}
	return s.walkVals[i]
}

// AppendSample appends the register image of sample i.
func (s *Scalar) AppendSample(dst []byte, i int) []byte {
	v := s.ValueAt(i)
	if s.AsInt {
		return AppendI32(dst, int32(v))
	}
	return AppendF64(dst, v)
}

var _ Source = (*Scalar)(nil)

// Frame generates deterministic raw RGB camera frames: a gradient background
// with a bright seeded rectangle, enough structure for the JPEG codec to
// exercise all its paths. Width×Height×3 must match the sensor's SampleBytes
// budget or less; the LowResImage sensor delivers SampleBytes bytes and the
// frame is truncated or zero-padded to that size by FixedSize.
type Frame struct {
	Width, Height int
	seed          int64
}

// NewFrame returns a deterministic frame source.
func NewFrame(seed int64, width, height int) *Frame {
	return &Frame{Width: width, Height: height, seed: seed}
}

// AppendSample appends the raw w×h×3 pixel buffer of frame i.
func (f *Frame) AppendSample(dst []byte, i int) []byte {
	rng := rand.New(rand.NewSource(f.seed + int64(i)*7919))
	at := len(dst)
	dst = append(dst, make([]byte, f.Width*f.Height*3)...)
	buf := dst[at:]
	rx, ry := rng.Intn(f.Width/2), rng.Intn(f.Height/2)
	rw, rh := f.Width/4+1, f.Height/4+1
	for y := 0; y < f.Height; y++ {
		for x := 0; x < f.Width; x++ {
			o := (y*f.Width + x) * 3
			r := byte((x * 255) / f.Width)
			g := byte((y * 255) / f.Height)
			b := byte((x + y) % 256)
			if x >= rx && x < rx+rw && y >= ry && y < ry+rh {
				r, g, b = 250, 250, 240
			}
			buf[o], buf[o+1], buf[o+2] = r, g, b
		}
	}
	return dst
}

var _ Source = (*Frame)(nil)

// FixedSize wraps a source so every sample is exactly n bytes (truncating or
// zero-padding), matching a sensor's formatted SampleBytes.
type FixedSize struct {
	Src Source
	N   int
}

// AppendSample appends the wrapped sample normalized to N bytes.
func (f FixedSize) AppendSample(dst []byte, i int) []byte {
	at := len(dst)
	dst = f.Src.AppendSample(dst, i)
	if n := len(dst) - at; n < f.N {
		return append(dst, make([]byte, f.N-n)...)
	}
	return dst[:at+f.N]
}

var _ Source = FixedSize{}

// Signature generates deterministic 512-byte fingerprint signatures. Frames
// for the same finger differ by seeded per-scan noise; different fingers are
// far apart in Hamming distance.
type Signature struct {
	Finger int
	seed   int64
}

// NewSignature returns a signature source for the given finger identity.
func NewSignature(seed int64, finger int) *Signature {
	return &Signature{Finger: finger, seed: seed}
}

// FingerTemplate returns the noiseless signature of a finger — what
// enrollment stores.
func FingerTemplate(finger int) []byte {
	rng := rand.New(rand.NewSource(int64(finger)*104729 + 17))
	b := make([]byte, 512)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// AppendSample appends scan i of the finger: the template with ~1% of bits
// flipped by scan noise.
func (s *Signature) AppendSample(dst []byte, i int) []byte {
	at := len(dst)
	dst = append(dst, FingerTemplate(s.Finger)...)
	b := dst[at:]
	rng := rand.New(rand.NewSource(s.seed + int64(i)*31337))
	flips := len(b) * 8 / 100
	for k := 0; k < flips; k++ {
		bit := rng.Intn(len(b) * 8)
		b[bit/8] ^= 1 << (bit % 8)
	}
	return dst
}

var _ Source = (*Signature)(nil)

// DefaultSource returns a sensible generator for a sensor when an app has no
// special ground-truth needs, keyed by the sensor's Table I row.
func DefaultSource(id ID, seed int64) (Source, error) {
	sp, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	switch id {
	case Barometer:
		return NewScalar(seed, ScalarPressure), nil
	case Temperature:
		return NewScalar(seed, ScalarTemperature), nil
	case Fingerprint:
		return NewSignature(seed, 1), nil
	case Accelerometer:
		return NewAccelWalk(seed, sp.QoSRateHz, 2), nil
	case AirQuality:
		return NewScalar(seed, ScalarAirQuality), nil
	case Pulse:
		return NewECGWave(seed, sp.QoSRateHz, 72), nil
	case Light:
		return NewScalar(seed, ScalarLight), nil
	case Sound:
		return NewScalar(seed, ScalarSoundLevel), nil
	case Distance:
		return NewScalar(seed, ScalarDistance), nil
	case LowResImage:
		return FixedSize{Src: NewFrame(seed, 96, 84), N: sp.SampleBytes}, nil
	case HighResImage:
		return FixedSize{Src: NewFrame(seed, 512, 412), N: sp.SampleBytes}, nil
	default:
		return nil, fmt.Errorf("sensor: no default source for %q", id)
	}
}
