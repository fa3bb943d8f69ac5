// Package speech2text implements workload A11: the Smart City speech-to-text
// converter — the paper's one heavy-weight app. It records one second of
// sound-sensor audio per window and decodes it to text with the MFCC+DTW
// keyword spotter of package speech (the PocketSphinx stand-in).
//
// A11 is heavy on two axes, exactly as §IV-E3 describes: its model footprint
// (1.43 GB) can never fit an MCU, and its compute demand (4683 MIPS,
// memory-bound on the CPU) exceeds what a 19×-slower MCU could finish within
// the QoS window. The classifier in internal/core must therefore refuse to
// offload it, leaving Batching as its only optimization.
package speech2text

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"iothub/internal/apps"
	"iothub/internal/sensor"
	"iothub/internal/speech"
)

// audioRate is the sound sensor's QoS sampling rate.
const audioRate = 1000

// samplesPerWord / gapSamples shape one spoken word per one-second window.
const (
	samplesPerWord = 600
	gapSamples     = 400
)

var spec = apps.Spec{
	ID:       apps.SpeechToTxt,
	Name:     "Speech-To-Text",
	Category: "Smart City",
	Task:     "Voice-to-text conversion",
	// Table II lists 5.86 KB of sensor data per window: 1000 samples of
	// 6 bytes, overriding the sound sensor's 4-byte default (DESIGN.md §5).
	Sensors: []apps.SensorUse{{Sensor: sensor.Sound, BytesPerSmp: 6}},
	Window:  time.Second,

	HeapBytes:  1_430_000_000, // §IV-E3: 1.43 GB model footprint
	StackBytes: 4096,
	MIPS:       4683, // §IV-E3: per second of audio
	Heavy:      true,
	// Memory-bound decode: the CPU sustains a fraction of peak throughput,
	// so converting one second of audio occupies ~0.9 s of CPU time. This
	// is what makes A11's app-specific compute dominate its energy (78% in
	// Fig. 12a) and leaves the CPU no room to sleep — the reason Batching
	// yields only ~5% for heavy-weight apps.
	EffectiveMIPS: 5200,
}

// App is the speech-to-text workload.
type App struct {
	gen        *sensor.AudioSpeech
	recognizer *speech.Recognizer
	utterance  []sensor.AudioWord
}

var _ apps.App = (*App)(nil)

// vocabulary is the keyword set the recognizer is trained on.
var vocabulary = []sensor.AudioWord{
	sensor.WordYes, sensor.WordNo, sensor.WordStop, sensor.WordGo,
}

// model is A11's trained state: the MFCC front-end and one template per
// vocabulary word.
type model struct {
	frontend  *speech.Frontend
	templates []speech.Template
}

// referenceModel renders the templates from a fixed reference speaker
// (seed 0), so the model never depends on an app's seed. It is built once
// per process and shared read-only by every App: the Frontend holds only
// parameters, and neither the template list nor a feature matrix is written
// after this.
var referenceModel = sync.OnceValues(func() (model, error) {
	frontend, err := speech.NewFrontend(audioRate)
	if err != nil {
		return model{}, fmt.Errorf("speech2text: %w", err)
	}
	templates := make([]speech.Template, 0, len(vocabulary))
	for _, w := range vocabulary {
		ref := sensor.NewAudioSpeech(0, audioRate, samplesPerWord, 0, w)
		pcm := make([]float64, samplesPerWord)
		for i := range pcm {
			pcm[i] = ref.PCMAt(i)
		}
		feats, err := frontend.Features(pcm)
		if err != nil {
			return model{}, fmt.Errorf("speech2text: template %s: %w", w, err)
		}
		if len(feats) == 0 {
			return model{}, fmt.Errorf("speech2text: template %s produced no frames", w)
		}
		templates = append(templates, speech.Template{Word: w.String(), Features: feats})
	}
	return model{frontend: frontend, templates: templates}, nil
})

// New returns the workload speaking the given utterance, one word per
// window (defaults to a fixed four-word sequence when empty). Only the
// audio generator and the recognizer are per instance; the recognizer
// matches against the shared reference model.
func New(seed int64, utterance ...sensor.AudioWord) (*App, error) {
	if len(utterance) == 0 {
		utterance = []sensor.AudioWord{
			sensor.WordYes, sensor.WordStop, sensor.WordGo, sensor.WordNo,
		}
	}
	ref, err := referenceModel()
	if err != nil {
		return nil, err
	}
	recognizer, err := speech.NewRecognizer(ref.frontend, ref.templates)
	if err != nil {
		return nil, fmt.Errorf("speech2text: %w", err)
	}
	// Sensor noise sits near RMS 20; spoken formants near 3000. The floor
	// keeps silent windows from being segmented as utterances.
	recognizer.MinRMS = 300
	return &App{
		gen:        sensor.NewAudioSpeech(seed, audioRate, samplesPerWord, gapSamples, utterance...),
		recognizer: recognizer,
		utterance:  utterance,
	}, nil
}

// Spec returns the workload description.
func (a *App) Spec() apps.Spec { return spec }

// Source returns the sound stream.
func (a *App) Source(id sensor.ID) (sensor.Source, error) {
	if id != sensor.Sound {
		return nil, fmt.Errorf("%w: %s", apps.ErrUnknownSensor, id)
	}
	return a.gen, nil
}

// TrueWord reports the ground-truth word spoken in window w.
func (a *App) TrueWord(w int) sensor.AudioWord {
	if w < 0 || w >= len(a.utterance) {
		return sensor.WordSilence
	}
	return a.utterance[w]
}

// Compute decodes the window's audio to text.
func (a *App) Compute(in apps.WindowInput) (apps.Result, error) {
	raw := in.Samples[sensor.Sound]
	if len(raw) == 0 {
		return apps.Result{}, fmt.Errorf("speech2text: window %d has no audio", in.Window)
	}
	pcm := make([]float64, len(raw))
	for i, b := range raw {
		v, err := sensor.DecodePCM(b)
		if err != nil {
			return apps.Result{}, fmt.Errorf("speech2text: sample %d: %w", i, err)
		}
		pcm[i] = float64(v)
	}
	words, err := a.recognizer.Decode(pcm)
	if err != nil {
		return apps.Result{}, fmt.Errorf("speech2text: %w", err)
	}
	text := strings.Join(words, " ")
	return apps.Result{
		Summary:  fmt.Sprintf("transcript: %q", text),
		Upstream: []byte(text),
		Metrics:  map[string]float64{"words": float64(len(words))},
	}, nil
}
