package scheme

import (
	"fmt"
	"time"

	"iothub/internal/sensor"
)

// StreamSpec describes one physical sampling schedule before the conductor
// binds it to the event kernel: which sensor, how often, how wide, and which
// apps consume it at which strides. Under the dedicated topology every
// (app, sensor) pair is its own stream; under BEAM's shared topology a
// sensor's users share one stream at the fastest requested rate.
type StreamSpec struct {
	// Sensor and Spec identify the physical device.
	Sensor sensor.ID
	Spec   sensor.Spec
	// Bytes is the per-sample payload (the widest consumer's, under sharing).
	Bytes int
	// PerWindow is the stream's sampling rate (the fastest consumer's).
	PerWindow int
	// Period is the sampling interval (Window / PerWindow).
	Period time.Duration
	// Track names the energy-meter track the stream's reads charge.
	Track string
	// Consumers lists the apps fed by the stream.
	Consumers []Consumer
}

// Consumer binds one app to a stream: the app takes every Stride-th sample
// (BEAM's integer downsampling for rate-mismatched sharers; 1 elsewhere).
type Consumer struct {
	// App is the app's position in ConfigView.Specs.
	App    int
	Stride int
}

// planStreams lays out every scheme's topology. Each (app, sensor) use joins
// a stream in first-use order. Unshared, every use is its own stream at the
// app's rate, energy tracked per pair. Shared (BEAM), a sensor's users join
// one stream at the fastest requested rate and the widest sample, energy
// tracked per sensor (the read is physically shared), and slower consumers
// take strided samples; rates must divide evenly, as BEAM downsamples by
// integer factors.
func planStreams(v ConfigView, shared bool) ([]StreamSpec, error) {
	var out []StreamSpec
	for i, sp := range v.Specs {
		for _, u := range sp.Sensors {
			perWindow, err := sp.SamplesPerWindow(u.Sensor)
			if err != nil {
				return nil, err
			}
			bytes, err := u.SampleBytes()
			if err != nil {
				return nil, err
			}
			k := len(out)
			for j := range out {
				if shared && out[j].Sensor == u.Sensor {
					k = j
				}
			}
			if k == len(out) {
				sspec, err := sensor.Lookup(u.Sensor)
				if err != nil {
					return nil, err
				}
				var track string
				if shared {
					track = fmt.Sprintf("sensor:%s", u.Sensor)
				} else {
					track = fmt.Sprintf("sensor:%s:%s", u.Sensor, sp.ID)
				}
				out = append(out, StreamSpec{Sensor: u.Sensor, Spec: sspec, Track: track})
			}
			// Stride holds the consumer's own rate until every user has
			// folded its rate and width into the stream.
			s := &out[k]
			s.PerWindow = max(s.PerWindow, perWindow)
			s.Bytes = max(s.Bytes, bytes)
			s.Consumers = append(s.Consumers, Consumer{App: i, Stride: perWindow})
		}
	}
	for k := range out {
		s := &out[k]
		for j, c := range s.Consumers {
			if s.PerWindow%c.Stride != 0 {
				return nil, fmt.Errorf("%w: BEAM cannot share %s between rates %d and %d per window",
					ErrConfig, s.Sensor, s.PerWindow, c.Stride)
			}
			s.Consumers[j].Stride = s.PerWindow / c.Stride
		}
		s.Period = v.Window / time.Duration(s.PerWindow)
	}
	return out, nil
}
