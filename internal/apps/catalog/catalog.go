// Package catalog assembles the full Table II workload set (A1–A11) with
// deterministic default configurations, so the hub, experiments, and
// examples can instantiate any workload by ID.
package catalog

import (
	"fmt"

	"iothub/internal/apps"
	"iothub/internal/apps/blynk"
	"iothub/internal/apps/coapserver"
	"iothub/internal/apps/dropboxmgr"
	"iothub/internal/apps/earthquake"
	"iothub/internal/apps/fingerprint"
	"iothub/internal/apps/heartbeat"
	"iothub/internal/apps/jpegdec"
	"iothub/internal/apps/jsonfmt"
	"iothub/internal/apps/m2x"
	"iothub/internal/apps/speech2text"
	"iothub/internal/apps/stepcounter"
)

// LightIDs lists the ten light-weight workloads in Table II order.
var LightIDs = []apps.ID{
	apps.CoAPServer, apps.StepCounter, apps.ArduinoJSON, apps.M2X,
	apps.Blynk, apps.DropboxMgr, apps.Earthquake, apps.Heartbeat,
	apps.JPEGDecoder, apps.Fingerprint,
}

// New instantiates a workload by Table II ID with its deterministic default
// configuration, derived from seed.
func New(id apps.ID, seed int64) (apps.App, error) {
	switch id {
	case apps.CoAPServer:
		return coapserver.New(seed)
	case apps.StepCounter:
		return stepcounter.New(seed)
	case apps.ArduinoJSON:
		return jsonfmt.New(seed)
	case apps.M2X:
		return m2x.New(seed)
	case apps.Blynk:
		return blynk.New(seed)
	case apps.DropboxMgr:
		return dropboxmgr.New(seed)
	case apps.Earthquake:
		// A quake burst early in the second window keeps both outcomes
		// (quiet and triggered) exercised in multi-window runs.
		return earthquake.New(seed, 1200)
	case apps.Heartbeat:
		// 72 BPM with one stretched interval at beat 3.
		return heartbeat.New(seed, 72, 3)
	case apps.JPEGDecoder:
		return jpegdec.New(seed)
	case apps.Fingerprint:
		// Three enrolled users; the scanner presents user 2's finger.
		return fingerprint.New(seed, 3, 2)
	case apps.SpeechToTxt:
		return speech2text.New(seed)
	default:
		return nil, fmt.Errorf("catalog: unknown workload %q", id)
	}
}

// Light instantiates A1–A10.
func Light(seed int64) ([]apps.App, error) {
	out := make([]apps.App, 0, len(LightIDs))
	for _, id := range LightIDs {
		a, err := New(id, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// All instantiates A1–A11.
func All(seed int64) ([]apps.App, error) {
	out, err := Light(seed)
	if err != nil {
		return nil, err
	}
	heavy, err := New(apps.SpeechToTxt, seed)
	if err != nil {
		return nil, err
	}
	return append(out, heavy), nil
}
