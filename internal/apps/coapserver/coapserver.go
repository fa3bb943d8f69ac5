// Package coapserver implements workload A1: a Building Automation CoAP
// server. It samples the light and sound sensors at 1 kHz and, once per
// window, serves the aggregated observations to a constrained client as
// CoAP request/response exchanges over the RFC 7252 wire format.
package coapserver

import (
	"fmt"
	"time"

	"iothub/internal/apps"
	"iothub/internal/coapmsg"
	"iothub/internal/dsp"
	"iothub/internal/jsonlite"
	"iothub/internal/sensor"
)

var spec = apps.Spec{
	ID:       apps.CoAPServer,
	Name:     "CoAP Server",
	Category: "Building Automation",
	Task:     "Constrained Application Protocol",
	Sensors: []apps.SensorUse{
		{Sensor: sensor.Light},
		{Sensor: sensor.Sound},
	},
	Window: time.Second,

	HeapBytes:  23600,
	StackBytes: 400,
	MIPS:       35.2,
}

// resources maps CoAP Uri-Paths to the sensor backing them.
var resources = map[string]sensor.ID{
	"light": sensor.Light,
	"sound": sensor.Sound,
}

// App is the CoAP-server workload.
type App struct {
	light     *sensor.Scalar
	sound     *sensor.Scalar
	msgID     uint16
	observers *coapmsg.ObserveRegistry
}

var _ apps.App = (*App)(nil)

// New returns the workload with deterministic environmental inputs.
func New(seed int64) (*App, error) {
	return &App{
		light:     sensor.NewScalar(seed, sensor.ScalarLight),
		sound:     sensor.NewScalar(seed+1, sensor.ScalarSoundLevel),
		observers: coapmsg.NewObserveRegistry(),
	}, nil
}

// Spec returns the workload description.
func (a *App) Spec() apps.Spec { return spec }

// Source returns the requested environmental signal.
func (a *App) Source(id sensor.ID) (sensor.Source, error) {
	switch id {
	case sensor.Light:
		return a.light, nil
	case sensor.Sound:
		return a.sound, nil
	default:
		return nil, fmt.Errorf("%w: %s", apps.ErrUnknownSensor, id)
	}
}

// historyBlockSZX selects 64-byte blocks for the blockwise history fetch.
const historyBlockSZX = 2

// Compute aggregates the window and serves one GET per resource plus a
// blockwise (RFC 7959) fetch of the full history document: each request is
// marshaled, unmarshaled at the server, dispatched by Uri-Path, and answered
// with a piggybacked 2.05 Content JSON payload.
func (a *App) Compute(in apps.WindowInput) (apps.Result, error) {
	var served []byte
	// history is the window's one rendering of /sensors/history, set before
	// the blockwise fetch; every Block2 reply is cut from it.
	var history []byte
	exchanges := 0
	exchange := func(req *coapmsg.Message) (*coapmsg.Message, error) {
		wire, err := req.Marshal()
		if err != nil {
			return nil, fmt.Errorf("coapserver: marshal request: %w", err)
		}
		parsed, err := coapmsg.Unmarshal(wire)
		if err != nil {
			return nil, fmt.Errorf("coapserver: parse request: %w", err)
		}
		reply, err := a.serve(parsed, in, history)
		if err != nil {
			return nil, err
		}
		replyWire, err := reply.Marshal()
		if err != nil {
			return nil, fmt.Errorf("coapserver: marshal reply: %w", err)
		}
		// Frame each reply with a 2-byte length so the stream is
		// self-delimiting over a reliable transport (RFC 8323 style).
		served = append(served, byte(len(replyWire)>>8), byte(len(replyWire)))
		served = append(served, replyWire...)
		exchanges++
		parsedReply, err := coapmsg.Unmarshal(replyWire)
		if err != nil {
			return nil, fmt.Errorf("coapserver: parse reply: %w", err)
		}
		return parsedReply, nil
	}

	for _, path := range []string{"light", "sound", "missing"} {
		a.msgID++
		req := &coapmsg.Message{
			Type:      coapmsg.Confirmable,
			Code:      coapmsg.CodeGET,
			MessageID: a.msgID,
			Token:     []byte{byte(in.Window), byte(exchanges)},
		}
		req.AddOption(coapmsg.OptUriPath, []byte("sensors"))
		req.AddOption(coapmsg.OptUriPath, []byte(path))
		if _, err := exchange(req); err != nil {
			return apps.Result{}, err
		}
	}

	// Observe (RFC 7641): the building dashboard registers for light
	// updates in window 0; every later window pushes one notification per
	// active relation.
	observeNotes := 0
	if in.Window == 0 {
		a.msgID++
		reg := &coapmsg.Message{
			Type:      coapmsg.Confirmable,
			Code:      coapmsg.CodeGET,
			MessageID: a.msgID,
			Token:     []byte{0x0B, 0x5E},
		}
		reg.AddOption(coapmsg.OptUriPath, []byte("sensors"))
		reg.AddOption(coapmsg.OptUriPath, []byte("light"))
		if err := reg.SetObserve(coapmsg.ObserveRegister); err != nil {
			return apps.Result{}, fmt.Errorf("coapserver: %w", err)
		}
		if _, err := exchange(reg); err != nil {
			return apps.Result{}, err
		}
	} else {
		payload, err := a.observationPayload(in)
		if err != nil {
			return apps.Result{}, err
		}
		notes, err := a.observers.Notify("light", &a.msgID, payload)
		if err != nil {
			return apps.Result{}, fmt.Errorf("coapserver: notify: %w", err)
		}
		for _, note := range notes {
			wire, err := note.Marshal()
			if err != nil {
				return apps.Result{}, fmt.Errorf("coapserver: marshal notification: %w", err)
			}
			served = append(served, byte(len(wire)>>8), byte(len(wire)))
			served = append(served, wire...)
			exchanges++
			observeNotes++
		}
	}

	// Blockwise fetch of /sensors/history — the full per-sample document is
	// far beyond a constrained client's MTU. All blocks of one transfer come
	// from one representation (RFC 7959 §2.4), so it is rendered once.
	doc, err := a.history(in)
	if err != nil {
		return apps.Result{}, err
	}
	history = doc
	var asm coapmsg.Assembler
	blocks := 0
	for !asm.Done() {
		if blocks > 10_000 {
			return apps.Result{}, fmt.Errorf("coapserver: runaway blockwise transfer")
		}
		a.msgID++
		req := &coapmsg.Message{
			Type:      coapmsg.Confirmable,
			Code:      coapmsg.CodeGET,
			MessageID: a.msgID,
			Token:     []byte{byte(in.Window), 0xB},
		}
		req.AddOption(coapmsg.OptUriPath, []byte("sensors"))
		req.AddOption(coapmsg.OptUriPath, []byte("history"))
		blockVal, err := asm.Next(historyBlockSZX).Marshal()
		if err != nil {
			return apps.Result{}, fmt.Errorf("coapserver: %w", err)
		}
		req.AddOption(coapmsg.OptBlock2, blockVal)
		reply, err := exchange(req)
		if err != nil {
			return apps.Result{}, err
		}
		if reply.Code != coapmsg.CodeContent {
			return apps.Result{}, fmt.Errorf("coapserver: history block %d: %v", blocks, reply.Code)
		}
		if err := asm.Add(reply); err != nil {
			return apps.Result{}, fmt.Errorf("coapserver: history block %d: %w", blocks, err)
		}
		blocks++
	}
	if _, err := jsonlite.Parse(asm.Bytes()); err != nil {
		return apps.Result{}, fmt.Errorf("coapserver: assembled history invalid: %w", err)
	}

	return apps.Result{
		Summary: fmt.Sprintf("served %d CoAP exchanges (%d history blocks, %d notifications, %d bytes)",
			exchanges, blocks, observeNotes, len(served)),
		Upstream: served,
		Metrics: map[string]float64{
			"exchanges":     float64(exchanges),
			"blocks":        float64(blocks),
			"notifications": float64(observeNotes),
			"observers":     float64(a.observers.Len()),
			"historyBytes":  float64(len(asm.Bytes())),
			"replyBytes":    float64(len(served)),
		},
	}, nil
}

// observationPayload is the compact per-notification state of the light
// resource.
func (a *App) observationPayload(in apps.WindowInput) ([]byte, error) {
	values, err := decodeScalars(sensor.Light, in.Samples[sensor.Light])
	if err != nil {
		return nil, fmt.Errorf("coapserver: observation: %w", err)
	}
	b := jsonlite.NewBuilder(64)
	b.BeginObject().
		Key("window").Int(int64(in.Window)).
		Key("lux").Num(dsp.Mean(values)).
		EndObject()
	return b.Bytes()
}

// history renders the window's light readings as one large JSON document.
func (a *App) history(in apps.WindowInput) ([]byte, error) {
	values, err := decodeScalars(sensor.Light, in.Samples[sensor.Light])
	if err != nil {
		return nil, fmt.Errorf("coapserver: history: %w", err)
	}
	b := jsonlite.NewBuilder(4096)
	b.BeginObject().Key("resource").Str("history").Key("lux").BeginArray()
	for _, v := range values {
		b.Num(float64(int64(v*10)) / 10)
	}
	b.EndArray().EndObject()
	return b.Bytes()
}

// SplitReplies splits a length-framed reply stream back into individual
// CoAP messages (used by clients and tests).
func SplitReplies(b []byte) ([][]byte, error) {
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, fmt.Errorf("coapserver: truncated frame header")
		}
		n := int(b[0])<<8 | int(b[1])
		if len(b) < 2+n {
			return nil, fmt.Errorf("coapserver: truncated frame body: want %d bytes", n)
		}
		out = append(out, b[2:2+n])
		b = b[2+n:]
	}
	return out, nil
}

// serve dispatches a parsed request against the sensor resources. A history
// request is answered with one block of history, the window's rendered
// history document (see history).
func (a *App) serve(req *coapmsg.Message, in apps.WindowInput, history []byte) (*coapmsg.Message, error) {
	path := req.PathOptions()
	if len(path) != 2 || path[0] != "sensors" {
		return coapmsg.NewReply(req, coapmsg.CodeBadReq, coapmsg.FormatText, nil), nil
	}
	if path[1] == "history" {
		blk, found, err := req.BlockOption(coapmsg.OptBlock2)
		if err != nil {
			return coapmsg.NewReply(req, coapmsg.CodeBadReq, coapmsg.FormatText, nil), nil
		}
		if !found {
			blk = coapmsg.Block{SZX: historyBlockSZX}
		}
		return coapmsg.ServeBlock2(req, coapmsg.CodeContent, coapmsg.FormatJSON, history, blk)
	}
	id, ok := resources[path[1]]
	if !ok {
		return coapmsg.NewReply(req, coapmsg.CodeNotFound, coapmsg.FormatText, nil), nil
	}
	if _, err := req.ObserveValue(); err == nil {
		payload, err := a.observationPayload(in)
		if err != nil {
			return nil, err
		}
		return a.observers.HandleRequest(req, path[1], payload)
	}
	values, err := decodeScalars(id, in.Samples[id])
	if err != nil {
		return nil, fmt.Errorf("coapserver: %s: %w", id, err)
	}
	b := jsonlite.NewBuilder(128)
	b.BeginObject().
		Key("resource").Str(path[1]).
		Key("n").Int(int64(len(values))).
		Key("mean").Num(dsp.Mean(values)).
		Key("max").Num(maxOf(values)).
		EndObject()
	payload, err := b.Bytes()
	if err != nil {
		return nil, fmt.Errorf("coapserver: payload: %w", err)
	}
	return coapmsg.NewReply(req, coapmsg.CodeContent, coapmsg.FormatJSON, payload), nil
}

func decodeScalars(id sensor.ID, raw [][]byte) ([]float64, error) {
	sp, err := sensor.Lookup(id)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(raw))
	for i, b := range raw {
		var v float64
		if sp.SampleBytes == 4 {
			iv, err := sensor.DecodeI32(b)
			if err != nil {
				return nil, fmt.Errorf("sample %d: %w", i, err)
			}
			v = float64(iv)
		} else {
			fv, err := sensor.DecodeF64(b)
			if err != nil {
				return nil, fmt.Errorf("sample %d: %w", i, err)
			}
			v = fv
		}
		out = append(out, v)
	}
	return out, nil
}

func maxOf(xs []float64) float64 {
	best := 0.0
	for i, x := range xs {
		if i == 0 || x > best {
			best = x
		}
	}
	return best
}
