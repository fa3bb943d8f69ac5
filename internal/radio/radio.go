// Package radio models the hub's uplink network interfaces — the main
// board's WiFi NIC and the ESP8266's integrated radio. IoT apps exist to
// push their user-level outputs to a phone or cloud endpoint (§I), so the
// upstream burst that follows each window's computation is part of the
// system's energy story: on-CPU apps uplink through the main NIC, offloaded
// apps through the MCU's own radio.
//
// A transmission costs a fixed association/queueing overhead plus payload
// time at the effective uplink rate; the radio draws TxW for that span and
// IdleW otherwise. Host-CPU involvement is a small driver cost charged by
// the hub, not here (NICs DMA their frames).
package radio

import (
	"fmt"
	"time"

	"iothub/internal/energy"
	"iothub/internal/obs"
	"iothub/internal/sim"
)

// Params are one radio's calibration constants.
type Params struct {
	// TxW is the draw while transmitting.
	TxW float64
	// IdleW is the draw while associated but idle.
	IdleW float64
	// BytesPerSec is the effective uplink goodput.
	BytesPerSec float64
	// PerTxOverhead is the fixed cost per burst (wakeup, contention,
	// association upkeep).
	PerTxOverhead time.Duration
}

// DefaultMainParams returns the Raspberry Pi 3B onboard WiFi calibration.
func DefaultMainParams() Params {
	return Params{
		TxW:           0.70,
		IdleW:         0.03,
		BytesPerSec:   1_250_000,
		PerTxOverhead: 2 * time.Millisecond,
	}
}

// DefaultMCUParams returns the ESP8266 integrated-radio calibration: lower
// goodput, similar transmit draw.
func DefaultMCUParams() Params {
	return Params{
		TxW:           0.66,
		IdleW:         0.02,
		BytesPerSec:   300_000,
		PerTxOverhead: 3 * time.Millisecond,
	}
}

// Validate checks the calibration.
func (p Params) Validate() error {
	if p.BytesPerSec <= 0 {
		return fmt.Errorf("radio: BytesPerSec %v", p.BytesPerSec)
	}
	if p.PerTxOverhead < 0 {
		return fmt.Errorf("radio: negative overhead %v", p.PerTxOverhead)
	}
	if p.IdleW < 0 {
		return fmt.Errorf("radio: negative IdleW %v", p.IdleW)
	}
	if p.TxW < p.IdleW {
		return fmt.Errorf("radio: TxW %v below IdleW %v", p.TxW, p.IdleW)
	}
	return nil
}

// outage is one span the radio is off the air (fault injection).
type outage struct{ from, until sim.Time }

// The radio's typed events, scheduled by Transmit.
const (
	opDequeue = iota + 1 // I0 bytes: a deferred burst leaves the driver queue
	opTxStart            // I0 routine: the burst goes on the air
	opTxEnd              // the front pending burst has left the air
)

// Radio is one uplink instance with its own energy track.
type Radio struct {
	params Params
	sched  *sim.Scheduler
	meter  *energy.Meter
	track  *energy.Track
	name   string // track name, doubles as the span track ("radio:main")
	obs    *obs.Recorder
	// busyUntil serializes bursts on the single air interface.
	busyUntil sim.Time
	// dones holds the completions of bursts still on or waiting for the air,
	// in airtime order: bursts serialize, so they leave the air in call
	// order and each tx end delivers the front one.
	dones sim.Ring[func()]

	// Fault-injection state: outage windows defer bursts, the bounded queue
	// drops what the buffer cannot hold while waiting.
	outages       []outage
	queueLimit    int
	queuedBytes   int
	deferred      int
	droppedBursts int
	droppedBytes  int
}

// New returns an idle radio metered on the named track.
func New(sched *sim.Scheduler, meter *energy.Meter, name string, params Params) (*Radio, error) {
	r := &Radio{sched: sched, meter: meter, name: name}
	if err := r.Reset(params); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset readies the radio for a new run: idle, on the air, with nothing
// queued, keeping only its identity and its burst-ring and outage-list
// capacity. The scheduler and meter must have been reset first; the track is
// re-requested so it registers at this call's position in the meter's
// component order.
func (r *Radio) Reset(params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	r.dones.Reset()
	*r = Radio{
		params:  params,
		sched:   r.sched,
		meter:   r.meter,
		track:   r.meter.Track(r.name),
		name:    r.name,
		dones:   r.dones,
		outages: r.outages[:0],
	}
	r.track.Set(params.IdleW, energy.Idle)
	return nil
}

// Observe attaches an observability recorder: burst/byte counters and
// airtime spans. A nil recorder costs one branch per burst.
func (r *Radio) Observe(rec *obs.Recorder) { r.obs = rec }

// Params returns the radio's calibration constants.
func (r *Radio) Params() Params { return r.params }

// TxDuration is the airtime one burst of n bytes occupies.
func (r *Radio) TxDuration(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return r.params.PerTxOverhead +
		time.Duration(float64(n)/r.params.BytesPerSec*float64(time.Second))
}

// AddOutage takes the radio off the air for [from, until): bursts that would
// start inside the span wait it out in the driver queue (bounded by
// SetQueueLimit). Outages must be added before the affected instants.
func (r *Radio) AddOutage(from, until sim.Time) error {
	if until <= from || from < 0 {
		return fmt.Errorf("radio: outage [%v, %v) is empty or negative", from, until)
	}
	r.outages = append(r.outages, outage{from: from, until: until})
	// Keep sorted by start so deferral resolves in one forward pass.
	for i := len(r.outages) - 1; i > 0 && r.outages[i].from < r.outages[i-1].from; i-- {
		r.outages[i], r.outages[i-1] = r.outages[i-1], r.outages[i]
	}
	return nil
}

// SetQueueLimit bounds the bytes the driver buffers for bursts waiting out
// an outage; 0 means unbounded. Bursts that would overflow the buffer are
// dropped and accounted.
func (r *Radio) SetQueueLimit(bytes int) { r.queueLimit = bytes }

// Deferred counts bursts that waited out at least one outage.
func (r *Radio) Deferred() int { return r.deferred }

// DroppedBursts counts bursts dropped at the bounded queue.
func (r *Radio) DroppedBursts() int { return r.droppedBursts }

// DroppedBytes counts payload bytes dropped at the bounded queue.
func (r *Radio) DroppedBytes() int { return r.droppedBytes }

// Transmit queues a burst of n bytes; done (may be nil) runs when the burst
// has left the air. Bursts serialize on the single interface. Airtime energy
// is attributed to routine rt.
func (r *Radio) Transmit(n int, rt energy.Routine, done func()) error {
	if n < 0 {
		return fmt.Errorf("radio: negative payload %d", n)
	}
	d := r.TxDuration(n)
	start := r.sched.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	// An outage defers the burst to the moment the radio is back; the
	// payload sits in the (bounded) driver queue in the meantime. A burst
	// submitted while the radio is down is buffered even when earlier queued
	// bursts already pushed its airtime past the outage.
	now := r.sched.Now()
	waited := false
	for _, o := range r.outages {
		down := func(t sim.Time) bool { return t >= o.from && t < o.until }
		if down(now) || down(start) {
			waited = true
			if start < o.until {
				start = o.until
			}
		}
	}
	if waited {
		if r.queueLimit > 0 && r.queuedBytes+n > r.queueLimit {
			r.droppedBursts++
			r.droppedBytes += n
			if done != nil {
				done()
			}
			return nil
		}
		r.deferred++
		r.queuedBytes += n
		if _, err := r.sched.AtCall(start, r, sim.Arg{Op: opDequeue, I0: int64(n)}); err != nil {
			return fmt.Errorf("radio: schedule dequeue: %w", err)
		}
	}
	end := start.Add(d)
	r.busyUntil = end
	r.obs.Inc(obs.RadioBursts)
	if n > 0 {
		r.obs.Add(obs.RadioBytes, uint64(n))
	}
	r.obs.Span(r.name, "burst", start, end)
	if d == 0 {
		if done != nil {
			done()
		}
		return nil
	}
	if _, err := r.sched.AtCall(start, r, sim.Arg{Op: opTxStart, I0: int64(rt)}); err != nil {
		return fmt.Errorf("radio: schedule tx start: %w", err)
	}
	if _, err := r.sched.AtCall(end, r, sim.Arg{Op: opTxEnd}); err != nil {
		return fmt.Errorf("radio: schedule tx end: %w", err)
	}
	*r.dones.Push() = done
	return nil
}

// OnEvent dispatches the radio's typed events (see the ops above).
func (r *Radio) OnEvent(a sim.Arg) {
	switch a.Op {
	case opDequeue:
		r.queuedBytes -= int(a.I0)
	case opTxStart:
		r.track.Set(r.params.TxW, energy.Routine(a.I0))
	case opTxEnd:
		// A back-to-back burst may already have re-raised the power level;
		// only drop to idle when this burst is the last queued.
		if r.busyUntil == r.sched.Now() {
			r.track.Set(r.params.IdleW, energy.Idle)
		}
		done := *r.dones.Front()
		r.dones.Pop()
		if done != nil {
			done()
		}
	}
}

// Track exposes the radio's energy track.
func (r *Radio) Track() *energy.Track { return r.track }
